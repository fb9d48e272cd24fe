"""Model parameter tree: seeded initialization and binary serialization.

Weights live in float32 / complex64 so the on-disk f32 representation
round-trips bit-exactly. The file layout is:

    magic "BSE1" | version u32 | fingerprint (u16 length + ascii sha256)
    | n_tensors u32 | per tensor: name (u16 length + utf-8), kind u8
    (0 real, 1 complex), ndim u8, dims u32..., payload f32 little-endian
    (complex stored as interleaved re, im pairs).

``_build`` is the one place that names, shapes and types each tensor. Its
factory draws seeded values or hands out a loaded file's tensors, and records
each in ``ModelParams.tensors`` under its name, in creation order, which is
also the order tensors are written. Every entry is a read-only ndarray and
the same object as its dataclass field.

One writer, ``save_arrays``, serves weights and stage dumps, casting each
tensor as it writes it; ``load_arrays`` checks each declared payload against
the bytes left in the file, then reads it straight into its array. Loading
weights validates the magic, version and the architecture fingerprint of the
active config, then builds the tree from the stored tensors: nothing is
drawn or copied. A rejected file raises, so no half-built tree escapes.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .complex_ops import CLayerNormParams, CLinearParams, CSEParams, LightConvParams
from .config import RunConfig
from .decoder import DecoderParams
from .encoder import EncoderParams
from .errors import ConfigMismatch, FormatError
from .modulator import ModulatorParams

_MAGIC = b"BSE1"
_VERSION = 1


@dataclass
class ModelParams:
    encoder: EncoderParams
    modulator: ModulatorParams
    decoder: DecoderParams
    fingerprint: str
    tensors: dict[str, np.ndarray]   # name -> the same arrays, creation order


class _Factory:
    """Hands ``_build`` each tensor read-only: the loaded file's ``stored``
    tensor, checked by name, shape and dtype, or else one drawn from ``rng``.
    Complex weights get uniform phase with magnitude RMS fan_in^{-1/2}; real
    weights are Gaussian with std fan_in^{-1/2}. Biases start at zero, norms
    at identity, PReLU slopes at 0.25, the temperature at 1.
    """

    def __init__(self, rng=None, stored: dict[str, np.ndarray] | None = None):
        self.rng, self.stored = rng, stored
        self.tensors: dict[str, np.ndarray] = {}

    def _tensor(self, name, shape, dtype: str, draw):
        if self.stored is None:
            arr = np.full(shape, draw(), dtype)
        elif (arr := self.stored.get(name)) is None:
            raise FormatError(f"missing tensor {name!r}")
        elif arr.shape != shape or arr.dtype != dtype:
            raise FormatError(
                f"tensor {name!r}: stored {arr.dtype}{arr.shape}, expected {dtype}{shape}"
            )
        arr.setflags(write=False)
        self.tensors[name] = arr
        return arr

    def cweight(self, name, shape, fan_in):
        return self._tensor(name, shape, "complex64", lambda: (
            self.rng.standard_normal(shape) + 1j * self.rng.standard_normal(shape)
        ) * (1.0 / np.sqrt(2.0 * fan_in)))

    def rweight(self, name, shape, fan_in):
        return self._tensor(name, shape, "float32",
                            lambda: self.rng.standard_normal(shape) / np.sqrt(fan_in))

    def zeros(self, name, shape, complex_=False):
        return self._tensor(name, shape, "complex64" if complex_ else "float32", lambda: 0)

    def ones_c(self, name, shape):
        return self._tensor(name, shape, "complex64", lambda: 1)

    def const(self, name, value):
        return self._tensor(name, (), "float32", lambda: value)


def _build_lightconv(make, prefix, c_in, c_out, kernel):
    fan_dw = int(np.prod(kernel))
    return LightConvParams(
        depthwise=make.cweight(f"{prefix}.depthwise", (c_in, *kernel), fan_dw),
        pointwise=CLinearParams(
            weight=make.cweight(f"{prefix}.pointwise.weight", (c_out, c_in), c_in),
            bias=make.zeros(f"{prefix}.pointwise.bias", (c_out,), complex_=True),
        ),
        norm=CLayerNormParams(
            gamma=make.ones_c(f"{prefix}.norm.gamma", (c_out,)),
            beta=make.zeros(f"{prefix}.norm.beta", (c_out,), complex_=True),
        ),
        prelu_slope=make.const(f"{prefix}.prelu", 0.25),
    )


def _build(cfg: RunConfig, make) -> ModelParams:
    c = cfg.channels
    f = cfg.analysis.n_freq_bins
    h = cfg.hidden
    k = cfg.n_basis
    k1 = (cfg.kernel_time,)
    k2 = cfg.kernel_2d

    def blocks(prefix, n, kernel):
        out = []
        for i in range(n):
            c_in = 2 if i == 0 else c
            out.append(_build_lightconv(make, f"{prefix}.{i}", c_in, c, kernel))
        return out

    encoder = EncoderParams(
        stft_blocks=blocks("encoder.stft", cfg.n_encoder_blocks, k1),
        gamma_blocks=blocks("encoder.gamma", cfg.n_encoder_blocks, k1),
        gamma_proj=make.rweight("encoder.gamma_proj", (f, cfg.n_gammatone), cfg.n_gammatone),
        fusion=CLinearParams(
            weight=make.rweight("encoder.fusion.weight", (c, c), c),
            bias=make.zeros("encoder.fusion.bias", (c,)),
        ),
        se=CSEParams(
            reduce=make.rweight("encoder.se.reduce", (c // cfg.se_reduction, c), c),
            expand=make.rweight(
                "encoder.se.expand", (c, c // cfg.se_reduction), c // cfg.se_reduction
            ),
        ),
    )
    modulator = ModulatorParams(
        mlp_w1=make.rweight("modulator.mlp.w1", (h, c), c),
        mlp_b1=make.zeros("modulator.mlp.b1", (h,)),
        mlp_w2=make.rweight("modulator.mlp.w2", (k, h), h),
        mlp_b2=make.zeros("modulator.mlp.b2", (k,)),
        mlp_prelu_slope=make.const("modulator.mlp.prelu", 0.25),
        tau=make.const("modulator.tau", 1.0),
        proj=CLinearParams(
            weight=make.cweight("modulator.proj.weight", (c, c), c),
            bias=make.zeros("modulator.proj.bias", (c,), complex_=True),
        ),
        norm=CLayerNormParams(
            gamma=make.ones_c("modulator.norm.gamma", (c,)),
            beta=make.zeros("modulator.norm.beta", (c,), complex_=True),
        ),
    )

    def head(prefix):
        hblocks = [
            _build_lightconv(make, f"{prefix}.{i}", c, c, k2)
            for i in range(cfg.n_decoder_blocks)
        ]
        proj = CLinearParams(
            weight=make.cweight(f"{prefix}_proj.weight", (1, c), c),
            bias=make.zeros(f"{prefix}_proj.bias", (1,), complex_=True),
        )
        return hblocks, proj

    head_s, head_s_proj = head("decoder.head_s")
    head_n, head_n_proj = head("decoder.head_n")
    decoder = DecoderParams(
        head_s=head_s,
        head_s_proj=head_s_proj,
        head_n=head_n,
        head_n_proj=head_n_proj,
        drg_weight=make.rweight("decoder.drg.weight", (c,), c),
        drg_bias=make.zeros("decoder.drg.bias", ()),
        drg_global=make.zeros("decoder.drg_global", (f,)),
    )
    return ModelParams(
        encoder=encoder,
        modulator=modulator,
        decoder=decoder,
        fingerprint=cfg.fingerprint(),
        tensors=make.tensors,
    )


def init_random(cfg: RunConfig, seed: int = 0) -> ModelParams:
    """Deterministic seeded initialization of the full weight tree."""
    return _build(cfg, _Factory(rng=np.random.default_rng(seed)))


def save_weights(model: ModelParams, path) -> None:
    save_arrays(path, model.tensors, model.fingerprint)


def save_arrays(path, arrays: dict[str, np.ndarray], tag: str) -> None:
    """Write named arrays as f32 (complex as interleaved pairs), each cast as
    it is written, with ``tag`` in the fingerprint slot."""
    fp = tag.encode("ascii")
    with open(path, "wb") as fh:
        fh.write(_MAGIC + struct.pack("<IH", _VERSION, len(fp)) + fp
                 + struct.pack("<I", len(arrays)))
        for name, arr in arrays.items():
            nb = name.encode("utf-8")
            is_complex = np.iscomplexobj(arr)
            fh.write(struct.pack(f"<H{len(nb)}sBB{arr.ndim}I", len(nb), nb, is_complex,
                                 arr.ndim, *arr.shape))
            # "<c8" is the interleaved little-endian f32 (re, im) pair
            fh.write(np.ascontiguousarray(arr, "<c8" if is_complex else "<f4"))


class _Reader:
    """Reads an open file front to back, each read checked against its size."""

    def __init__(self, fh):
        self.fh = fh
        self.size = os.fstat(fh.fileno()).st_size
        self.off = 0

    def _advance(self, n: int) -> None:
        if self.off + n > self.size:
            raise FormatError(f"truncated file at offset {self.off} (need {n} bytes)")
        self.off += n

    def take(self, n: int) -> bytes:
        self._advance(n)
        return self.fh.read(n)

    def text(self, n: int, encoding: str) -> str:
        try:
            return self.take(n).decode(encoding)
        except UnicodeDecodeError:
            raise FormatError(f"{n} bytes before offset {self.off} are not {encoding}") from None

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, shape: tuple, dtype: np.dtype) -> np.ndarray:
        """The next payload, read into a new array once the file holds it."""
        at = self.off
        self._advance(dtype.itemsize * math.prod(shape))
        try:
            arr = np.empty(shape, dtype)
        except ValueError as exc:   # a zero dim beside dims too big, or over 64 dims
            raise FormatError(f"{len(shape)}-dim shape at offset {at}: {exc}") from None
        if self.fh.readinto(arr) != arr.nbytes:      # the file shrank while read
            raise FormatError(f"truncated file at offset {at}")
        return arr


def load_arrays(path) -> tuple[str, dict[str, np.ndarray]]:
    """Read a tensor-directory file written by save_arrays or save_weights."""
    with open(path, "rb") as fh:
        rd = _Reader(fh)
        if rd.take(4) != _MAGIC:
            raise FormatError("bad magic bytes (not a tensor file)")
        (version,) = rd.unpack("<I")
        if version != _VERSION:
            raise FormatError(f"unsupported format version {version}")
        (fp_len,) = rd.unpack("<H")
        tag = rd.text(fp_len, "ascii")
        (n_tensors,) = rd.unpack("<I")
        tensors = {}
        for _ in range(n_tensors):
            (name_len,) = rd.unpack("<H")
            name = rd.text(name_len, "utf-8")
            if name in tensors:
                raise FormatError(f"duplicate tensor name {name!r} at offset {rd.off}")
            kind, ndim = rd.unpack("<BB")
            shape = rd.unpack("<" + "I" * ndim)
            if kind not in (0, 1):
                raise FormatError(f"unknown tensor kind {kind} at offset {rd.off}")
            dtype = np.dtype("<c8" if kind == 1 else "<f4")
            arr = rd.array(shape, dtype).astype(dtype.newbyteorder("="), copy=False)
            if not np.all(np.isfinite(arr)):
                raise FormatError(f"non-finite values in tensor {name!r}")
            tensors[name] = arr
    if rd.off != rd.size:
        raise FormatError(f"{rd.size - rd.off} trailing bytes at offset {rd.off}")
    return tag, tensors


def load_weights(path, cfg: RunConfig) -> ModelParams:
    """Load and validate a weights file against the active config."""
    fingerprint, stored = load_arrays(path)
    if fingerprint != cfg.fingerprint():
        raise ConfigMismatch(
            f"weights fingerprint {fingerprint[:12]}... does not match "
            f"config {cfg.fingerprint()[:12]}..."
        )
    model = _build(cfg, _Factory(stored=stored))
    unused = stored.keys() - model.tensors.keys()
    if unused:
        raise FormatError(f"unexpected tensors in file: {sorted(unused)[:3]}")
    return model
