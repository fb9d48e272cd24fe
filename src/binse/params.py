"""Model parameter tree: seeded initialization and binary serialization.

Weights live in float32 / complex64 so the on-disk f32 representation
round-trips bit-exactly. The file layout is:

    magic "BSE1" | version u32 | fingerprint (u16 length + ascii sha256)
    | n_tensors u32 | per tensor: name (u16 length + utf-8), kind u8
    (0 real, 1 complex), ndim u8, dims u32..., payload f32 little-endian
    (complex stored as interleaved re, im pairs).

``_build`` makes the weight tree one way, with the seeded factory, which
records each tensor in ``ModelParams.tensors`` under the name it is given:
the directory is in creation order, which is also the order tensors are
written. Every entry is a writable ndarray and the same object as its
dataclass field.

One writer, ``save_arrays``, serves weights and stage dumps, casting each
tensor as it writes it; ``load_arrays`` checks each declared payload against
the bytes left in the file, then reads it straight into its array. Loading
weights validates the magic, version and the architecture fingerprint of the
active config, builds the seeded tree and, in creation order, checks each
stored tensor against it by name, shape and dtype and copies the values in.
A rejected file raises, so no half-filled tree escapes.
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


class _RandomInit:
    """Tensor factory for seeded initialization.

    Complex weights get uniform phase with magnitude RMS fan_in^{-1/2};
    real weights are Gaussian with std fan_in^{-1/2}. Biases start at
    zero, norms at identity, PReLU slopes at 0.25, the temperature at 1.
    """

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.tensors: dict[str, np.ndarray] = {}

    def _keep(self, name, arr):
        self.tensors[name] = arr
        return arr

    def cweight(self, name, shape, fan_in):
        scale = 1.0 / np.sqrt(2.0 * fan_in)
        w = self.rng.standard_normal(shape) + 1j * self.rng.standard_normal(shape)
        return self._keep(name, (w * scale).astype(np.complex64))

    def rweight(self, name, shape, fan_in):
        w = self.rng.standard_normal(shape) / np.sqrt(fan_in)
        return self._keep(name, w.astype(np.float32))

    def zeros(self, name, shape, complex_=False):
        return self._keep(name, np.zeros(shape, dtype=np.complex64 if complex_ else np.float32))

    def ones_c(self, name, shape):
        return self._keep(name, np.ones(shape, dtype=np.complex64))

    def const(self, name, value):
        return self._keep(name, np.full((), value, np.float32))


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
    return _build(cfg, _RandomInit(seed))


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

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, shape: tuple, dtype: np.dtype) -> np.ndarray:
        """The next payload, read into a new array once the file holds it."""
        self._advance(dtype.itemsize * math.prod(shape))
        arr = np.empty(shape, dtype)
        if self.fh.readinto(arr) != arr.nbytes:      # the file shrank while read
            raise FormatError(f"truncated file at offset {self.off - arr.nbytes}")
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
        tag = rd.take(fp_len).decode("ascii")
        (n_tensors,) = rd.unpack("<I")
        tensors = {}
        for _ in range(n_tensors):
            (name_len,) = rd.unpack("<H")
            name = rd.take(name_len).decode("utf-8")
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
    model = init_random(cfg)
    for name, arr in model.tensors.items():
        if name not in stored:
            raise FormatError(f"missing tensor {name!r}")
        got = stored[name]
        if got.shape != arr.shape or got.dtype != arr.dtype:
            raise FormatError(
                f"tensor {name!r}: stored {got.dtype}{got.shape}, "
                f"expected {arr.dtype}{arr.shape}"
            )
        arr[...] = got
    unused = stored.keys() - model.tensors.keys()
    if unused:
        raise FormatError(f"unexpected tensors in file: {sorted(unused)[:3]}")
    return model
