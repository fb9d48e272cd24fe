"""WAV input/output and the stereo waveform container.

The RIFF codec is built on ``struct`` and numpy. Reading accepts PCM-16
and IEEE float-32 payloads in little-endian RIFF or big-endian RIFX,
plain or as ``WAVE_FORMAT_EXTENSIBLE`` with one of those two subformats.
Chunks other than ``fmt `` and ``data`` (``LIST``, ``fact``, ...) are skipped,
as is the pad byte after an odd-sized chunk. Everything else is rejected with
UnsupportedFormat: other bit depths and sample formats, RF64, a missing
``fmt `` or ``data`` chunk, a truncated header, a ``data`` chunk that ends
before its declared size (even on a frame boundary), a partial frame and a
float-32 payload holding inf or NaN. Every reader is given the sample rate
it expects; there is no resampling. Writing produces float-32 RIFF files
byte-identical to ``scipy.io.wavfile.write`` (an 18-byte ``fmt `` plus a
``fact`` chunk), and rejects samples that are not finite in float-32.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import UnsupportedFormat

_PCM, _IEEE_FLOAT, _EXTENSIBLE = 0x0001, 0x0003, 0xFFFE
_SAMPLE_TYPES = {(_PCM, 16): "i2", (_IEEE_FLOAT, 32): "f4"}   # (format, bits) -> dtype
# KSDATAFORMAT_SUBTYPE GUID after its leading format tag (RFC 2361), per byte order
_GUID_TAILS = {"<": b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71",
               ">": b"\x00\x00\x00\x10\x80\x00\x00\xaa\x00\x38\x9b\x71"}


def _is_rate(rate) -> bool:   # an integer of at least 1, Python or numpy but not a bool
    return isinstance(rate, (int, np.integer)) and not isinstance(rate, bool) and rate >= 1


@dataclass
class Waveform:
    """Stereo time-domain signal, samples shaped (2, n)."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 2 or self.samples.shape[0] != 2:
            raise ValueError("Waveform requires samples shaped (2, n)")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("Waveform contains non-finite samples")
        if not _is_rate(self.sample_rate):
            raise ValueError(f"Waveform requires an integer sample rate of at least 1 Hz, "
                             f"got {self.sample_rate!r}")

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.sample_rate


def _parse_fmt(body: bytes, order: str) -> tuple[str, int, int, int]:
    """Decode a ``fmt `` chunk into (dtype, channels, rate, block_align)."""
    if len(body) < 16:
        raise ValueError(f"fmt chunk of {len(body)} bytes, need 16")
    tag, channels, rate, _, block_align, bits = struct.unpack_from(order + "HHIIHH", body)
    if tag == _EXTENSIBLE:
        if len(body) < 40 or struct.unpack_from(order + "H", body, 16)[0] < 22:
            raise ValueError("extensible fmt chunk too short")
        guid = body[24:40]
        if guid[4:] != _GUID_TAILS[order]:
            raise ValueError("unknown extensible subformat")
        tag = struct.unpack_from(order + "I", guid)[0]
    kind = _SAMPLE_TYPES.get((tag, bits))
    if kind is None:
        raise ValueError(f"format tag {tag:#06x} with {bits}-bit samples "
                         "(PCM-16 or float-32 only)")
    if channels == 0 or block_align != channels * np.dtype(kind).itemsize:
        raise ValueError(f"block align {block_align} does not fit {channels} channel(s)")
    return order + kind, channels, rate, block_align


def _decode(buf: bytes) -> tuple[int, np.ndarray]:
    """Decode a whole WAV file into (rate, samples shaped (n, channels))."""
    magic = buf[:4]
    if magic == b"RF64":
        raise ValueError("RF64 is not supported")
    if magic not in (b"RIFF", b"RIFX") or buf[8:12] != b"WAVE":
        raise ValueError(f"not a RIFF/RIFX WAVE file (starts {buf[:12]!r})")
    order = "<" if magic == b"RIFF" else ">"
    fmt, pos = None, 12
    while True:
        if pos + 8 > len(buf):
            raise ValueError(f"no {'data' if fmt else 'fmt'} chunk before end of file")
        chunk_id, size = struct.unpack_from(order + "4sI", buf, pos)
        body = memoryview(buf)[pos + 8 : pos + 8 + size]      # no copy of the payload
        if chunk_id == b"fmt ":
            if len(body) < size:
                raise ValueError("truncated fmt chunk")
            fmt = _parse_fmt(body, order)
        elif chunk_id == b"data":
            if fmt is None:
                raise ValueError("no fmt chunk before the data chunk")
            dtype, channels, rate, block_align = fmt
            if len(body) < size:
                raise ValueError(f"data chunk declares {size} bytes, but the file "
                                 f"holds {len(body)}")
            if len(body) % block_align:
                raise ValueError(f"data chunk of {len(body)} bytes is not a whole "
                                 f"number of {block_align}-byte frames")
            return rate, np.frombuffer(body, dtype).reshape(-1, channels)
        pos += 8 + size + (size & 1)


def read_wav(path, expected_rate: int) -> np.ndarray:
    """Read a WAV file into a float64 array shaped (channels, n) in [-1, 1].

    Only PCM-16 and finite float-32 payloads at ``expected_rate`` are
    accepted; anything else raises UnsupportedFormat.
    """
    try:
        rate, data = _decode(Path(path).read_bytes())
    except ValueError as exc:
        raise UnsupportedFormat(f"{path}: cannot parse WAV ({exc})") from exc
    if rate != expected_rate:
        raise UnsupportedFormat(f"{path}: sample rate {rate}, expected {expected_rate}")
    if data.dtype.kind == "f" and not np.all(np.isfinite(data)):   # casting sNaN warns
        raise UnsupportedFormat(f"{path}: non-finite samples in the float-32 payload")
    x = data.astype(np.float64)
    if data.dtype.kind == "i":
        x /= 32768.0
    return x.T


def read_stereo(path, expected_rate: int) -> Waveform:
    x = read_wav(path, expected_rate)
    if x.shape[0] != 2:
        raise UnsupportedFormat(f"{path}: {x.shape[0]} channel(s), expected 2")
    return Waveform(x, expected_rate)


def read_mono(path, expected_rate: int) -> np.ndarray:
    x = read_wav(path, expected_rate)
    if x.shape[0] != 1:
        raise UnsupportedFormat(f"{path}: {x.shape[0]} channel(s), expected 1")
    return x[0]


def _header(data: np.ndarray, sample_rate: int) -> bytes:
    """Float-32 RIFF header for (n,) or (n, channels) float32 samples."""
    channels = 1 if data.ndim == 1 else data.shape[1]
    align = 4 * channels
    if not (_is_rate(sample_rate) and sample_rate <= 0xFFFFFFFF // align):   # byte rate: u32
        raise ValueError(f"sample rate {sample_rate!r}: a {channels}-channel float-32 header "
                         f"holds integer rates of 1 to {0xFFFFFFFF // align} Hz")
    fmt = struct.pack("<HHIIHHH", _IEEE_FLOAT, channels, sample_rate, int(sample_rate) * align,
                      align, 32, 0)        # cbSize 0 closes a non-PCM format
    header = (b"WAVEfmt " + struct.pack("<I", len(fmt)) + fmt
              + b"fact" + struct.pack("<II", 4, data.shape[0])
              + b"data" + struct.pack("<I", data.nbytes))
    riff_size = len(header) + data.nbytes
    if riff_size > 0xFFFFFFFF:
        raise UnsupportedFormat("output exceeds the 4 GiB RIFF limit (RF64 is not written)")
    return b"RIFF" + struct.pack("<I", riff_size) + header


def write_wav(path, samples: np.ndarray, sample_rate: int):
    """Write (channels, n) or (n,) samples to a float-32 WAV file.

    Other shapes, channel counts and sample rates a RIFF header cannot hold
    and samples not finite in float-32 raise ValueError, and output beyond
    4 GiB UnsupportedFormat, before the file is opened.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim not in (1, 2) or x.ndim == 2 and not 0 < x.shape[0] < 1 << 16:
        raise ValueError(f"samples shaped {x.shape}, expected (n,) or (channels, n)")
    with np.errstate(over="ignore"):        # beyond float-32 range: inf, refused below
        data = np.ascontiguousarray(x.T, "<f4")       # frames in file order
    if not np.all(np.isfinite(data)):
        raise ValueError("samples are not finite in float-32")
    header = _header(data, sample_rate)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data)
