"""Dual-stream encoding and attention fusion.

Both ears enter as channels, so the encoders see the binaural pair jointly
and all gates stay real-positive; interaural information lives in the
complex values and is never rotated by this stage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import workers
from .complex_ops import CLinearParams, CSEParams, LightConvParams, clinear, lightconv, sigmoid
from .errors import ShapeMismatch


@dataclass
class EncoderParams:
    stft_blocks: list[LightConvParams]    # M blocks: 2 -> C, then C -> C
    gamma_blocks: list[LightConvParams]   # M blocks on the gammatone stream
    gamma_proj: np.ndarray                # real (F, n_gammatone) feature-axis map
    fusion: CLinearParams                 # real (C, C), (C,): 1x1 conv over channels
    se: CSEParams


def encode_stft(bins: np.ndarray, p: EncoderParams) -> np.ndarray:
    """Encode the STFT stream: bins (2, rows, T) -> (C, rows, T), the ears
    entering as the two channels.

    The blocks are 1-D in time, so any rows of the spectrogram encode alone.
    """
    if bins.ndim != 3 or bins.shape[0] != 2:
        raise ShapeMismatch(f"expected STFT bins (2, rows, T), got {bins.shape}")
    x = bins
    for block in p.stft_blocks:
        x = lightconv(x, block)
    return x


def encode_gamma(g: np.ndarray, p: EncoderParams, tiles: list[tuple[int, int]]) -> np.ndarray:
    """Encode gammatone frames (2, n_gamma, T) -> (C, F, T).

    The blocks run on the gammatone feature axis, each band alone, so both
    blocks run per tile of ``tiles``, (lo, hi) bands that cover every band
    (``[(0, n_gamma)]`` is one tile of all of them), as independent units
    of the caller's plan (``workers.map``), each writing its bands into the
    first n_gamma rows of one (C, max(F, n_gamma), T) buffer. A fixed real
    linear map then projects that axis onto the F STFT bins so the
    attention map is per-(channel, frequency, time). It runs on the calling
    thread, one channel at a time, each channel's projection overwriting its
    bands, so the only temporary is one channel's product. The result is the
    buffer's first F rows (a strided view when n_gamma > F).
    """
    if g.ndim != 3 or g.shape[0] != 2:
        raise ShapeMismatch(f"expected gammatone frames (2, n_gamma, T), got {g.shape}")
    f, n_gamma = p.gamma_proj.shape
    if n_gamma != g.shape[1]:
        raise ShapeMismatch(
            f"gamma projection expects {n_gamma} features, got {g.shape[1]}"
        )
    blocks = p.gamma_blocks
    c = blocks[-1].pointwise.weight.shape[0]
    buf = np.empty((c, max(f, n_gamma), g.shape[2]), np.result_type(
        g.dtype, *(a.dtype for b in blocks for a in (b.depthwise, b.pointwise.weight))))
    x = buf[:, :n_gamma]

    def encode_bands(tile):
        lo, hi = tile
        band = g[:, lo:hi]
        for block in blocks:
            band = lightconv(band, block)
        x[:, lo:hi] = band

    workers.map(encode_bands, tiles)
    # the real map acts on re and im alike: a real matmul on the float view,
    # whose trailing axis interleaves (re, im) over T. Each channel's product
    # is the one a stacked (F, G) @ (C, G, 2T) matmul makes for it, bit for
    # bit; chunking it along T would not be
    real = x.real.dtype
    proj = p.gamma_proj.astype(real, copy=False)
    for ch in range(c):
        buf[ch, :f] = np.matmul(proj, x[ch].view(real)).view(x.dtype)
    return buf[:, :f]


def fuse(z_stft: np.ndarray, z_gamma: np.ndarray | None, p: EncoderParams,
         out: np.ndarray) -> np.ndarray:
    """Attention fusion: Z_stft gated by sigmoid(Conv(|Z_gamma|)), the conv
    a real ``clinear``, so each frequency row depends on that row alone.

    The gate is real in (0, 1) and broadcast over re/im, so the fused path
    is phase-transparent. Without a gammatone stream (z_gamma None, the
    no_gammatone ablation) the gate collapses to a constant per-channel
    scale sigmoid(bias). ``out`` receives the result and is returned; it may
    be z_gamma itself, as the whole gate is read before the product is written.
    """
    c = z_stft.shape[0]
    if p.fusion.weight.shape != (c, c):
        raise ShapeMismatch(f"fusion conv expects ({c}, {c}) weights, got {p.fusion.weight.shape}")
    if z_gamma is None:
        return np.multiply(z_stft, sigmoid(p.fusion.bias)[:, None, None], out=out)
    if z_gamma.shape != z_stft.shape:
        raise ShapeMismatch(
            f"stream shapes differ after projection: {z_stft.shape} vs {z_gamma.shape}"
        )
    pre = clinear(np.abs(z_gamma), p.fusion)
    return np.multiply(z_stft, sigmoid(pre, out=pre), out=out)


def recalibrate(z_attended: np.ndarray, p: EncoderParams, excitation: np.ndarray) -> np.ndarray:
    """Channel recalibration by complex squeeze-and-excitation: a real,
    positive, phase-preserving scale per channel of z_attended (C, F, T).

    ``excitation`` (C,) is ``complex_ops.cse_excitation`` of the squeeze,
    the mean magnitude over (frequency, time) per channel, of the whole
    tensor, so a caller that scales it a tile of frequency rows at a time
    scales each tile alike. The result keeps z_attended's dtype.
    """
    if z_attended.ndim != 3:
        raise ShapeMismatch(f"recalibrate expects (C, F, T), got {z_attended.shape}")
    c = z_attended.shape[0]
    if p.se.reduce.shape[1] != c:
        raise ShapeMismatch(f"SE reduce expects {p.se.reduce.shape[1]} channels, input has {c}")
    return np.multiply(z_attended, excitation[:, None, None], out=np.empty_like(z_attended))
