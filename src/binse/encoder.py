"""Dual-stream encoding and attention fusion.

Both ears enter as channels, so the encoders see the binaural pair jointly
and all gates stay real-positive; interaural information lives in the
complex values and is never rotated by this stage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complex_ops import CSEParams, LightConvParams, cse, lightconv
from .errors import ShapeMismatch


@dataclass
class EncoderParams:
    stft_blocks: list[LightConvParams]    # M blocks: 2 -> C, then C -> C
    gamma_blocks: list[LightConvParams]   # M blocks on the gammatone stream
    gamma_proj: np.ndarray                # real (F, n_gammatone) feature-axis map
    fusion_weight: np.ndarray             # real (C, C) 1x1 conv over channels
    fusion_bias: np.ndarray               # real (C,)
    se: CSEParams


def encode_stft(bins: np.ndarray, p: EncoderParams) -> np.ndarray:
    """Encode the STFT stream: bins (2, rows, T) -> (1, C, rows, T).

    The blocks are 1-D in time, so any rows of the spectrogram encode alone.
    """
    if bins.ndim != 3 or bins.shape[0] != 2:
        raise ShapeMismatch(f"expected STFT bins (2, rows, T), got {bins.shape}")
    x = bins[np.newaxis, :, :, :]         # ears as channels, batch of 1
    for block in p.stft_blocks:
        x = lightconv(x, block)
    return x


def encode_gamma(
    g: np.ndarray, p: EncoderParams, tiles: list[tuple[int, int]] | None = None
) -> np.ndarray:
    """Encode gammatone frames (2, n_gamma, T) -> (1, C, F, T).

    The blocks run on the gammatone feature axis, each band alone, so both
    blocks run per tile of ``tiles``, (lo, hi) bands (default: one tile of
    every band), into one (1, C, n_gamma, T) buffer. A fixed real linear map
    then projects that axis onto the F STFT bins so the attention map is
    per-(channel, frequency, time).
    """
    if g.ndim != 3 or g.shape[0] != 2:
        raise ShapeMismatch(f"expected gammatone frames (2, n_gamma, T), got {g.shape}")
    if p.gamma_proj.shape[1] != g.shape[1]:
        raise ShapeMismatch(
            f"gamma projection expects {p.gamma_proj.shape[1]} features, got {g.shape[1]}"
        )
    x = None
    for lo, hi in tiles or [(0, g.shape[1])]:
        band = g[np.newaxis, :, lo:hi]
        for block in p.gamma_blocks:
            band = lightconv(band, block)
        if x is None:
            x = np.empty(band.shape[:2] + g.shape[1:], band.dtype)
        x[:, :, lo:hi] = band
    # the real map acts on re and im alike: one real matmul on the float view,
    # whose trailing axis interleaves (re, im) over T
    real = x.real.dtype
    proj = p.gamma_proj.astype(real, copy=False)
    return np.matmul(proj, x.view(real)).view(x.dtype)  # (F, G) @ (B, C, G, 2T)


def fuse(
    z_stft: np.ndarray,
    z_gamma: np.ndarray | None,
    p: EncoderParams,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Attention fusion: Z_stft gated by sigmoid(Conv(|Z_gamma|)).

    The gate is real in (0, 1) and broadcast over re/im, so the fused path
    is phase-transparent. Without a gammatone stream (z_gamma None, the
    no_gammatone ablation) the gate collapses to a constant per-channel
    scale sigmoid(bias). ``out``, if given, receives the result; it may be
    z_gamma itself, as the whole gate is read before the product is written.
    """
    c = z_stft.shape[1]
    if p.fusion_weight.shape != (c, c):
        raise ShapeMismatch(
            f"fusion conv expects ({c}, {c}) weights, got {p.fusion_weight.shape}"
        )
    if z_gamma is None:
        a = 1.0 / (1.0 + np.exp(-p.fusion_bias))
        return np.multiply(z_stft, a[None, :, None, None], out=out)
    if z_gamma.shape != z_stft.shape:
        raise ShapeMismatch(
            f"stream shapes differ after projection: {z_stft.shape} vs {z_gamma.shape}"
        )
    mag = np.abs(z_gamma)
    w = p.fusion_weight.astype(mag.dtype, copy=False)
    pre = np.matmul(w, mag.reshape(mag.shape[0], c, -1))
    pre = pre + p.fusion_bias[:, np.newaxis]
    np.negative(pre, out=pre)
    np.exp(pre, out=pre)
    np.add(1.0, pre, out=pre)
    np.divide(1.0, pre, out=pre)
    return np.multiply(z_stft, pre.reshape(mag.shape), out=out)


def recalibrate(
    z_attended: np.ndarray, p: EncoderParams, excitation: np.ndarray | None = None
) -> np.ndarray:
    """Channel recalibration through the complex squeeze-and-excitation block.

    ``excitation`` is passed when z_attended is a tile of frequency rows
    of the tensor the squeeze ran over (see ``complex_ops.cse``).
    """
    return cse(z_attended, p.se, excitation)
