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
from .frontend import Spectrogram


@dataclass
class EncoderParams:
    stft_blocks: list[LightConvParams]    # M blocks: 2 -> C, then C -> C
    gamma_blocks: list[LightConvParams]   # M blocks on the gammatone stream
    gamma_proj: np.ndarray                # real (F, n_gammatone) feature-axis map
    fusion_weight: np.ndarray             # real (C, C) 1x1 conv over channels
    fusion_bias: np.ndarray               # real (C,)
    se: CSEParams


def encode_stft(y: Spectrogram, p: EncoderParams) -> np.ndarray:
    """Encode the STFT stream: (2, F, T) bins -> (1, C, F, T) features."""
    x = y.bins[np.newaxis, :, :, :]       # ears as channels, batch of 1
    for block in p.stft_blocks:
        x = lightconv(x, block)
    return x


def encode_gamma(g: np.ndarray, p: EncoderParams) -> np.ndarray:
    """Encode gammatone frames (2, n_gamma, T) -> (1, C, F, T).

    The blocks run on the gammatone feature axis; a fixed real linear map
    then projects that axis onto the F STFT bins so the attention map is
    per-(channel, frequency, time).
    """
    if g.ndim != 3 or g.shape[0] != 2:
        raise ShapeMismatch(f"expected gammatone frames (2, n_gamma, T), got {g.shape}")
    x = g[np.newaxis, :, :, :]
    for block in p.gamma_blocks:
        x = lightconv(x, block)
    if p.gamma_proj.shape[1] != x.shape[2]:
        raise ShapeMismatch(
            f"gamma projection expects {p.gamma_proj.shape[1]} features, got {x.shape[2]}"
        )
    proj = p.gamma_proj.astype(x.dtype)
    return np.matmul(proj, x)  # (F, G) @ (B, C, G, T) -> (B, C, F, T)


def fuse(
    z_stft: np.ndarray,
    z_gamma: np.ndarray | None,
    p: EncoderParams,
    no_gammatone: bool = False,
) -> np.ndarray:
    """Attention fusion: Z_stft gated by sigmoid(Conv(|Z_gamma|)).

    The gate is real in (0, 1) and broadcast over re/im, so the fused path
    is phase-transparent. Under the no_gammatone ablation the gate collapses
    to a constant per-channel scale sigmoid(bias).
    """
    c = z_stft.shape[1]
    if p.fusion_weight.shape != (c, c):
        raise ShapeMismatch(
            f"fusion conv expects ({c}, {c}) weights, got {p.fusion_weight.shape}"
        )
    if no_gammatone:
        a = 1.0 / (1.0 + np.exp(-p.fusion_bias))
        return z_stft * a[None, :, None, None]
    if z_gamma is None:
        raise ShapeMismatch("gammatone features required unless no_gammatone is set")
    if z_gamma.shape != z_stft.shape:
        raise ShapeMismatch(
            f"stream shapes differ after projection: {z_stft.shape} vs {z_gamma.shape}"
        )
    mag = np.abs(z_gamma)
    w = p.fusion_weight.astype(mag.dtype, copy=False)
    pre = np.matmul(w, mag.reshape(mag.shape[0], c, -1)).reshape(mag.shape)
    pre = pre + p.fusion_bias[None, :, None, None]
    a = 1.0 / (1.0 + np.exp(-pre))
    return z_stft * a


def recalibrate(z_attended: np.ndarray, p: EncoderParams) -> np.ndarray:
    """Channel recalibration through the complex squeeze-and-excitation block."""
    return cse(z_attended, p.se)
