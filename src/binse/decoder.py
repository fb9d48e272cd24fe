"""Decoder heads, the closed-form relative-transfer-function solve, the
per-frequency refinement gate, and output blending."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complex_ops import CLinearParams, LightConvParams, clinear, lightconv
from .errors import ShapeMismatch
from .frontend import Spectrogram


@dataclass
class RatfPair:
    """Relative acoustic transfer functions of speech and noise, (B, F, T)."""

    w_s: np.ndarray
    w_n: np.ndarray


@dataclass
class DecoderParams:
    head_s: list[LightConvParams]   # N 2D blocks, C -> C
    head_s_proj: CLinearParams      # complex C -> 1
    head_n: list[LightConvParams]
    head_n_proj: CLinearParams
    drg_weight: np.ndarray          # real (C,) 1x1 conv to one channel
    drg_bias: np.ndarray            # real scalar
    drg_global: np.ndarray          # real (F,), used only under global_drg
    eps: float = 1e-8


def _run_head(z: np.ndarray, blocks: list[LightConvParams], proj: CLinearParams) -> np.ndarray:
    x = z
    for block in blocks:
        x = lightconv(x, block)
    return clinear(x, proj, axis=1)[:, 0, :, :]


def decode_heads(z_out: np.ndarray, p: DecoderParams) -> RatfPair:
    """Two independent stacks of 2D blocks estimating speech/noise RATFs."""
    if z_out.ndim != 4:
        raise ShapeMismatch(f"expected (B, C, F, T), got {z_out.shape}")
    return RatfPair(
        w_s=_run_head(z_out, p.head_s, p.head_s_proj),
        w_n=_run_head(z_out, p.head_n, p.head_n_proj),
    )


def ratf_solve(
    y: Spectrogram,
    r: RatfPair,
    eps: float = 1e-8,
    literal_square: bool = False,
) -> Spectrogram:
    """Closed-form binaural solve with the right ear as reference.

    S_R = (Y_L - W_n Y_R)(W_s - W_n)* / (|W_s - W_n|^2 + eps);  S_L = W_s S_R.

    The denominator uses the squared magnitude of the complex difference,
    which makes the quotient a regularized complex division; the literal
    complex-square reading is kept behind ``literal_square`` for comparison.
    """
    w_s = np.asarray(r.w_s)
    w_n = np.asarray(r.w_n)
    if w_s.ndim == 3:
        if w_s.shape[0] != 1:
            raise ShapeMismatch("ratf_solve operates on a single utterance")
        w_s, w_n = w_s[0], w_n[0]
    if w_s.shape != y.bins.shape[1:]:
        raise ShapeMismatch(
            f"RATF shape {w_s.shape} inconsistent with spectrogram {y.bins.shape}"
        )
    y_l, y_r = y.bins[0], y.bins[1]
    diff = w_s - w_n
    numer = (y_l - w_n * y_r) * np.conj(diff)
    if literal_square:
        denom = diff * diff + eps
    else:
        denom = np.abs(diff) ** 2 + eps
    s_r = numer / denom
    s_l = w_s * s_r
    return Spectrogram(np.stack([s_l, s_r]), y.config)


def refinement_gate(z_out: np.ndarray, p: DecoderParams) -> np.ndarray:
    """Per-frequency confidence gate g = sigmoid(conv1x1(avgpool_T |Z|)).

    Returns (B, F) values in (0, 1); depends on the input only through its
    time-averaged channel magnitudes.
    """
    if z_out.ndim != 4:
        raise ShapeMismatch(f"expected (B, C, F, T), got {z_out.shape}")
    if p.drg_weight.shape[0] != z_out.shape[1]:
        raise ShapeMismatch(
            f"gate conv expects {p.drg_weight.shape[0]} channels, got {z_out.shape[1]}"
        )
    pooled = np.mean(np.abs(z_out), axis=-1)        # (B, C, F)
    pre = np.einsum("c,bcf->bf", p.drg_weight, pooled) + float(p.drg_bias)
    return 1.0 / (1.0 + np.exp(-pre))


def global_gate(p: DecoderParams) -> np.ndarray:
    """Input-independent learned per-frequency gate (ablation variant)."""
    return 1.0 / (1.0 + np.exp(-p.drg_global))


def blend(s_hat: Spectrogram, y: Spectrogram, g: np.ndarray) -> Spectrogram:
    """Convex per-frequency blend of enhanced and noisy spectrograms.

    g is (F,) and broadcasts identically to both ears and all frames:
    out_i = g * S_hat_i + (1 - g) * Y_i.
    """
    if s_hat.bins.shape != y.bins.shape:
        raise ShapeMismatch(
            f"spectrogram shapes differ: {s_hat.bins.shape} vs {y.bins.shape}"
        )
    g = np.asarray(g)
    if g.ndim == 2 and g.shape[0] == 1:
        g = g[0]
    if g.shape != (y.bins.shape[1],):
        raise ShapeMismatch(f"gate shape {g.shape} does not match F={y.bins.shape[1]}")
    gg = g[None, :, None]
    return Spectrogram(gg * s_hat.bins + (1.0 - gg) * y.bins, y.config)
