"""Decoder heads, the closed-form relative-transfer-function solve, the
per-frequency refinement gate, and output blending."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import workers
from .complex_ops import (CLinearParams, LightConvParams, clinear, lightconv, pooled_magnitude,
                          sigmoid)
from .errors import ShapeMismatch
from .frontend import Spectrogram


@dataclass
class RatfPair:
    """Relative acoustic transfer functions of speech and noise, (F, T)."""

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


def _halo(block: LightConvParams) -> int:
    return block.depthwise.shape[1] // 2 if block.depthwise.ndim == 3 else 0


def decode_heads(z_out: np.ndarray, p: DecoderParams, tiles: list[tuple[int, int]]) -> RatfPair:
    """Two independent stacks of 2D blocks estimating speech/noise RATFs.

    z_out (C, F, T) gives RATFs (F, T). The blocks run over ``tiles``, (lo,
    hi) frequency rows that cover 0 .. F in order (``[(0, F)]`` is one tile
    of every row), so each block's output exists only a few rows at a time.
    Block l reads h_l = k_f // 2 rows on either side of each output row (0
    for a time-only kernel), so once the tiles reach row ``end`` it has made
    its rows up to made(l, end) = F if end == F else max(0, end - (h_1 + ...
    + h_l)), and from the tile (lo, hi) on, block l + 1 reads block l's
    output from row max(0, made(l + 1, lo) - h_{l + 1}). At that tile block
    l computes rows made(l, lo) .. made(l, hi), so no row is computed twice.
    Block 1 reads z_out itself; each level but the last lives in one buffer
    per head, sized once from these two bounds over all tiles, to whose
    front each tile moves the rows that later tiles read. The last block's
    rows are projected straight into the RATF. Each head runs its own
    schedule and only reads z_out, so the heads run as independent units of
    the caller's plan (``workers.map``).
    """
    if z_out.ndim != 3:
        raise ShapeMismatch(f"expected (C, F, T), got {z_out.shape}")
    heads = [(p.head_s, p.head_s_proj), (p.head_n, p.head_n_proj)]
    w_s, w_n = workers.map(lambda head: _decode_head(z_out, *head, tiles), heads)
    return RatfPair(w_s=w_s, w_n=w_n)


def _decode_head(z_out, blocks, proj, tiles) -> np.ndarray:
    """One head's RATF (F, T): its blocks run on the lagged schedule, and
    ``clinear`` projects each tile's rows, exactly as it would all rows."""
    c, f, t = z_out.shape
    n = len(blocks)
    halos = [_halo(block) for block in blocks]

    def made(l, end):   # rows [0, made) of level l, the output of block l (level 0: z_out)
        return f if end == f else max(0, end - sum(halos[:l]))

    def keep(l, end):   # the first row of level l that block l + 1 reads from then on
        return max(0, made(l + 1, end) - halos[l])

    levels = [np.empty((c, max(made(l, hi) - keep(l, lo) for lo, hi in tiles), t), z_out.dtype)
              for l in range(1, n)]
    ratf = np.empty((f, t), np.result_type(z_out.dtype, proj.weight.dtype))
    for lo, hi in tiles:
        x, first = z_out, 0     # block l reads level l - 1 from its row ``first``
        for l, block in enumerate(blocks, 1):
            a, b = made(l, lo), made(l, hi)
            rows = (a - first, b - first)
            if l == n:
                clinear(lightconv(x, block, rows=rows), proj, out=ratf[np.newaxis, a:b])
            else:
                level = levels[l - 1][:, : b - keep(l, lo)]
                lightconv(x, block, rows=rows, out=level[:, a - keep(l, lo) :])
                x, first = level, keep(l, lo)
        for l, level in enumerate(levels, 1):   # the rows later tiles read go to the front
            shift = keep(l, hi) - keep(l, lo)
            level[:, : made(l, hi) - keep(l, hi)] = level[:, shift : made(l, hi) - keep(l, lo)]
    return ratf


def ratf_solve(y: Spectrogram, r: RatfPair, eps: float) -> Spectrogram:
    """Closed-form binaural solve with the right ear as reference.

    S_R = (Y_L - W_n Y_R)(W_s - W_n)* / (|W_s - W_n|^2 + eps);  S_L = W_s S_R.

    The denominator uses the squared magnitude of the complex difference,
    which makes the quotient a regularized complex division; the pipeline
    passes ``RunConfig.eps_ratf``.
    """
    w_s = np.asarray(r.w_s)
    w_n = np.asarray(r.w_n)
    if not w_s.shape == w_n.shape == y.bins.shape[1:]:
        raise ShapeMismatch(
            f"RATF shapes {w_s.shape}, {w_n.shape} inconsistent with spectrogram {y.bins.shape}"
        )
    y_l, y_r = y.bins[0], y.bins[1]
    diff = w_s - w_n
    numer = (y_l - w_n * y_r) * np.conj(diff)
    s_r = numer / (np.abs(diff) ** 2 + eps)
    s_l = w_s * s_r
    return Spectrogram(np.stack([s_l, s_r]), y.config)


def refinement_gate(z_out: np.ndarray, p: DecoderParams) -> np.ndarray:
    """Per-frequency confidence gate g = sigmoid(conv1x1(avgpool_T |Z|)).

    z_out (C, F, T) gives (F,) values in (0, 1); depends on the input only
    through its ``pooled_magnitude``, so each row's gate on that row alone.
    """
    if z_out.ndim != 3:
        raise ShapeMismatch(f"expected (C, F, T), got {z_out.shape}")
    if p.drg_weight.shape[0] != z_out.shape[0]:
        raise ShapeMismatch(
            f"gate conv expects {p.drg_weight.shape[0]} channels, got {z_out.shape[0]}"
        )
    pre = np.einsum("fc,c->f", pooled_magnitude(z_out), p.drg_weight) + float(p.drg_bias)
    return sigmoid(pre, out=pre)


def global_gate(p: DecoderParams) -> np.ndarray:
    """Input-independent learned per-frequency gate (ablation variant)."""
    return sigmoid(p.drg_global)


def blend(s_hat: Spectrogram, y: Spectrogram, g: np.ndarray) -> Spectrogram:
    """Convex per-frequency blend of enhanced and noisy spectrograms.

    g is (F,) and broadcasts identically to both ears and all frames:
    out_i = g * S_hat_i + (1 - g) * Y_i.
    """
    if s_hat.bins.shape != y.bins.shape:
        raise ShapeMismatch(f"spectrograms differ: {s_hat.bins.shape} vs {y.bins.shape}")
    g = np.asarray(g)
    f = y.bins.shape[1]
    if g.shape != (f,):
        raise ShapeMismatch(f"gate shape {g.shape} does not match F={f}")
    gg = g[None, :, None]
    return Spectrogram(gg * s_hat.bins + (1.0 - gg) * y.bins, y.config)
