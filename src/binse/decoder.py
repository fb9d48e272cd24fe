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


class _Window:
    """The rows [first, first + count) of one level of a head that later
    tiles still read, kept at the front of a buffer reused tile to tile."""

    def __init__(self):
        self.buf, self.first, self.count = None, 0, 0

    @property
    def rows(self) -> np.ndarray:
        return self.buf[:, : self.count]

    def extend(self, keep: int, n_new: int, like: np.ndarray) -> np.ndarray:
        """Drop the rows before row ``keep`` and return the view into which
        the next ``n_new`` rows of the level go, shaped like ``like``."""
        kept = self.first + self.count - keep
        old = self.buf
        if old is None or old.shape[1] < kept + n_new:
            self.buf = np.empty(like.shape[:1] + (kept + n_new,) + like.shape[2:], like.dtype)
        if kept:
            self.buf[:, :kept] = old[:, keep - self.first : self.count]
        self.first, self.count = keep, kept + n_new
        return self.buf[:, kept : self.count]


def _halo(block: LightConvParams) -> int:
    return block.depthwise.shape[1] // 2 if block.depthwise.ndim == 3 else 0


def decode_heads(z_out: np.ndarray, p: DecoderParams, tiles: list[tuple[int, int]]) -> RatfPair:
    """Two independent stacks of 2D blocks estimating speech/noise RATFs.

    z_out (C, F, T) gives RATFs (F, T). The blocks run over ``tiles``,
    ascending (lo, hi) frequency rows that end at F (``[(0, F)]`` is one
    tile of every row), so each block's output exists only a few rows at a
    time. A 2-D block reads k_f // 2 rows on either side of each output row,
    so at the tile ending at row hi, block l makes its rows up to the halos
    of blocks 1 .. l short of hi, and the last tile completes every row. Block 1
    reads z_out itself; each deeper level keeps in a ``_Window`` the rows of
    its output that the next block still reads, and no row is computed
    twice. Each head runs its own schedule and only reads z_out, so the heads
    run as independent units on the worker pool (``workers.map``).
    """
    if z_out.ndim != 3:
        raise ShapeMismatch(f"expected (C, F, T), got {z_out.shape}")
    heads = [(p.head_s, p.head_s_proj), (p.head_n, p.head_n_proj)]
    w_s, w_n = workers.map(lambda head: _decode_head(z_out, *head, tiles), heads)
    return RatfPair(w_s=w_s, w_n=w_n)


def _decode_head(z_out, blocks, proj, tiles) -> np.ndarray:
    """One head's RATF (F, T): its blocks run on the lagged schedule, and
    ``clinear`` projects each tile's rows, exactly as it would all rows."""
    f, t = z_out.shape[1:]
    n = len(blocks)
    ratf = np.empty((f, t), np.result_type(z_out.dtype, proj.weight.dtype))
    levels = [_Window() for _ in range(n - 1)]  # level l is the output of block l
    made = [0] * (n + 1)            # rows made so far at each level; level 0 is z_out
    for _, hi in tiles:
        # rows each level can reach: its input's end less its halo, or all of them
        stops = [hi]
        for block in blocks:
            stops.append(f if stops[-1] == f else max(0, stops[-1] - _halo(block)))
        src, first = z_out, 0
        for l, block in enumerate(blocks):
            a, b = made[l + 1], stops[l + 1]
            out = None
            if l + 1 < n:
                # from the first row of it that block l + 2 reads, at this tile or later
                keep = max(0, made[l + 2] - _halo(blocks[l + 1]))
                out = levels[l].extend(keep, b - a, src)
            x = lightconv(src, block, rows=(a - first, b - first), out=out)
            if out is not None:
                src, first = levels[l].rows, levels[l].first
        ratf[made[n] : stops[n]] = clinear(x, proj)[0]
        made = stops
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
