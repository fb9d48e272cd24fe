"""Decoder heads, the closed-form relative-transfer-function solve, the
per-frequency refinement gate, and output blending."""

from __future__ import annotations

from dataclasses import dataclass, field

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


class _Window:
    """The rows [first, first + count) of one level of a head that later
    bands still read, kept at the front of a buffer reused band to band."""

    def __init__(self):
        self.buf, self.first, self.count = None, 0, 0

    @property
    def rows(self) -> np.ndarray:
        return self.buf[:, :, : self.count]

    def extend(self, keep: int, n_new: int, like: np.ndarray) -> np.ndarray:
        """Drop the rows before row ``keep`` and return the view into which
        the next ``n_new`` rows of the level go, shaped like ``like``."""
        kept = self.first + self.count - keep
        old = self.buf
        if old is None or old.shape[2] < kept + n_new:
            self.buf = np.empty(like.shape[:2] + (kept + n_new,) + like.shape[3:], like.dtype)
        if kept:
            self.buf[:, :, :kept] = old[:, :, keep - self.first : self.count]
        self.first, self.count = keep, kept + n_new
        return self.buf[:, :, kept : self.count]


@dataclass
class HeadStream:
    """How far ``decode_heads`` has got through a tensor of ``n_rows``
    frequency rows that it is handed in bands, top down.

    ``made[l]`` is the number of rows made so far at level l: level 0 is
    z_out, level l the output of block l. ``windows[i][l]`` holds the rows of
    level l that block l + 1 of head i still reads; both heads share level 0.
    """

    n_rows: int
    made: list[int] = field(default_factory=list)
    windows: list[list[_Window]] = field(default_factory=list)


def _halo(block: LightConvParams) -> int:
    return block.depthwise.shape[1] // 2 if block.depthwise.ndim == 3 else 0


def decode_heads(
    z_out: np.ndarray, p: DecoderParams, stream: HeadStream | None = None
) -> RatfPair:
    """Two independent stacks of 2D blocks estimating speech/noise RATFs.

    z_out (B, C, F, T) gives RATFs (B, F, T). With a ``stream``, z_out is
    instead the next band of rows of a tensor fed top down, and the call
    returns the RATF rows that band completes, from where the last call
    stopped. A 2-D block reads k_f // 2 rows on either side of each output
    row, so each block's rows lag the rows of its input by that halo; each
    level keeps the halo rows it still owes the next band, and no row is
    computed twice. The band that reaches the last row completes every row.
    The two heads have blocks of the same kernel shapes.
    """
    if z_out.ndim != 4:
        raise ShapeMismatch(f"expected (B, C, F, T), got {z_out.shape}")
    heads = [(p.head_s, p.head_s_proj), (p.head_n, p.head_n_proj)]
    n = len(p.head_s)
    if stream is None:
        stream = HeadStream(z_out.shape[2])
    if not stream.made:
        stream.made = [0] * (n + 1)
        shared = _Window()
        stream.windows = [[shared] + [_Window() for _ in range(n - 1)] for _ in heads]
    made = stream.made
    # rows each level can reach: its input's end less its halo, or all of them
    stops = [made[0] + z_out.shape[2]]
    for block in p.head_s:
        last = stops[-1] == stream.n_rows
        stops.append(stream.n_rows if last else max(0, stops[-1] - _halo(block)))
    # the first row of each level that this band's blocks read
    keeps = [max(0, made[l + 1] - _halo(block)) for l, block in enumerate(p.head_s)]
    if n:
        stream.windows[0][0].extend(keeps[0], z_out.shape[2], z_out)[...] = z_out
    ratfs = []
    for (blocks, proj), windows in zip(heads, stream.windows):
        x = z_out
        for l, block in enumerate(blocks):
            a, b = made[l + 1], stops[l + 1]
            src = windows[l]
            out = windows[l + 1].extend(keeps[l + 1], b - a, src.buf) if l + 1 < n else None
            x = lightconv(src.rows, block, rows=(a - src.first, b - src.first), out=out)
        ratfs.append(clinear(x, proj, axis=1)[:, 0, :, :])
    stream.made = stops
    return RatfPair(w_s=ratfs[0], w_n=ratfs[1])


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
    return Spectrogram(np.stack([s_l, s_r]), y.config, y.f0)


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
    out_i = g * S_hat_i + (1 - g) * Y_i. Two bands of the grid blend with
    the rows of g they hold.
    """
    if s_hat.bins.shape != y.bins.shape or s_hat.rows != y.rows:
        raise ShapeMismatch(
            f"spectrograms differ: {s_hat.bins.shape} at rows {s_hat.rows} "
            f"vs {y.bins.shape} at rows {y.rows}"
        )
    g = np.asarray(g)
    if g.ndim == 2 and g.shape[0] == 1:
        g = g[0]
    f = y.config.n_freq_bins
    if g.shape != (f,):
        raise ShapeMismatch(f"gate shape {g.shape} does not match F={f}")
    lo, hi = y.rows
    gg = g[None, lo:hi, None]
    return Spectrogram(gg * s_hat.bins + (1.0 - gg) * y.bins, y.config, y.f0)
