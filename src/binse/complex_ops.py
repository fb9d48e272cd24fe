"""Complex-valued neural kernels: linear, layer norm, PReLU, depthwise
separable ("light") convolution blocks, and the squeeze-and-excitation
scale. Inference only: there is no dropout.

One layout: the network enhances one utterance at a time, so every kernel
takes complex x of shape (C, F, T), channels on axis 0, as the plan's
(C, rows, T) tiles and ``frontend.stft``'s (2, F, T) bins are. Parameter
containers are plain dataclasses of ndarrays, read-only in ``params``' trees.

Each operation the network repeats is one kernel here: ``clinear`` (every
channel product), ``sigmoid`` (every gate), ``prelu``/``cprelu`` and
``pooled_magnitude``. Each computes a frequency row from that row alone, so
on any rows of x, at every shape, it gives those rows of its whole-x result.

Execution contract. ``cln``, ``cprelu`` and ``prelu`` work in place: they
overwrite their input, whose last axis must have unit stride, and return it,
as ``sigmoid(x, out=x)`` does. No other public function mutates its input;
``clinear`` and ``lightconv`` take an optional ``out`` array for their
result. ``lightconv`` is the one block entry point; the rank of the
depthwise kernel selects a time-only or a (frequency, time) conv. Callers
pass the rows: ``lightconv(x, p, rows=(lo, hi))`` computes rows lo:hi in
one pass, with ``k_f // 2`` halo rows on either side (2-D kernels), writing
its depthwise sum, pointwise mix, norm, PReLU and residual into one output,
so its temporaries are the size of the rows it is handed. The depthwise
conv runs its taps over channel groups of about ``_DEPTHWISE_GROUP_BYTES``,
to stay in L2. The kernels keep their module-level names and are looked up
as module globals on every call, so a wrapper bound to one sees every call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, ShapeMismatch

# Output bytes per depthwise channel group, so that a group's output, scratch
# and input rows stay in a core's L2 while all of its taps are summed.
_DEPTHWISE_GROUP_BYTES = 512 << 10


@dataclass
class CLinearParams:
    weight: np.ndarray   # complex (out, in)
    bias: np.ndarray     # complex (out,)


@dataclass
class CLayerNormParams:
    gamma: np.ndarray    # complex (C,)
    beta: np.ndarray     # complex (C,)


@dataclass
class LightConvParams:
    """Depthwise complex conv + pointwise mix + complex LN + complex PReLU.

    depthwise: complex (C_in, k) for 1D blocks or (C_in, k_f, k_t) for 2D.
    The residual connection is applied only when C_in == C_out.
    """

    depthwise: np.ndarray
    pointwise: CLinearParams
    norm: CLayerNormParams
    prelu_slope: np.ndarray   # real scalar (0-d array), shared by re and im


@dataclass
class CSEParams:
    reduce: np.ndarray   # real (C // r, C)
    expand: np.ndarray   # real (C, C // r)


def clinear(x: np.ndarray, p: CLinearParams, out: np.ndarray | None = None) -> np.ndarray:
    """Affine map y = W x + b over the channels of x (C_in, F, T), complex
    or real, computed in the result type of x and W.

    One (C_out, C_in) @ (C_in, T) BLAS product per frequency row, in one
    numpy call, so a row's result does not depend on the other rows of x.
    ``out``, if given, receives y.
    """
    if x.ndim != 3:
        raise ShapeMismatch(f"linear map expects (C, F, T), got {x.shape}")
    c_in = x.shape[0]
    if c_in != p.weight.shape[1]:
        raise ShapeMismatch(f"input has {c_in} channels, weight expects {p.weight.shape[1]}")
    dtype = np.result_type(x.dtype, p.weight.dtype)
    if out is None:
        out = np.empty(p.weight.shape[:1] + x.shape[1:], dtype)
    rows = x.astype(dtype, copy=False).transpose(1, 0, 2)
    if out.shape[0] == x.shape[2] == 1:     # a BLAS dot, summed in an order set by
        rows = np.ascontiguousarray(rows)   # the stride: give every row unit stride
    np.matmul(p.weight.astype(dtype, copy=False), rows, out=out.transpose(1, 0, 2))
    out += p.bias[:, np.newaxis, np.newaxis]
    return out


def cln(x: np.ndarray, p: CLayerNormParams) -> np.ndarray:
    """Complex layer norm over the channels of x (C, F, T), in place.

    The complex mean is removed per position and the centered values are
    divided by sqrt(E[|x - mu|^2] + 1e-5) -- a single real scale shared by
    the real and imaginary parts -- before the complex affine (gamma, beta).
    x, whose last axis must have unit stride, receives the result and is
    returned. A non-finite variance (x overflowing its dtype, or not finite)
    raises InvariantViolation.
    """
    # channel means of the (re, im) floats: a last axis of 2T >= 2 keeps numpy
    # summing channels in one order for any rows (one complex value: pairwise)
    v = x.view(x.real.dtype)
    v -= np.mean(v, axis=0, keepdims=True)
    moments = np.mean(np.square(v), axis=0, keepdims=True)     # E[re^2], E[im^2]
    scale = moments[..., 0::2] + moments[..., 1::2] + 1e-5
    if not np.all(np.isfinite(scale)):
        raise InvariantViolation(f"non-finite variance in cln: input overflows {x.dtype}")
    np.sqrt(scale, out=scale)
    np.reciprocal(scale, out=scale)
    v *= np.repeat(scale, 2, axis=-1)       # one real product per float
    x *= p.gamma[:, np.newaxis, np.newaxis]
    x += p.beta[:, np.newaxis, np.newaxis]
    return x


def prelu(v: np.ndarray, slope) -> np.ndarray:
    """PReLU of real v in place, as max(v, slope * v) (min for slope > 1),
    which equals where(v >= 0, v, slope * v) to the bit; returns v."""
    s = float(slope)
    (np.maximum if s <= 1.0 else np.minimum)(v, v * s, out=v)
    return v


def cprelu(x: np.ndarray, slope) -> np.ndarray:
    """``prelu`` of the real and imaginary parts with a shared slope, in
    place on complex x, whose last axis must have unit stride; returns x."""
    prelu(x.view(x.real.dtype), slope)
    return x


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The logistic 1 / (1 + exp(-x)) to the bit, into ``out`` if given (x allowed)."""
    out = np.negative(x, out=out)
    np.exp(out, out=out)
    return np.divide(1.0, np.add(1.0, out, out=out), out=out)


def pooled_magnitude(z: np.ndarray) -> np.ndarray:
    """mean_T |z| of z (C, F, T) as a C-contiguous (F, C) array, F ahead of
    C so that a product over channels sums each row in one order for any F."""
    return np.ascontiguousarray(np.mean(np.abs(z), axis=-1).T)


def _depthwise_conv(x: np.ndarray, kernel: np.ndarray, rows: tuple[int, int]) -> np.ndarray:
    """Zero-padded same-size depthwise correlation of x (C, F, T): output
    frequency rows ``rows=(lo, hi)``, as a (C, hi - lo, T) array.

    kernel (C, k) correlates along time only; kernel (C, k_f, k_t) along
    (frequency, time). y[t] = sum_j h[j] x[t + j - k//2].

    Input rows lo - k_f//2 .. hi + k_f//2 (the halo) are read, and rows
    outside x are taken as zero. No padded copy of x is made: each
    (frequency, time) plane is read flat, so every tap is one contiguous
    shifted run, and the products a time shift carries across a row end are
    zeroed. Taps are summed in kernel order, the order of the padded formula,
    so the result equals it: the first tap of a channel group is written
    into the output, zero where it does not reach, and each later one is
    added through one reused scratch array. The centre tap reaches every
    output, so every group has a first tap.
    """
    c, f, t = x.shape
    if kernel.shape[0] != c:
        raise ShapeMismatch(f"depthwise kernel for {kernel.shape[0]} channels, input has {c}")
    if kernel.ndim == 2:
        kernel = kernel[:, np.newaxis, :]
    elif kernel.ndim != 3:
        raise ShapeMismatch(f"unsupported depthwise kernel ndim {kernel.ndim}")
    lo, hi = rows
    kf, kt = kernel.shape[1:]
    pf, pt = kf // 2, kt // 2
    flat = x.reshape(c, f * t)
    start, stop = lo * t, hi * t
    n = stop - start
    out = np.empty((c, n), np.result_type(x.dtype, kernel.dtype))
    # channels are independent: run every tap on a cache-sized channel group
    group = min(c, max(1, _DEPTHWISE_GROUP_BYTES // max(1, n * out.itemsize)))
    scratch = np.empty((group, n), out.dtype)
    for c0 in range(0, c, group):
        c1 = min(c, c0 + group)
        acc, src, part = out[c0:c1], flat[c0:c1], scratch[: c1 - c0]
        first = True
        taps = kernel[c0:c1, :, :, np.newaxis]      # (group, kf, kt, 1)
        for jf in range(kf):
            for jt in range(kt):
                df, dt = jf - pf, jt - pt
                shift = df * t + dt
                a, z = max(start, -shift), min(stop, f * t - shift)
                if abs(dt) >= t or a >= z:
                    continue
                # the first tap goes straight into the accumulator, zeroed
                # where it does not reach; later ones through the scratch
                into = acc if first else part
                if first:
                    acc[:, : a - start] = 0
                    acc[:, z - start :] = 0
                tmp = into[:, a - start : z - start]
                np.multiply(taps[:, jf, jt], src[:, a + shift : z + shift], out=tmp)
                into_rows = into.reshape(c1 - c0, hi - lo, t)
                if dt > 0:
                    into_rows[..., t - dt :] = 0
                elif dt < 0:
                    into_rows[..., :-dt] = 0
                if not first:
                    acc[:, a - start : z - start] += tmp
                first = False
    return out.reshape(c, hi - lo, t)


def lightconv(
    x: np.ndarray,
    p: LightConvParams,
    rows: tuple[int, int] | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Light conv block on x (C, F, T): depthwise conv, pointwise mix,
    CLN, PReLU, residual.

    A (C, k) depthwise kernel convolves time only, each frequency row alone;
    a (C, k_f, k_t) kernel convolves (frequency, time).

    ``rows=(lo, hi)`` (default: every row) computes only output rows lo:hi,
    in one pass, as a (C_out, hi - lo, T) array. A 2-D kernel then reads
    the k_f // 2 rows on either side of them that x holds, and takes rows
    beyond x's edges as zero, so a caller holding some rows of a larger
    tensor gets that tensor's rows wherever x holds their halo. ``out``, if
    given, receives the result; its last axis must have unit stride.
    """
    if x.ndim != 3:
        raise ShapeMismatch(f"light conv expects (C, F, T), got {x.shape}")
    f = x.shape[1]
    lo, hi = (0, f) if rows is None else rows
    if not 0 <= lo <= hi <= f:
        raise ShapeMismatch(f"rows {rows} are not frequency rows of {x.shape}")
    out = clinear(_depthwise_conv(x, p.depthwise, (lo, hi)), p.pointwise, out=out)
    cln(out, p.norm)
    cprelu(out, p.prelu_slope)
    if out.shape[0] == x.shape[0]:
        out += x[:, lo:hi]
    return out


def cse_excitation(s: np.ndarray, p: CSEParams) -> np.ndarray:
    """The SE excitation sigmoid(expand @ relu(reduce @ s)) of the squeeze s
    (C,): a real, positive per-channel scale."""
    return sigmoid(np.maximum(s @ p.reduce.T, 0.0) @ p.expand.T)
