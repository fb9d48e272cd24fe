"""Complex-valued neural kernels: linear, layer norm, PReLU, depthwise
separable ("light") convolution blocks, and squeeze-and-excitation.
Inference only: there is no dropout.

All functions operate on complex ndarrays with the channel axis at
position 1, i.e. (B, C, T) or (B, C, F, T). Parameter containers are plain
dataclasses of ndarrays, immutable by convention.

Execution contract. No public function mutates its input. ``clinear``,
``cln`` and ``cprelu`` take an optional ``out`` array; passing the input
itself (``cln(y, p, out=y)``) runs them in place, which is how the light-conv
block uses them. ``lightconv`` is the one block entry point; the rank of the
depthwise kernel selects a 1-D (time) or 2-D (frequency, time) block. A
block runs over frequency tiles of about ``_TILE_BYTES`` of input, so its
temporaries are tile-sized, not utterance-sized: each tile reads its rows
plus ``k_f // 2`` halo rows on either side (2-D kernels only), and its
depthwise sum, pointwise mix, norm, PReLU and residual are written straight
into one preallocated output. The depthwise conv further runs its taps over
channel groups of about ``_DEPTHWISE_GROUP_BYTES``. Tiling changes no
elementwise arithmetic; only the BLAS product, whose summation order depends
on the tile width, may differ from the untiled block in the last bits. The
kernels keep their module-level names and are looked up as module globals on
every call, so a wrapper bound to one of those names sees every call.
``lightconv(x, p, rows=(lo, hi))`` runs the same tiles over output rows lo:hi
only, which is how the decoder runs a block a few rows at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch

# Input bytes per light-conv tile. Each temporary of a tile is about this
# size; smaller tiles measured slower on a 2 MB-L2 Xeon, as per-call costs
# and narrow BLAS products take over.
_TILE_BYTES = 4 << 20
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
    eps: float = 1e-5


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


def _fill(x: np.ndarray, out: np.ndarray | None, dtype) -> np.ndarray:
    """The array a kernel works in: out holding x, or a fresh copy of x."""
    if out is None:
        return np.array(x, dtype=dtype)
    if out is not x:
        np.copyto(out, x)
    return out


def clinear(
    x: np.ndarray, p: CLinearParams, axis: int = 1, out: np.ndarray | None = None
) -> np.ndarray:
    """Complex affine map y = W x + b along the given feature axis.

    One BLAS matrix product per batch item. ``out``, if given, receives y;
    its axes after the feature axis must merge into one without a copy.
    """
    x = np.asarray(x)
    if x.shape[axis] != p.weight.shape[1]:
        raise ShapeMismatch(
            f"feature axis {axis} has length {x.shape[axis]}, "
            f"weight expects {p.weight.shape[1]}"
        )
    moved = np.moveaxis(x, axis, 1)
    if moved.ndim == 1:
        y = p.weight @ moved + p.bias
        return y
    dtype = np.result_type(moved.dtype, p.weight.dtype)
    w = p.weight.astype(dtype, copy=False)
    c_out, c_in = w.shape
    if out is None:
        y = np.empty((moved.shape[0], c_out) + moved.shape[2:], dtype)
        out = np.moveaxis(y, 1, axis)
    else:
        y = np.moveaxis(out, axis, 1)
    for i in range(moved.shape[0]):
        dst = y[i].reshape(c_out, -1)
        if dst.size and not np.may_share_memory(dst, y):
            raise ValueError("clinear out must merge its trailing axes without a copy")
        np.matmul(w, moved[i].astype(dtype, copy=False).reshape(c_in, -1), out=dst)
    y += p.bias.reshape((1, -1) + (1,) * (moved.ndim - 2))
    return out


def cln(
    x: np.ndarray, p: CLayerNormParams, axis: int = 1, out: np.ndarray | None = None
) -> np.ndarray:
    """Complex layer norm over the channel axis.

    The complex mean is removed per position and the centered values are
    divided by sqrt(E[|x - mu|^2] + eps) -- a single real scale shared by
    the real and imaginary parts -- before the complex affine (gamma, beta).
    ``out`` (may be x itself) receives the result; its last axis must have
    unit stride.
    """
    x = np.asarray(x)
    y = _fill(x, out, np.result_type(x.dtype, p.gamma.dtype, p.beta.dtype, np.complex64))
    if axis < 0:
        axis += y.ndim
    y -= np.mean(y, axis=axis, keepdims=True)
    scale = np.abs(y)
    np.square(scale, out=scale)
    scale = np.mean(scale, axis=axis, keepdims=True)
    scale += p.eps
    np.sqrt(scale, out=scale)
    np.reciprocal(scale, out=scale)
    # real scale on the interleaved (re, im) floats: one real product each
    v = y.view(y.real.dtype)
    v *= scale if axis == y.ndim - 1 else np.repeat(scale, 2, axis=-1)
    shape = [1] * y.ndim
    shape[axis] = -1
    y *= p.gamma.reshape(shape)
    y += p.beta.reshape(shape)
    return y


def cprelu(x: np.ndarray, slope, out: np.ndarray | None = None) -> np.ndarray:
    """PReLU applied to real and imaginary parts with a shared slope.

    Computed as max(v, slope * v) on the real values (min for slope > 1),
    which equals where(v >= 0, v, slope * v) to the bit, in ``out`` (may be
    x itself; for complex data its last axis must have unit stride).
    """
    x = np.asarray(x)
    y = _fill(x, out, x.dtype)
    v = y.view(y.real.dtype) if np.iscomplexobj(y) else y
    s = float(slope)
    scaled = v * s
    (np.maximum if s <= 1.0 else np.minimum)(v, scaled, out=v)
    return y


def _depthwise_conv(
    x: np.ndarray, kernel: np.ndarray, rows: tuple[int, int] | None = None
) -> np.ndarray:
    """Zero-padded same-size depthwise correlation over the trailing axes.

    kernel (C, k) correlates along the last axis of x (B, C, T) or
    (B, C, F, T); kernel (C, k_f, k_t) correlates along the last two of
    x (B, C, F, T). y[t] = sum_j h[j] x[t + j - k//2].

    ``rows=(lo, hi)`` computes only frequency rows lo:hi of a 4-D output,
    reading input rows lo - k_f//2 .. hi + k_f//2 (the halo) and treating
    rows outside x as zero. No padded copy of x is made: each (frequency,
    time) plane is read flat, so every tap is one contiguous shifted run,
    and the products a time shift carries across a row end are zeroed.
    Taps are summed from zero in kernel order through one reused scratch
    array, the order of the padded formula, so the result is the same to
    the bit.
    """
    c = x.shape[1]
    if kernel.shape[0] != c:
        raise ShapeMismatch(f"depthwise kernel for {kernel.shape[0]} channels, input has {c}")
    if x.ndim not in (3, 4):
        raise ShapeMismatch(f"depthwise conv expects (B, C, T) or (B, C, F, T), got {x.shape}")
    if kernel.ndim == 2:
        kernel = kernel[:, np.newaxis, :]
    elif kernel.ndim == 3:
        if x.ndim != 4:
            raise ShapeMismatch("2D depthwise conv expects (B, C, F, T) input")
    else:
        raise ShapeMismatch(f"unsupported depthwise kernel ndim {kernel.ndim}")
    x4 = x if x.ndim == 4 else x[:, :, np.newaxis, :]
    b, _, f, t = x4.shape
    lo, hi = (0, f) if rows is None else rows
    kf, kt = kernel.shape[1:]
    pf, pt = kf // 2, kt // 2
    flat = x4.reshape(b, c, f * t)
    start, stop = lo * t, hi * t
    n = stop - start
    out = np.zeros((b, c, n), np.result_type(x4.dtype, kernel.dtype))
    # channels are independent: run every tap on a cache-sized channel group
    group = min(c, max(1, _DEPTHWISE_GROUP_BYTES // max(1, b * n * out.itemsize)))
    scratch = np.empty((b, group, n), out.dtype)
    for c0 in range(0, c, group):
        c1 = min(c, c0 + group)
        acc, src, tmp_all = out[:, c0:c1], flat[:, c0:c1], scratch[:, : c1 - c0]
        tmp_rows = tmp_all.reshape(b, c1 - c0, hi - lo, t)
        taps = kernel[np.newaxis, c0:c1, :, :, np.newaxis]      # (1, group, kf, kt, 1)
        for jf in range(kf):
            for jt in range(kt):
                df, dt = jf - pf, jt - pt
                shift = df * t + dt
                a, z = max(start, -shift), min(stop, f * t - shift)
                if abs(dt) >= t or a >= z:
                    continue
                tmp = tmp_all[:, :, a - start : z - start]
                np.multiply(taps[:, :, jf, jt], src[:, :, a + shift : z + shift], out=tmp)
                if dt > 0:
                    tmp_rows[..., t - dt :] = 0
                elif dt < 0:
                    tmp_rows[..., :-dt] = 0
                acc[:, :, a - start : z - start] += tmp
    out = out.reshape(b, c, hi - lo, t)
    return out if x.ndim == 4 else out[:, :, 0, :]


def lightconv(
    x: np.ndarray,
    p: LightConvParams,
    rows: tuple[int, int] | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Light conv block: depthwise conv, pointwise mix, CLN, PReLU, residual.

    A (C, k) depthwise kernel convolves the trailing (time) axis of x,
    (B, C, T) or (B, C, F, T), shared across frequencies; a (C, k_f, k_t)
    kernel convolves (frequency, time) of a (B, C, F, T) input.

    ``rows=(lo, hi)`` computes only output rows lo:hi of a 4-D x, as a
    (B, C_out, hi - lo, T) array. A 2-D kernel then reads the k_f // 2 rows
    on either side of them that x holds, and takes rows beyond x's edges as
    zero, so a caller holding some rows of a larger tensor gets that
    tensor's rows wherever x holds their halo. ``out``, if given, receives the
    result; each of its (frequency, time) planes must be contiguous.
    """
    if x.ndim not in (3, 4):
        raise ShapeMismatch(f"light conv expects (B, C, T) or (B, C, F, T), got {x.shape}")
    if p.depthwise.ndim == 3 and x.ndim != 4:
        raise ShapeMismatch("2D depthwise conv expects (B, C, F, T) input")
    # contiguous planes let the depthwise conv read each tile flat, in place
    x4 = x if x.ndim == 4 else x[:, :, np.newaxis, :]
    if not x4[:1, :1].flags.c_contiguous:
        x4 = np.ascontiguousarray(x4)
    b, c_in, f, t = x4.shape
    first, end = (0, f) if rows is None else rows
    if rows is not None and (x.ndim != 4 or not 0 <= first <= end <= f):
        raise ShapeMismatch(f"rows {rows} are not frequency rows of {x.shape}")
    c_out = p.pointwise.weight.shape[0]
    dtype = np.result_type(x4.dtype, p.depthwise.dtype, p.pointwise.weight.dtype,
                           p.pointwise.bias.dtype, p.norm.gamma.dtype, p.norm.beta.dtype)
    if out is None:
        out = np.empty((b, c_out, end - first, t), dtype)
    row_bytes = max(1, b * c_in * t * dtype.itemsize)
    step = max(1, _TILE_BYTES // row_bytes)
    for lo in range(first, end, step):
        hi = min(lo + step, end)
        y = out[:, :, lo - first : hi - first]
        clinear(_depthwise_conv(x4, p.depthwise, rows=(lo, hi)), p.pointwise, out=y)
        cln(y, p.norm, out=y)
        cprelu(y, p.prelu_slope, out=y)
        if c_out == c_in:
            y += x4[:, :, lo:hi]
    return out if x.ndim == 4 else out[:, :, 0, :]


def cse_excitation(s: np.ndarray, p: CSEParams) -> np.ndarray:
    """The SE excitation sigmoid(expand @ relu(reduce @ s)) of the squeeze s
    (B, C): a real, positive per-channel scale."""
    h = np.maximum(s @ p.reduce.T, 0.0)
    return 1.0 / (1.0 + np.exp(-(h @ p.expand.T)))


def cse(x: np.ndarray, p: CSEParams, excitation: np.ndarray | None = None) -> np.ndarray:
    """Complex squeeze-and-excitation: phase-preserving per-channel scaling.

    The squeeze is the mean magnitude over (frequency, time) per channel,
    and ``cse_excitation`` turns it into a real scale. A caller that scales
    a tensor a tile of frequency rows at a time passes the excitation of
    the whole tensor, so each tile is scaled alike. The result keeps x's
    dtype.
    """
    if x.ndim != 4:
        raise ShapeMismatch("cse expects (B, C, F, T) input")
    if p.reduce.shape[1] != x.shape[1]:
        raise ShapeMismatch(
            f"cse reduce expects {p.reduce.shape[1]} channels, input has {x.shape[1]}"
        )
    if excitation is None:
        excitation = cse_excitation(np.mean(np.abs(x), axis=(2, 3)), p)   # (B, C)
    return np.multiply(x, excitation[:, :, None, None], out=np.empty_like(x))
