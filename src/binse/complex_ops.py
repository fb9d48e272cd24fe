"""Complex-valued neural kernels: linear, layer norm, PReLU, depthwise
separable ("light") convolution blocks, and squeeze-and-excitation.
Inference only: there is no dropout.

One layout: every kernel takes complex x of shape (B, C, F, T), channels on
axis 1, as the plan's (1, C, rows, T) tiles are. Parameter containers are
plain dataclasses of ndarrays, immutable by convention.

Execution contract. No public function mutates its input. ``clinear``,
``cln`` and ``cprelu`` take an optional ``out`` array; passing the input
itself (``cln(y, p, out=y)``) runs them in place, which is how the light-conv
block uses them. ``lightconv`` is the one block entry point; the rank of the
depthwise kernel selects a time-only or a (frequency, time) conv. Callers
pass the rows: ``lightconv(x, p, rows=(lo, hi))`` computes rows lo:hi in one
pass, with ``k_f // 2`` halo rows on either side (2-D kernels), writing its
depthwise sum, pointwise mix, norm, PReLU and residual into one output, so
its temporaries are the size of the rows it is handed. The depthwise conv
runs its taps over channel groups of about ``_DEPTHWISE_GROUP_BYTES``, to
stay in L2. The kernels keep their module-level names and are looked up as
module globals on every call, so a wrapper bound to one sees every call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch

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


def clinear(x: np.ndarray, p: CLinearParams, out: np.ndarray | None = None) -> np.ndarray:
    """Complex affine map y = W x + b over the channels of x (B, C_in, F, T).

    One (C_out, C_in) @ (C_in, T) BLAS product per frequency row, in one
    numpy call, so a row's result does not depend on the other rows of x,
    except at C_out = T = 1 (see ``decoder._decode_head``). ``out``, if
    given, receives y.
    """
    c_in = x.shape[1]
    if c_in != p.weight.shape[1]:
        raise ShapeMismatch(f"input has {c_in} channels, weight expects {p.weight.shape[1]}")
    dtype = np.result_type(x.dtype, p.weight.dtype)
    if out is None:
        out = np.empty(x.shape[:1] + p.weight.shape[:1] + x.shape[2:], dtype)
    np.matmul(p.weight.astype(dtype, copy=False),
              x.astype(dtype, copy=False).transpose(0, 2, 1, 3),
              out=out.transpose(0, 2, 1, 3))
    out += p.bias[:, np.newaxis, np.newaxis]
    return out


def cln(x: np.ndarray, p: CLayerNormParams, out: np.ndarray | None = None) -> np.ndarray:
    """Complex layer norm over the channels of x (B, C, F, T).

    The complex mean is removed per position and the centered values are
    divided by sqrt(E[|x - mu|^2] + eps) -- a single real scale shared by
    the real and imaginary parts -- before the complex affine (gamma, beta).
    ``out`` (may be x itself) receives the result; its last axis must have
    unit stride.
    """
    y = _fill(x, out, np.result_type(x.dtype, p.gamma.dtype, p.beta.dtype, np.complex64))
    # channel means of the (re, im) floats: a last axis of 2T >= 2 keeps numpy
    # summing channels in one order for any rows (one complex value: pairwise)
    v = y.view(y.real.dtype)
    v -= np.mean(v, axis=1, keepdims=True)
    moments = np.mean(np.square(v), axis=1, keepdims=True)     # E[re^2], E[im^2]
    scale = moments[..., 0::2] + moments[..., 1::2] + p.eps
    np.sqrt(scale, out=scale)
    np.reciprocal(scale, out=scale)
    v *= np.repeat(scale, 2, axis=-1)       # one real product per float
    y *= p.gamma[:, np.newaxis, np.newaxis]
    y += p.beta[:, np.newaxis, np.newaxis]
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


def _depthwise_conv(x: np.ndarray, kernel: np.ndarray, rows: tuple[int, int]) -> np.ndarray:
    """Zero-padded same-size depthwise correlation of x (B, C, F, T): output
    frequency rows ``rows=(lo, hi)``, as a (B, C, hi - lo, T) array.

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
    b, c, f, t = x.shape
    if kernel.shape[0] != c:
        raise ShapeMismatch(f"depthwise kernel for {kernel.shape[0]} channels, input has {c}")
    if kernel.ndim == 2:
        kernel = kernel[:, np.newaxis, :]
    elif kernel.ndim != 3:
        raise ShapeMismatch(f"unsupported depthwise kernel ndim {kernel.ndim}")
    lo, hi = rows
    kf, kt = kernel.shape[1:]
    pf, pt = kf // 2, kt // 2
    flat = x.reshape(b, c, f * t)
    start, stop = lo * t, hi * t
    n = stop - start
    out = np.empty((b, c, n), np.result_type(x.dtype, kernel.dtype))
    # channels are independent: run every tap on a cache-sized channel group
    group = min(c, max(1, _DEPTHWISE_GROUP_BYTES // max(1, b * n * out.itemsize)))
    scratch = np.empty((b, group, n), out.dtype)
    for c0 in range(0, c, group):
        c1 = min(c, c0 + group)
        acc, src, part = out[:, c0:c1], flat[:, c0:c1], scratch[:, : c1 - c0]
        first = True
        taps = kernel[np.newaxis, c0:c1, :, :, np.newaxis]      # (1, group, kf, kt, 1)
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
                    acc[:, :, : a - start] = 0
                    acc[:, :, z - start :] = 0
                tmp = into[:, :, a - start : z - start]
                np.multiply(taps[:, :, jf, jt], src[:, :, a + shift : z + shift], out=tmp)
                into_rows = into.reshape(b, c1 - c0, hi - lo, t)
                if dt > 0:
                    into_rows[..., t - dt :] = 0
                elif dt < 0:
                    into_rows[..., :-dt] = 0
                if not first:
                    acc[:, :, a - start : z - start] += tmp
                first = False
    return out.reshape(b, c, hi - lo, t)


def lightconv(
    x: np.ndarray,
    p: LightConvParams,
    rows: tuple[int, int] | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Light conv block on x (B, C, F, T): depthwise conv, pointwise mix,
    CLN, PReLU, residual.

    A (C, k) depthwise kernel convolves time only, each frequency row alone;
    a (C, k_f, k_t) kernel convolves (frequency, time).

    ``rows=(lo, hi)`` (default: every row) computes only output rows lo:hi,
    in one pass, as a (B, C_out, hi - lo, T) array. A 2-D kernel then reads
    the k_f // 2 rows on either side of them that x holds, and takes rows
    beyond x's edges as zero, so a caller holding some rows of a larger
    tensor gets that tensor's rows wherever x holds their halo. ``out``, if
    given, receives the result; its last axis must have unit stride.
    """
    if x.ndim != 4:
        raise ShapeMismatch(f"light conv expects (B, C, F, T), got {x.shape}")
    f = x.shape[2]
    lo, hi = (0, f) if rows is None else rows
    if not 0 <= lo <= hi <= f:
        raise ShapeMismatch(f"rows {rows} are not frequency rows of {x.shape}")
    out = clinear(_depthwise_conv(x, p.depthwise, (lo, hi)), p.pointwise, out=out)
    cln(out, p.norm, out=out)
    cprelu(out, p.prelu_slope, out=out)
    if out.shape[1] == x.shape[1]:
        out += x[:, :, lo:hi]
    return out


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
