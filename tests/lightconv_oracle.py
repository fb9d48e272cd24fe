"""Untiled light-conv block: whole-array formulas kept as a test oracle.

These are the straightforward forms of the kernels in ``binse.complex_ops``:
a padded copy per depthwise conv, one broadcast matrix product, and a fresh
array per step. The library's tiled, in-place block must agree with them to
float rounding.
"""

import numpy as np


def depthwise(x, kernel):
    if kernel.ndim == 2:
        k = kernel.shape[1]
        pad = k // 2
        padded = np.pad(x, [(0, 0)] * (x.ndim - 1) + [(pad, pad)])
        t = x.shape[-1]
        out = np.zeros_like(x)
        kshape = (x.shape[0],) + (1,) * (x.ndim - 1)
        for j in range(k):
            out += kernel[:, j].reshape(kshape) * padded[..., j : j + t]
        return out
    kf, kt = kernel.shape[1:]
    pf, pt = kf // 2, kt // 2
    padded = np.pad(x, [(0, 0), (pf, pf), (pt, pt)])
    f, t = x.shape[1], x.shape[2]
    out = np.zeros_like(x)
    for jf in range(kf):
        for jt in range(kt):
            out += kernel[:, jf, jt][:, None, None] * padded[:, jf : jf + f, jt : jt + t]
    return out


def clinear(x, p):
    dtype = np.result_type(x.dtype, p.weight.dtype)
    flat = x.astype(dtype).reshape(x.shape[0], -1)
    y = np.matmul(p.weight.astype(dtype), flat).reshape(-1, *x.shape[1:])
    return y + p.bias.reshape((-1,) + (1,) * (x.ndim - 1))


def cln(x, p):
    mu = np.mean(x, axis=0, keepdims=True)
    centered = x - mu
    var = np.mean(np.abs(centered) ** 2, axis=0, keepdims=True)
    normed = centered / np.sqrt(var + 1e-5)
    shape = (-1,) + (1,) * (x.ndim - 1)
    return normed * p.gamma.reshape(shape) + p.beta.reshape(shape)


def cprelu(x, slope):
    s = float(slope)
    v = np.ascontiguousarray(x).view(x.real.dtype)
    return np.where(v >= 0, v, s * v).view(x.dtype).reshape(x.shape)


def lightconv(x, p):
    y = depthwise(x, p.depthwise)
    y = clinear(y, p.pointwise)
    y = cln(y, p.norm)
    y = cprelu(y, p.prelu_slope)
    if y.shape[0] == x.shape[0]:
        y = y + x
    return y
