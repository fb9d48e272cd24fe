"""Adaptive Fourier temporal modulator backbone.

Each frequency slice is processed independently: a global context vector
(time-averaged channel magnitudes) drives a small MLP whose output weights
a fixed orthonormal Fourier basis over the frame axis, yielding a real
temporal gate in (0, 1). The gate multiplies the slice (pure magnitude
modulation, phase untouched), followed by a complex linear projection,
a residual connection, and complex layer norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .complex_ops import (CLayerNormParams, CLinearParams, clinear, cln, pooled_magnitude,
                          prelu, sigmoid)
from .errors import ShapeMismatch


@dataclass
class ModulatorParams:
    mlp_w1: np.ndarray        # real (C, C): the hidden layer is C wide
    mlp_b1: np.ndarray        # real (C,)
    mlp_w2: np.ndarray        # real (K, C)
    mlp_b2: np.ndarray        # real (K,)
    mlp_prelu_slope: np.ndarray   # real scalar
    tau: np.ndarray           # real scalar temperature > 0
    proj: CLinearParams       # complex (C, C)
    norm: CLayerNormParams


@lru_cache(maxsize=64)
def fourier_basis(n_frames: int, n_basis: int) -> np.ndarray:
    """Orthonormal real Fourier basis (T x K), cached by length.

    Column 0 is DC; columns then pair cos/sin at harmonics 1..(K-1)/2 of
    the frame-sequence length, so the gate is built from the slowest
    frame-rate envelopes. Columns are mutually orthonormal for any T >= K.
    """
    if n_basis % 2 == 0:
        raise ValueError("n_basis must be odd (DC plus cos/sin pairs)")
    t = np.arange(n_frames)
    cols = [np.full(n_frames, 1.0 / np.sqrt(n_frames))]
    for h in range(1, (n_basis - 1) // 2 + 1):
        w = 2.0 * np.pi * h * t / n_frames
        cols.append(np.cos(w) * np.sqrt(2.0 / n_frames))
        cols.append(np.sin(w) * np.sqrt(2.0 / n_frames))
    phi = np.stack(cols, axis=1)
    phi.setflags(write=False)
    return phi


def _gates_all_freqs(z: np.ndarray, basis: np.ndarray, p: ModulatorParams) -> np.ndarray:
    """Vectorized gate synthesis over all frequencies: (C, F, T) -> (F, T)."""
    h = np.einsum("fc,hc->fh", pooled_magnitude(z), p.mlp_w1) + p.mlp_b1
    a = np.einsum("fh,kh->fk", prelu(h, p.mlp_prelu_slope), p.mlp_w2) + p.mlp_b2
    pre = np.einsum("tk,fk->ft", basis, a)
    pre *= float(p.tau)
    return sigmoid(pre, out=pre)


def modulator_block(z: np.ndarray, p: ModulatorParams, out: np.ndarray) -> np.ndarray:
    """Residual modulator update of z (C, F, T), applied to every frequency
    independently.

    Per frequency f: out_f = CLN(z_f + CLinear(z_f * gate_f)). ``out``
    receives the result and is returned; it must not overlap z.
    """
    if z.ndim != 3:
        raise ShapeMismatch(f"expected (C, F, T) input, got shape {z.shape}")
    basis = fourier_basis(z.shape[-1], p.mlp_w2.shape[0])
    gates = _gates_all_freqs(z, basis, p)         # (F, T)
    gates = gates.astype(z.real.dtype, copy=False)  # keep z's precision
    modulated = z * gates
    projected = clinear(modulated, p.proj, out=out)
    del modulated
    projected += z
    return cln(projected, p.norm)
