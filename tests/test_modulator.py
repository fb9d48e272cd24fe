import numpy as np
import pytest

from binse.complex_ops import CLayerNormParams, CLinearParams, clinear, cln
from binse.errors import ShapeMismatch
from binse.modulator import ModulatorParams, _gates_all_freqs, fourier_basis, modulator_block
from conftest import make_clinear, make_norm, rand_complex


C, H, K, F, T = 4, 4, 5, 6, 20


def context_vector(z_f):
    """Oracle: time-averaged channel magnitudes of one frequency; (C, T) -> (C,)."""
    return np.mean(np.abs(z_f), axis=-1)


def synth_gate(c_f, basis, p):
    """Oracle: the temporal gate of one frequency from its context; (C,) -> (T,)."""
    h = c_f @ p.mlp_w1.T + p.mlp_b1
    h = np.where(h >= 0, h, float(p.mlp_prelu_slope) * h)
    a = h @ p.mlp_w2.T + p.mlp_b2                 # (K,)
    return 1.0 / (1.0 + np.exp(-float(p.tau) * (a @ basis.T)))


def gates(z, p):
    """The production gates of every frequency; (C, F, T) -> (F, T)."""
    return _gates_all_freqs(z, fourier_basis(z.shape[-1], p.mlp_w2.shape[0]), p)


def make_modulator(rng, c=C, h=H, k=K):
    return ModulatorParams(
        mlp_w1=rng.standard_normal((h, c)) * 0.4,
        mlp_b1=rng.standard_normal(h) * 0.1,
        mlp_w2=rng.standard_normal((k, h)) * 0.4,
        mlp_b2=rng.standard_normal(k) * 0.1,
        mlp_prelu_slope=np.float64(0.25),
        tau=np.float64(1.0),
        proj=make_clinear(rng, c, c, 0.3),
        norm=make_norm(rng, c),
    )


class TestFourierBasis:
    def test_orthonormal_for_t_at_least_k(self):
        for t in [9, 24, 124, 249, 512]:
            phi = fourier_basis(t, 9)
            gram = phi.T @ phi
            np.testing.assert_allclose(gram, np.eye(9), atol=1e-12)

    def test_gram_is_diagonal_even_at_minimum_length(self):
        # at T = 8 with 9 columns the last sin column vanishes; the Gram
        # matrix stays diagonal even though it is no longer the identity
        phi = fourier_basis(8, 9)
        gram = phi.T @ phi
        np.testing.assert_allclose(gram, np.diag(np.diag(gram)), atol=1e-12)

    def test_first_column_is_dc(self):
        phi = fourier_basis(17, 5)
        np.testing.assert_allclose(phi[:, 0], 1.0 / np.sqrt(17))

    def test_columns_match_direct_trig_construction(self):
        t_len = 31
        phi = fourier_basis(t_len, 7)
        t = np.arange(t_len)
        for h in range(1, 4):
            w = 2 * np.pi * h * t / t_len
            np.testing.assert_allclose(phi[:, 2 * h - 1], np.cos(w) * np.sqrt(2 / t_len))
            np.testing.assert_allclose(phi[:, 2 * h], np.sin(w) * np.sqrt(2 / t_len))

    def test_even_basis_count_rejected(self):
        with pytest.raises(ValueError):
            fourier_basis(16, 4)

    def test_cache_returns_readonly_array(self):
        phi = fourier_basis(33, 5)
        assert not phi.flags.writeable
        assert fourier_basis(33, 5) is phi


class TestGateSynthesis:
    def test_gate_shape_and_range(self, rng):
        p = make_modulator(rng)
        for _ in range(3):
            g = gates(rand_complex(rng, (C, F, T)), p)
            assert g.shape == (F, T)
            assert np.all(g > 0) and np.all(g < 1)

    def test_zero_mlp_gives_constant_half(self, rng):
        p = make_modulator(rng)
        p.mlp_w2 = np.zeros_like(p.mlp_w2)
        p.mlp_b2 = np.zeros_like(p.mlp_b2)
        for _ in range(2):
            g = gates(rand_complex(rng, (C, F, T)), p)
            np.testing.assert_allclose(g, 0.5, atol=1e-12)

    def test_dc_only_coefficient_gives_flat_gate(self, rng):
        p = make_modulator(rng)
        p.mlp_w2 = np.zeros_like(p.mlp_w2)
        p.mlp_b2 = np.zeros(K)
        p.mlp_b2[0] = 2.0
        g = gates(rand_complex(rng, (C, F, T)), p)
        np.testing.assert_allclose(g, g[0, 0], rtol=1e-12)

    def test_temperature_sharpens_the_gate(self, rng):
        p = make_modulator(rng)
        z = rand_complex(rng, (C, F, T))
        g1 = gates(z, p)
        p.tau = np.float64(8.0)
        g8 = gates(z, p)
        assert np.ptp(g8) > np.ptp(g1)

    def test_matches_manual_mlp_oracle(self, rng):
        p = make_modulator(rng)
        basis = fourier_basis(T, K)
        for _ in range(2):
            z = rand_complex(rng, (C, F, T))
            g = gates(z, p)
            for fi in range(F):
                ctx = np.mean(np.abs(z[:, fi, :]), axis=-1)
                h = p.mlp_w1 @ ctx + p.mlp_b1
                h = np.where(h >= 0, h, 0.25 * h)
                a = p.mlp_w2 @ h + p.mlp_b2
                expected = 1.0 / (1.0 + np.exp(-(basis @ a)))
                np.testing.assert_allclose(g[fi], expected, rtol=1e-12)


class TestContextVector:
    """The gates see the input only through its time-averaged magnitudes."""

    def test_matches_mean_abs(self, rng):
        p = make_modulator(rng)
        for _ in range(2):
            z = rand_complex(rng, (C, F, T))
            flat = np.broadcast_to(np.mean(np.abs(z), axis=-1, keepdims=True), z.shape)
            np.testing.assert_allclose(gates(z, p), gates(flat, p), rtol=1e-12)

    def test_invariant_to_frame_permutation(self, rng):
        p = make_modulator(rng)
        z = rand_complex(rng, (C, F, T))
        perm = rng.permutation(T)
        np.testing.assert_allclose(gates(z, p), gates(z[..., perm], p), rtol=1e-12)


class TestModulatorBlock:
    def test_output_shape_preserved(self, rng):
        p = make_modulator(rng)
        z = rand_complex(rng, (C, F, T))
        assert modulator_block(z, p).shape == z.shape

    def test_matches_per_frequency_reference(self, rng):
        """Vectorized block equals the slice-at-a-time composition."""
        p = make_modulator(rng)
        basis = fourier_basis(T, K)
        for _ in range(2):
            z = rand_complex(rng, (C, F, T))
            out = modulator_block(z, p)
            for fi in range(F):
                z_f = z[:, fi : fi + 1, :]
                gate = synth_gate(context_vector(z_f[:, 0]), basis, p)   # (T,)
                proj = clinear(z_f * gate, p.proj)
                ref = cln(z_f + proj, p.norm)
                np.testing.assert_allclose(out[:, fi : fi + 1, :], ref, rtol=1e-9, atol=1e-11)

    def test_zero_projection_reduces_to_norm_of_input(self, rng):
        p = make_modulator(rng)
        p.proj = CLinearParams(
            np.zeros((C, C), dtype=complex), np.zeros(C, dtype=complex)
        )
        z = rand_complex(rng, (C, F, T))
        np.testing.assert_allclose(
            modulator_block(z, p), cln(z.copy(), p.norm), rtol=1e-10, atol=1e-12
        )

    def test_gate_is_pure_magnitude_modulation(self, rng):
        # with identity projection and trivially affine norm the block output
        # phase equals the input phase wherever the gate acted
        p = make_modulator(rng)
        p.proj = CLinearParams(np.eye(C, dtype=complex), np.zeros(C, dtype=complex))
        p.norm = CLayerNormParams(
            gamma=np.ones(C, dtype=complex), beta=np.zeros(C, dtype=complex)
        )
        z = rand_complex(rng, (C, F, T))
        out = modulator_block(z, p)
        # out = CLN(z * (1 + gate)); gate real positive => centered-free check:
        # compare against manually modulating z with the recovered real factor
        pre = z * (1 + gates(z, p))
        np.testing.assert_allclose(out, cln(pre, p.norm), rtol=1e-9, atol=1e-11)

    def test_writes_into_rows_of_a_larger_tensor(self, rng):
        """``out`` as the pipeline passes it: rows 2:5 of a whole tensor."""
        p = make_modulator(rng)
        z = rand_complex(rng, (C, 3, T))
        whole = rand_complex(rng, (C, F, T))
        before = whole.copy()
        rows = whole[:, 2:5]
        assert modulator_block(z, p, out=rows) is rows
        np.testing.assert_array_equal(rows, modulator_block(z, p))
        np.testing.assert_array_equal(np.delete(whole, [2, 3, 4], axis=1),
                                      np.delete(before, [2, 3, 4], axis=1))

    def test_wrong_rank_raises(self, rng):
        p = make_modulator(rng)
        for shape in [(1, C, F, T), (C, T)]:
            with pytest.raises(ShapeMismatch):
                modulator_block(rand_complex(rng, shape), p)

    def test_preserves_complex64_with_single_precision_params(self, rng):
        p = make_modulator(rng)
        p.proj = CLinearParams(
            p.proj.weight.astype(np.complex64), p.proj.bias.astype(np.complex64)
        )
        p.norm = CLayerNormParams(
            p.norm.gamma.astype(np.complex64), p.norm.beta.astype(np.complex64)
        )
        z = rand_complex(rng, (C, F, T)).astype(np.complex64)
        assert modulator_block(z, p).dtype == np.complex64
