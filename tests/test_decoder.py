import numpy as np
import pytest

from binse.complex_ops import CLinearParams
from binse.config import AnalysisConfig, RunConfig
from binse.decoder import (
    DecoderParams,
    RatfPair,
    blend,
    decode_heads,
    global_gate,
    ratf_solve,
    refinement_gate,
)
from binse.errors import ShapeMismatch
from binse.frontend import Spectrogram
from conftest import make_clinear, make_lightconv, rand_complex


C, F, T = 4, 9, 7


def make_decoder(rng, c=C, f=F):
    return DecoderParams(
        head_s=[make_lightconv(rng, c, c, (3, 3)) for _ in range(2)],
        head_s_proj=make_clinear(rng, 1, c, 0.3),
        head_n=[make_lightconv(rng, c, c, (3, 3)) for _ in range(2)],
        head_n_proj=make_clinear(rng, 1, c, 0.3),
        drg_weight=rng.standard_normal(c) * 0.3,
        drg_bias=np.float64(rng.standard_normal() * 0.3),
        drg_global=rng.standard_normal(f) * 0.5,
    )


def one_tile(z):
    """Every row of z (C, F, T) as one tile."""
    return [(0, z.shape[1])]


def make_spec(rng, f=F, t=T):
    cfg = AnalysisConfig(fft_size=(f - 1) * 2, hop=(f - 1))
    return Spectrogram(rand_complex(rng, (2, f, t)), cfg)


class TestDecodeHeads:
    def test_output_shapes(self, rng):
        p = make_decoder(rng)
        z = rand_complex(rng, (C, F, T))
        r = decode_heads(z, p, one_tile(z))
        assert r.w_s.shape == (F, T)
        assert r.w_n.shape == (F, T)

    def test_heads_are_independent(self, rng):
        p = make_decoder(rng)
        z = rand_complex(rng, (C, F, T))
        r1 = decode_heads(z, p, one_tile(z))
        p.head_n_proj = make_clinear(rng, 1, C, 0.9)
        r2 = decode_heads(z, p, one_tile(z))
        np.testing.assert_array_equal(r1.w_s, r2.w_s)
        assert np.max(np.abs(r1.w_n - r2.w_n)) > 1e-9

    def test_zero_output_projection_yields_constant_bias(self, rng):
        p = make_decoder(rng)
        bias = 0.7 - 0.2j
        p.head_s_proj = CLinearParams(
            np.zeros((1, C), dtype=complex), np.array([bias])
        )
        z = rand_complex(rng, (C, F, T))
        r = decode_heads(z, p, one_tile(z))
        np.testing.assert_allclose(r.w_s, bias, rtol=1e-12)

    def test_wrong_rank_raises(self, rng):
        p = make_decoder(rng)
        for shape in [(1, C, F, T), (C, F)]:
            with pytest.raises(ShapeMismatch):
                decode_heads(rand_complex(rng, shape), p, [(0, F)])


# the kernels of one head's blocks: 1 to 3 blocks of one kernel, or blocks
# whose halos (k_f // 2 rows; 0 for a time-only kernel) differ
HEAD_KERNELS = {f"kernel{i}-{n}": [kernel] * n
                for i, kernel in enumerate([(3, 3), (5, 3), (1, 3)]) for n in (1, 2, 3)}
HEAD_KERNELS.update({"halos2-1": [(5, 3), (3, 3)], "halos0-2-1": [(1, 3), (5, 3), (3, 3)],
                     "halos2-0-1": [(5, 3), (3,), (3, 3)]})


class TestStreamedHeads:
    """decode_heads run over tiles of rows, the bands of the plan, against
    one tile of every row."""

    @pytest.mark.parametrize("kernels", HEAD_KERNELS.values(), ids=HEAD_KERNELS.keys())
    @pytest.mark.parametrize("bands", [[9], [1] * 9, [2, 3, 4], [5, 1, 1, 2], [0, 4, 0, 5]])
    def test_bands_give_the_rows_of_one_call(self, rng, monkeypatch, kernels, bands):
        from binse import decoder

        p = make_decoder(rng)
        p.head_s = [make_lightconv(rng, C, C, kernel) for kernel in kernels]
        p.head_n = [make_lightconv(rng, C, C, kernel) for kernel in kernels]
        z = rand_complex(rng, (C, F, T))
        whole = decode_heads(z, p, one_tile(z))
        ends = np.cumsum(bands).tolist()
        tiles = list(zip([0] + ends[:-1], ends))
        made, conv = {}, decoder.lightconv

        def counted_lightconv(x, block, rows=None, out=None):
            made[id(block)] = made.get(id(block), 0) + rows[1] - rows[0]
            return conv(x, block, rows=rows, out=out)

        monkeypatch.setattr(decoder, "lightconv", counted_lightconv)
        tiled = decode_heads(z, p, tiles)
        assert made == {id(b): F for b in p.head_s + p.head_n}     # no row twice
        for name in ("w_s", "w_n"):
            np.testing.assert_array_equal(getattr(tiled, name), getattr(whole, name))


class TestRatfSolve:
    def test_exact_recovery_when_model_holds(self, rng):
        """If Y = W_s S_R + W_n N_R per ear pair, the solve recovers S_R."""
        cfg = AnalysisConfig(fft_size=(F - 1) * 2, hop=(F - 1))
        for seed in range(20):
            r = np.random.default_rng(seed)
            w_s = rand_complex(r, (F, T))
            w_n = rand_complex(r, (F, T))
            # keep the solve well conditioned
            w_n += np.where(np.abs(w_s - w_n) < 0.3, 2.0, 0.0)
            s_r = rand_complex(r, (F, T))
            n_r = rand_complex(r, (F, T))
            y = Spectrogram(
                np.stack([w_s * s_r + w_n * n_r, s_r + n_r]), cfg
            )
            est = ratf_solve(y, RatfPair(w_s=w_s, w_n=w_n), eps=0.0)
            np.testing.assert_allclose(est.bins[1], s_r, rtol=1e-9, atol=1e-10)
            np.testing.assert_allclose(est.bins[0], w_s * s_r, rtol=1e-9, atol=1e-10)

    def test_matches_formula_oracle(self, rng):
        y = make_spec(rng)
        w_s = rand_complex(rng, (F, T))
        w_n = rand_complex(rng, (F, T))
        eps = 1e-8
        est = ratf_solve(y, RatfPair(w_s=w_s, w_n=w_n), eps=eps)
        d = w_s - w_n
        s_r = (y.bins[0] - w_n * y.bins[1]) * np.conj(d) / (np.abs(d) ** 2 + eps)
        np.testing.assert_allclose(est.bins[1], s_r, rtol=1e-12)
        np.testing.assert_allclose(est.bins[0], w_s * s_r, rtol=1e-12)

    def test_degenerate_ratfs_stay_finite(self, rng):
        y = make_spec(rng)
        w = rand_complex(rng, (F, T))
        est = ratf_solve(y, RatfPair(w_s=w, w_n=w.copy()), eps=RunConfig().eps_ratf)
        assert np.all(np.isfinite(est.bins))
        np.testing.assert_allclose(est.bins[1], 0.0, atol=1e-3)

    def test_rejects_batched_ratfs(self, rng):
        y = make_spec(rng)
        r = RatfPair(w_s=rand_complex(rng, (1, F, T)), w_n=rand_complex(rng, (1, F, T)))
        with pytest.raises(ShapeMismatch):
            ratf_solve(y, r, eps=1e-8)

    def test_rejects_ratfs_of_different_shapes(self, rng):
        y = make_spec(rng)
        r = RatfPair(w_s=rand_complex(rng, (F, T)), w_n=rand_complex(rng, (1, F, T)))
        with pytest.raises(ShapeMismatch):
            ratf_solve(y, r, eps=1e-8)

    def test_shape_mismatch_raises(self, rng):
        y = make_spec(rng)
        r = RatfPair(w_s=rand_complex(rng, (F + 1, T)), w_n=rand_complex(rng, (F + 1, T)))
        with pytest.raises(ShapeMismatch):
            ratf_solve(y, r, eps=1e-8)


class TestRefinementGate:
    def test_shape_and_range(self, rng):
        p = make_decoder(rng)
        g = refinement_gate(rand_complex(rng, (C, F, T)), p)
        assert g.shape == (F,)
        assert np.all(g > 0) and np.all(g < 1)

    def test_matches_pooled_sigmoid_oracle(self, rng):
        p = make_decoder(rng)
        for _ in range(2):
            z = rand_complex(rng, (C, F, T))
            g = refinement_gate(z, p)
            pooled = np.mean(np.abs(z), axis=-1)
            pre = np.tensordot(p.drg_weight, pooled, axes=([0], [0])) + float(p.drg_bias)
            np.testing.assert_allclose(g, 1.0 / (1.0 + np.exp(-pre)), rtol=1e-12)

    def test_invariant_to_frame_permutation_and_phase(self, rng):
        p = make_decoder(rng)
        z = rand_complex(rng, (C, F, T))
        perm = rng.permutation(T)
        np.testing.assert_allclose(
            refinement_gate(z, p),
            refinement_gate(z[..., perm] * np.exp(0.9j), p),
            rtol=1e-12,
        )

    def test_channel_mismatch_raises(self, rng):
        p = make_decoder(rng)
        with pytest.raises(ShapeMismatch):
            refinement_gate(rand_complex(rng, (C + 1, F, T)), p)

    def test_rejects_a_four_axis_input(self, rng):
        p = make_decoder(rng)
        with pytest.raises(ShapeMismatch):
            refinement_gate(rand_complex(rng, (1, C, F, T)), p)

    def test_global_gate_is_input_independent_sigmoid(self, rng):
        p = make_decoder(rng)
        np.testing.assert_allclose(
            global_gate(p), 1.0 / (1.0 + np.exp(-p.drg_global)), rtol=1e-12
        )


class TestBlend:
    def test_unit_gate_returns_estimate(self, rng):
        s, y = make_spec(rng), make_spec(rng)
        out = blend(s, y, np.ones(F))
        np.testing.assert_array_equal(out.bins, s.bins)

    def test_zero_gate_returns_noisy_input(self, rng):
        s, y = make_spec(rng), make_spec(rng)
        out = blend(s, y, np.zeros(F))
        np.testing.assert_array_equal(out.bins, y.bins)

    def test_convex_combination_per_frequency(self, rng):
        s, y = make_spec(rng), make_spec(rng)
        g = rng.random(F)
        out = blend(s, y, g)
        for fi in range(F):
            np.testing.assert_allclose(
                out.bins[:, fi], g[fi] * s.bins[:, fi] + (1 - g[fi]) * y.bins[:, fi],
                rtol=1e-12,
            )

    def test_same_gate_for_both_ears(self, rng):
        s, y = make_spec(rng), make_spec(rng)
        g = rng.random(F)
        out = blend(s, y, g)
        # recover the implied gate per ear; must match across ears
        implied = (out.bins - y.bins) / (s.bins - y.bins)
        np.testing.assert_allclose(implied[0], implied[1], rtol=1e-9)

    def test_rejects_a_leading_batch_axis(self, rng):
        s, y = make_spec(rng), make_spec(rng)
        with pytest.raises(ShapeMismatch):
            blend(s, y, rng.random((1, F)))

    def test_gate_length_mismatch_raises(self, rng):
        s, y = make_spec(rng), make_spec(rng)
        with pytest.raises(ShapeMismatch):
            blend(s, y, rng.random(F + 1))
