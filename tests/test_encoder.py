from dataclasses import replace

import numpy as np
import pytest

from binse.complex_ops import (
    CLayerNormParams,
    CLinearParams,
    CSEParams,
    LightConvParams,
    cse_excitation,
)
from binse.encoder import EncoderParams, encode_gamma, encode_stft, fuse, recalibrate
from binse.errors import ShapeMismatch
from conftest import make_cse, make_lightconv, rand_complex, recalibrate_by_own_squeeze


F, T, C, G = 9, 7, 4, 6


def make_encoder(rng, c=C, f=F, g=G):
    return EncoderParams(
        stft_blocks=[make_lightconv(rng, 2, c, (5,)), make_lightconv(rng, c, c, (5,))],
        gamma_blocks=[make_lightconv(rng, 2, c, (5,)), make_lightconv(rng, c, c, (5,))],
        gamma_proj=rng.standard_normal((f, g)) * 0.3,
        fusion=CLinearParams(rng.standard_normal((c, c)) * 0.3, rng.standard_normal(c) * 0.3),
        se=make_cse(rng, c),
    )


def project_complex(x, p):
    """Oracle: the gammatone projection as a complex matmul with a zero imaginary part."""
    return np.matmul(p.gamma_proj.astype(x.dtype), x)


def fuse_whole(z_stft, z_gamma, p):
    """Oracle: the fusion gate computed over the whole utterance at once."""
    c = z_stft.shape[0]
    mag = np.abs(z_gamma)
    w = p.fusion.weight.astype(mag.dtype, copy=False)
    pre = np.matmul(w, mag.reshape(c, -1)).reshape(mag.shape)
    pre = pre + p.fusion.bias[:, None, None]
    return z_stft * (1.0 / (1.0 + np.exp(-pre)))


def single_precision(p):
    """p with its weights stored as float32 and complex64, as loaded, so that
    its blocks run in complex64 on complex64 input."""
    def c64(a):
        return a.astype(np.complex64)

    def block(b):
        return LightConvParams(
            depthwise=c64(b.depthwise),
            pointwise=CLinearParams(c64(b.pointwise.weight), c64(b.pointwise.bias)),
            norm=CLayerNormParams(c64(b.norm.gamma), c64(b.norm.beta)),
            prelu_slope=np.float32(b.prelu_slope),
        )

    p.stft_blocks = [block(b) for b in p.stft_blocks]
    p.gamma_blocks = [block(b) for b in p.gamma_blocks]
    p.gamma_proj = p.gamma_proj.astype(np.float32)
    p.fusion = CLinearParams(p.fusion.weight.astype(np.float32), p.fusion.bias.astype(np.float32))
    return p


def assert_rel_close(actual, expected, rel):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert np.max(np.abs(actual - expected)) <= rel * np.max(np.abs(expected))


def make_bins(rng):
    return rand_complex(rng, (2, F, T))


class TestEncodeStft:
    def test_output_shape(self, rng):
        p = make_encoder(rng)
        z = encode_stft(make_bins(rng), p)
        assert z.shape == (C, F, T)
        assert encode_stft(make_bins(rng)[:, 2:5], p).shape == (C, 3, T)

    def test_matches_sequential_block_application(self, rng):
        from binse.complex_ops import lightconv

        p = make_encoder(rng)
        bins = make_bins(rng)
        z = encode_stft(bins, p)
        x = bins
        for block in p.stft_blocks:
            x = lightconv(x, block)
        np.testing.assert_array_equal(z, x)

    def test_frequency_rows_processed_independently(self, rng):
        p = make_encoder(rng)
        bins = make_bins(rng)
        z = encode_stft(bins, p)
        # zeroing one frequency row only changes that row's features
        bins[:, 3, :] = 0
        z2 = encode_stft(bins, p)
        keep = np.ones(F, dtype=bool)
        keep[3] = False
        np.testing.assert_array_equal(z[:, keep], z2[:, keep])
        assert np.any(z[:, 3] != z2[:, 3])


class TestEncodeGamma:
    def test_output_shape_projected_to_stft_bins(self, rng):
        p = make_encoder(rng)
        g = rand_complex(rng, (2, G, T)).real + 0j
        z = encode_gamma(g, p, [(0, G)])
        assert z.shape == (C, F, T)

    def test_projection_matches_einsum_oracle(self, rng):
        from binse.complex_ops import lightconv

        p = make_encoder(rng)
        g = rand_complex(rng, (2, G, T))
        x = g
        for block in p.gamma_blocks:
            x = lightconv(x, block)
        oracle = np.einsum("fg,cgt->cft", p.gamma_proj, x)
        np.testing.assert_allclose(encode_gamma(g, p, [(0, G)]), oracle, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_real_projection_matches_complex_matmul(self, rng, dtype):
        from binse.complex_ops import lightconv

        p = make_encoder(rng, c=8, f=33, g=12)
        if dtype == np.complex64:
            p = single_precision(p)
        g = rand_complex(rng, (2, 12, 50)).astype(dtype)
        x = g
        for block in p.gamma_blocks:
            x = lightconv(x, block)
        assert_rel_close(encode_gamma(g, p, [(0, 12)]), project_complex(x, p), 1e-6)

    @pytest.mark.parametrize("step", [1, 4, G])     # bands per tile: one, several, all
    def test_band_tiles_match_the_whole_blocks(self, rng, step):
        from binse.complex_ops import lightconv

        p = make_encoder(rng)
        g = rand_complex(rng, (2, G, T))
        x = g
        for block in p.gamma_blocks:
            x = lightconv(x, block)
        z = encode_gamma(g, p, [(lo, min(lo + step, G)) for lo in range(0, G, step)])
        oracle = np.einsum("fg,cgt->cft", p.gamma_proj, x)
        np.testing.assert_allclose(z, oracle, rtol=1e-10, atol=1e-12)
        np.testing.assert_array_equal(z, encode_gamma(g, p, [(0, G)]))     # one tile of every band

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    @pytest.mark.parametrize("f, g", [(129, 64), (33, 40)])  # fewer bands than rows, more
    @pytest.mark.parametrize("t", [1, 2, 61])
    @pytest.mark.parametrize("step", [1, 4, None])          # bands per tile: one, several, all
    def test_projection_in_place_equals_the_stacked_product(self, rng, dtype, f, g, t, step):
        """The per-channel projection written over the bands gives, bit for
        bit, the stacked (F, G) @ (C, G, 2T) product of the blocks' output."""
        from binse.complex_ops import lightconv

        p = make_encoder(rng, f=f, g=g)
        if dtype == np.complex64:
            p = single_precision(p)
        frames = rand_complex(rng, (2, g, t)).astype(dtype)
        x = frames
        for block in p.gamma_blocks:
            x = lightconv(x, block)
        real = x.real.dtype
        oracle = np.matmul(p.gamma_proj.astype(real), x.view(real)).view(x.dtype)
        step = step or g
        z = encode_gamma(frames, p, [(lo, min(lo + step, g)) for lo in range(0, g, step)])
        assert z.dtype == dtype and z.shape == (C, f, t)
        np.testing.assert_array_equal(z, oracle)

    def test_rejects_wrong_rank_or_ear_count(self, rng):
        p = make_encoder(rng)
        with pytest.raises(ShapeMismatch):
            encode_gamma(rand_complex(rng, (3, G, T)), p, [(0, G)])
        with pytest.raises(ShapeMismatch):
            encode_gamma(rand_complex(rng, (2, G)), p, [(0, G)])

    def test_rejects_feature_count_mismatch(self, rng):
        p = make_encoder(rng)
        with pytest.raises(ShapeMismatch):
            encode_gamma(rand_complex(rng, (2, G + 1, T)), p, [(0, G + 1)])


class TestFuse:
    def test_gate_in_unit_interval_and_phase_transparent(self, rng):
        p = make_encoder(rng)
        z_s = rand_complex(rng, (C, F, T))
        z_g = rand_complex(rng, (C, F, T))
        out = fuse(z_s, z_g, p)
        ratio = out / z_s
        assert np.all(ratio.real > 0) and np.all(ratio.real < 1)
        assert np.max(np.abs(ratio.imag)) < 1e-9

    def test_matches_per_position_sigmoid_oracle(self, rng):
        p = make_encoder(rng)
        z_s = rand_complex(rng, (C, F, T))
        z_g = rand_complex(rng, (C, F, T))
        out = fuse(z_s, z_g, p)
        oracle = np.empty_like(out)
        for fi in range(F):
            for ti in range(T):
                pre = p.fusion.weight @ np.abs(z_g[:, fi, ti]) + p.fusion.bias
                oracle[:, fi, ti] = z_s[:, fi, ti] / (1.0 + np.exp(-pre))
        np.testing.assert_allclose(out, oracle, rtol=1e-9, atol=1e-11)

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    @pytest.mark.parametrize("tile_bytes", [1, 3 * 8 * 40 * 8, 4 << 20])
    def test_tiled_gate_matches_whole_utterance_gate(self, rng, dtype, tile_bytes):
        p = make_encoder(rng, c=8)
        if dtype == np.complex64:
            p = single_precision(p)
        z_s = rand_complex(rng, (8, 17, 40)).astype(dtype)
        z_g = rand_complex(rng, (8, 17, 40)).astype(dtype)
        expected = fuse_whole(z_s, z_g, p)
        # fused in place a tile of rows at a time, as the pipeline does
        step = max(1, tile_bytes // (8 * 40 * z_g.itemsize))
        for lo in range(0, 17, step):
            rows = z_g[:, lo : lo + step]
            fuse(z_s[:, lo : lo + step], rows, p, out=rows)
        assert_rel_close(z_g, expected, 1e-6)

    def test_fuses_in_place_over_the_gammatone_stream(self, rng):
        p = make_encoder(rng)
        z_s = rand_complex(rng, (C, F, T))
        z_g = rand_complex(rng, (C, F, T))
        expected = fuse(z_s, z_g, p)
        out = fuse(z_s, z_g, p, out=z_g)
        assert out is z_g
        np.testing.assert_array_equal(z_g, expected)

    def test_gate_depends_only_on_magnitudes(self, rng):
        p = make_encoder(rng)
        z_s = rand_complex(rng, (C, F, T))
        z_g = rand_complex(rng, (C, F, T))
        rotated = z_g * np.exp(1j * 0.7)
        np.testing.assert_allclose(
            fuse(z_s, z_g, p), fuse(z_s, rotated, p), rtol=1e-9, atol=1e-11
        )

    def test_no_gammatone_collapses_to_per_channel_constant(self, rng):
        p = make_encoder(rng)
        z_s = rand_complex(rng, (C, F, T))
        out = fuse(z_s, None, p)
        expected = z_s / (1.0 + np.exp(-p.fusion.bias))[:, None, None]
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_shape_mismatch_between_streams_raises(self, rng):
        p = make_encoder(rng)
        with pytest.raises(ShapeMismatch):
            fuse(rand_complex(rng, (C, F, T)), rand_complex(rng, (C, F, T + 1)), p)


def with_se(rng, se):
    """A four-channel encoder whose squeeze-and-excitation weights are se."""
    return replace(make_encoder(rng, c=4), se=se)


class TestRecalibrate:
    def test_scales_by_the_excitation_of_its_own_squeeze(self, rng):
        p = make_encoder(rng)
        z = rand_complex(rng, (C, F, T))
        e = cse_excitation(np.mean(np.abs(z), axis=(1, 2)), p.se)
        np.testing.assert_array_equal(recalibrate(z, p, e), z * e[:, None, None])

    def test_zero_weights_halve_the_input(self, rng):
        x = rand_complex(rng, (4, 3, 5))
        p = with_se(rng, CSEParams(reduce=np.zeros((2, 4)), expand=np.zeros((4, 2))))
        np.testing.assert_allclose(recalibrate_by_own_squeeze(x, p), 0.5 * x, rtol=1e-12)

    def test_phase_preserving(self, rng):
        x = rand_complex(rng, (4, 6, 7))
        p = with_se(rng, make_cse(rng, 4))
        y = recalibrate_by_own_squeeze(x, p)
        dphase = np.angle(y * np.conj(x))
        assert np.max(np.abs(dphase[np.abs(x) > 0])) < 1e-7

    def test_depends_only_on_channel_mean_magnitudes(self, rng):
        x = rand_complex(rng, (4, 6, 7))
        p = with_se(rng, make_cse(rng, 4))
        gain = (recalibrate_by_own_squeeze(x, p) / x)[:, 0, 0].real
        perm_f = rng.permutation(6)
        perm_t = rng.permutation(7)
        xp = x[:, perm_f][:, :, perm_t]
        gain_p = (recalibrate_by_own_squeeze(xp, p) / xp)[:, 0, 0].real
        np.testing.assert_allclose(gain, gain_p, rtol=1e-10)

    def test_channel_mismatch_raises(self, rng):
        with pytest.raises(ShapeMismatch):
            recalibrate(rand_complex(rng, (6, 2, 2)), with_se(rng, make_cse(rng, 4)), np.ones(6))

    def test_rejects_a_four_axis_input(self, rng):
        with pytest.raises(ShapeMismatch):
            recalibrate(rand_complex(rng, (1, 4, 2, 2)), with_se(rng, make_cse(rng, 4)),
                        np.ones(4))

    def test_bands_scaled_by_the_whole_excitation(self, rng):
        x = rand_complex(rng, (4, 6, 7))
        p = with_se(rng, make_cse(rng, 4))
        e = cse_excitation(np.mean(np.abs(x), axis=(1, 2)), p.se)
        bands = [recalibrate(x[:, lo:hi], p, e) for lo, hi in [(0, 1), (1, 4), (4, 6)]]
        np.testing.assert_array_equal(np.concatenate(bands, axis=1), recalibrate(x, p, e))

    def test_keeps_the_input_dtype(self, rng):
        x = rand_complex(rng, (4, 3, 5)).astype(np.complex64)
        p = with_se(rng, make_cse(rng, 4))      # float64 weights
        assert recalibrate_by_own_squeeze(x, p).dtype == np.complex64
        assert recalibrate(x, p, np.ones(4)).dtype == np.complex64
