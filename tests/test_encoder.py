import numpy as np
import pytest

from binse.complex_ops import clinear, cln, cprelu, cse
from binse.encoder import EncoderParams, encode_gamma, encode_stft, fuse, recalibrate
from binse.errors import ShapeMismatch
from conftest import make_cse, make_lightconv, rand_complex


F, T, C, G = 9, 7, 4, 6


def make_encoder(rng, c=C, f=F, g=G):
    return EncoderParams(
        stft_blocks=[make_lightconv(rng, 2, c, (5,)), make_lightconv(rng, c, c, (5,))],
        gamma_blocks=[make_lightconv(rng, 2, c, (5,)), make_lightconv(rng, c, c, (5,))],
        gamma_proj=rng.standard_normal((f, g)) * 0.3,
        fusion_weight=rng.standard_normal((c, c)) * 0.3,
        fusion_bias=rng.standard_normal(c) * 0.3,
        se=make_cse(rng, c),
    )


def project_complex(x, p):
    """Oracle: the gammatone projection as a complex matmul with a zero imaginary part."""
    return np.matmul(p.gamma_proj.astype(x.dtype), x)


def fuse_whole(z_stft, z_gamma, p):
    """Oracle: the fusion gate computed over the whole utterance at once."""
    c = z_stft.shape[1]
    mag = np.abs(z_gamma)
    w = p.fusion_weight.astype(mag.dtype, copy=False)
    pre = np.matmul(w, mag.reshape(mag.shape[0], c, -1)).reshape(mag.shape)
    pre = pre + p.fusion_bias[None, :, None, None]
    return z_stft * (1.0 / (1.0 + np.exp(-pre)))


def single_precision(p):
    """p with its real fusion and projection weights stored as float32, as loaded."""
    p.gamma_proj = p.gamma_proj.astype(np.float32)
    p.fusion_weight = p.fusion_weight.astype(np.float32)
    p.fusion_bias = p.fusion_bias.astype(np.float32)
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
        assert z.shape == (1, C, F, T)
        assert encode_stft(make_bins(rng)[:, 2:5], p).shape == (1, C, 3, T)

    def test_matches_sequential_block_application(self, rng):
        from binse.complex_ops import lightconv

        p = make_encoder(rng)
        bins = make_bins(rng)
        z = encode_stft(bins, p)
        x = bins[None]
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
        np.testing.assert_array_equal(z[:, :, keep], z2[:, :, keep])
        assert np.any(z[:, :, 3] != z2[:, :, 3])


class TestEncodeGamma:
    def test_output_shape_projected_to_stft_bins(self, rng):
        p = make_encoder(rng)
        g = rand_complex(rng, (2, G, T)).real + 0j
        z = encode_gamma(g, p)
        assert z.shape == (1, C, F, T)

    def test_projection_matches_einsum_oracle(self, rng):
        from binse.complex_ops import lightconv

        p = make_encoder(rng)
        g = rand_complex(rng, (2, G, T))
        x = g[None]
        for block in p.gamma_blocks:
            x = lightconv(x, block)
        oracle = np.einsum("fg,bcgt->bcft", p.gamma_proj, x)
        np.testing.assert_allclose(encode_gamma(g, p), oracle, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_real_projection_matches_complex_matmul(self, rng, dtype):
        from binse.complex_ops import lightconv

        p = make_encoder(rng, c=8, f=33, g=12)
        if dtype == np.complex64:
            p = single_precision(p)
        g = rand_complex(rng, (2, 12, 50)).astype(dtype)
        x = g[None]
        for block in p.gamma_blocks:
            x = lightconv(x, block)
        assert_rel_close(encode_gamma(g, p), project_complex(x, p), 1e-6)

    @pytest.mark.parametrize("step", [1, 4, G])     # bands per tile: one, several, all
    def test_band_tiles_match_the_whole_blocks(self, rng, step):
        from binse.complex_ops import lightconv

        p = make_encoder(rng)
        g = rand_complex(rng, (2, G, T))
        x = g[None]
        for block in p.gamma_blocks:
            x = lightconv(x, block)
        z = encode_gamma(g, p, [(lo, min(lo + step, G)) for lo in range(0, G, step)])
        oracle = np.einsum("fg,bcgt->bcft", p.gamma_proj, x)
        np.testing.assert_allclose(z, oracle, rtol=1e-10, atol=1e-12)

    def test_rejects_wrong_rank_or_ear_count(self, rng):
        p = make_encoder(rng)
        with pytest.raises(ShapeMismatch):
            encode_gamma(rand_complex(rng, (3, G, T)), p)
        with pytest.raises(ShapeMismatch):
            encode_gamma(rand_complex(rng, (2, G)), p)

    def test_rejects_feature_count_mismatch(self, rng):
        p = make_encoder(rng)
        with pytest.raises(ShapeMismatch):
            encode_gamma(rand_complex(rng, (2, G + 1, T)), p)


class TestFuse:
    def test_gate_in_unit_interval_and_phase_transparent(self, rng):
        p = make_encoder(rng)
        z_s = rand_complex(rng, (1, C, F, T))
        z_g = rand_complex(rng, (1, C, F, T))
        out = fuse(z_s, z_g, p)
        ratio = out / z_s
        assert np.all(ratio.real > 0) and np.all(ratio.real < 1)
        assert np.max(np.abs(ratio.imag)) < 1e-9

    def test_matches_per_position_sigmoid_oracle(self, rng):
        p = make_encoder(rng)
        z_s = rand_complex(rng, (1, C, F, T))
        z_g = rand_complex(rng, (1, C, F, T))
        out = fuse(z_s, z_g, p)
        oracle = np.empty_like(out)
        for fi in range(F):
            for ti in range(T):
                pre = p.fusion_weight @ np.abs(z_g[0, :, fi, ti]) + p.fusion_bias
                oracle[0, :, fi, ti] = z_s[0, :, fi, ti] / (1.0 + np.exp(-pre))
        np.testing.assert_allclose(out, oracle, rtol=1e-9, atol=1e-11)

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    @pytest.mark.parametrize("tile_bytes", [1, 3 * 8 * 40 * 8, 4 << 20])
    def test_tiled_gate_matches_whole_utterance_gate(self, rng, dtype, tile_bytes):
        p = make_encoder(rng, c=8)
        if dtype == np.complex64:
            p = single_precision(p)
        z_s = rand_complex(rng, (1, 8, 17, 40)).astype(dtype)
        z_g = rand_complex(rng, (1, 8, 17, 40)).astype(dtype)
        expected = fuse_whole(z_s, z_g, p)
        # fused in place a tile of rows at a time, as the pipeline does
        step = max(1, tile_bytes // (8 * 40 * z_g.itemsize))
        for lo in range(0, 17, step):
            rows = z_g[:, :, lo : lo + step]
            fuse(z_s[:, :, lo : lo + step], rows, p, out=rows)
        assert_rel_close(z_g, expected, 1e-6)

    def test_fuses_in_place_over_the_gammatone_stream(self, rng):
        p = make_encoder(rng)
        z_s = rand_complex(rng, (1, C, F, T))
        z_g = rand_complex(rng, (1, C, F, T))
        expected = fuse(z_s, z_g, p)
        out = fuse(z_s, z_g, p, out=z_g)
        assert out is z_g
        np.testing.assert_array_equal(z_g, expected)

    def test_gate_depends_only_on_magnitudes(self, rng):
        p = make_encoder(rng)
        z_s = rand_complex(rng, (1, C, F, T))
        z_g = rand_complex(rng, (1, C, F, T))
        rotated = z_g * np.exp(1j * 0.7)
        np.testing.assert_allclose(
            fuse(z_s, z_g, p), fuse(z_s, rotated, p), rtol=1e-9, atol=1e-11
        )

    def test_no_gammatone_collapses_to_per_channel_constant(self, rng):
        p = make_encoder(rng)
        z_s = rand_complex(rng, (1, C, F, T))
        out = fuse(z_s, None, p)
        expected = z_s / (1.0 + np.exp(-p.fusion_bias))[None, :, None, None]
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_shape_mismatch_between_streams_raises(self, rng):
        p = make_encoder(rng)
        with pytest.raises(ShapeMismatch):
            fuse(rand_complex(rng, (1, C, F, T)), rand_complex(rng, (1, C, F, T + 1)), p)


class TestRecalibrate:
    def test_is_the_se_block(self, rng):
        p = make_encoder(rng)
        z = rand_complex(rng, (1, C, F, T))
        np.testing.assert_array_equal(recalibrate(z, p), cse(z, p.se))
