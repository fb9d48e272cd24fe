from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lightconv_oracle
from binse import complex_ops, pipeline
from binse.complex_ops import (
    CLayerNormParams,
    CLinearParams,
    LightConvParams,
    _depthwise_conv,
    clinear,
    cln,
    cprelu,
    cse,
    cse_excitation,
    lightconv,
)
from binse.errors import ShapeMismatch
from conftest import make_clinear, make_cse, make_lightconv, make_norm, rand_complex


class TestClinear:
    def test_identity_weights(self, rng):
        x = rand_complex(rng, (2, 4, 1, 3))
        p = CLinearParams(np.eye(4, dtype=complex), np.zeros(4, dtype=complex))
        np.testing.assert_allclose(clinear(x, p), x, rtol=1e-12)

    def test_linearity_with_bias_compensation(self, rng):
        p = make_clinear(rng, 5, 4)
        x1, x2 = rand_complex(rng, (2, 4, 1, 6)), rand_complex(rng, (2, 4, 1, 6))
        alpha = 0.7 - 1.3j
        lhs = clinear(alpha * x1 + x2, p)
        rhs = alpha * clinear(x1, p) + clinear(x2, p) - alpha * p.bias[None, :, None, None]
        np.testing.assert_allclose(lhs, rhs, atol=1e-6)

    def test_one_by_one_imaginary_unit(self):
        p = CLinearParams(np.array([[1j]]), np.zeros(1, dtype=complex))
        out = clinear(np.ones((1, 1, 1, 1), dtype=complex), p)
        np.testing.assert_allclose(out, 1j * np.ones((1, 1, 1, 1)))

    def test_matches_explicit_sum_oracle(self, rng):
        p = make_clinear(rng, 3, 4)
        x = rand_complex(rng, (2, 4, 5, 6))
        y = clinear(x, p)
        oracle = np.zeros((2, 3, 5, 6), dtype=complex)
        for o in range(3):
            for i in range(4):
                oracle[:, o] += p.weight[o, i] * x[:, i]
            oracle[:, o] += p.bias[o]
        np.testing.assert_allclose(y, oracle, rtol=1e-10, atol=1e-12)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ShapeMismatch):
            clinear(rand_complex(rng, (1, 3, 1, 2)), make_clinear(rng, 3, 4))


class TestCln:
    def test_constant_input_maps_to_beta(self, rng):
        p = CLayerNormParams(
            gamma=rand_complex(rng, (6,)), beta=np.zeros(6, dtype=complex), eps=1e-5
        )
        x = np.full((1, 6, 1, 4), 2.0 - 1.0j)
        np.testing.assert_allclose(cln(x, p), 0.0, atol=1e-12)

    def test_pre_affine_unit_power(self, rng):
        p = CLayerNormParams(
            gamma=np.ones(64, dtype=complex), beta=np.zeros(64, dtype=complex), eps=1e-8
        )
        x = rand_complex(rng, (2, 64, 1, 9))
        y = cln(x, p)
        power = np.mean(np.abs(y) ** 2, axis=1)
        np.testing.assert_allclose(power, 1.0, atol=1e-4)

    def test_single_channel_degenerate_variance(self):
        p = CLayerNormParams(
            gamma=np.ones(1, dtype=complex), beta=np.zeros(1, dtype=complex), eps=1e-5
        )
        x = np.full((1, 1, 1, 3), 5.0 + 2.0j)
        np.testing.assert_allclose(cln(x, p), 0.0, atol=1e-12)


def naive_depthwise_1d(x, kernel):
    c, t = x.shape[1], x.shape[-1]
    k = kernel.shape[1]
    pad = k // 2
    out = np.zeros_like(x)
    for ci in range(c):
        for ti in range(t):
            for j in range(k):
                src = ti + j - pad
                if 0 <= src < t:
                    out[:, ci, ..., ti] += kernel[ci, j] * x[:, ci, ..., src]
    return out


def naive_depthwise_2d(x, kernel):
    b, c, f, t = x.shape
    kf, kt = kernel.shape[1:]
    pf, pt = kf // 2, kt // 2
    out = np.zeros_like(x)
    for ci in range(c):
        for fi in range(f):
            for ti in range(t):
                for jf in range(kf):
                    for jt in range(kt):
                        sf, st = fi + jf - pf, ti + jt - pt
                        if 0 <= sf < f and 0 <= st < t:
                            out[:, ci, fi, ti] += kernel[ci, jf, jt] * x[:, ci, sf, st]
    return out


def identity_block(c, kernel, eps=1e-5):
    """Depthwise = centered unit impulse, pointwise = I, affine norm identity."""
    dw = np.zeros((c, *kernel), dtype=complex)
    if len(kernel) == 1:
        dw[:, kernel[0] // 2] = 1.0
    else:
        dw[:, kernel[0] // 2, kernel[1] // 2] = 1.0
    from binse.complex_ops import LightConvParams

    return LightConvParams(
        depthwise=dw,
        pointwise=CLinearParams(np.eye(c, dtype=complex), np.zeros(c, dtype=complex)),
        norm=CLayerNormParams(np.ones(c, dtype=complex), np.zeros(c, dtype=complex), eps),
        prelu_slope=np.float64(0.25),
    )


class TestLightConv1d:
    def test_impulse_kernel_reduces_to_norm_activation_residual(self, rng):
        c = 4
        p = identity_block(c, (5,))
        x = rand_complex(rng, (2, c, 1, 9))
        expected = cprelu(cln(x, p.norm), 0.25) + x
        np.testing.assert_allclose(lightconv(x, p), expected, rtol=1e-10, atol=1e-12)

    def test_matches_naive_convolution_oracle(self, rng):
        p = make_lightconv(rng, 3, 5, (5,))
        x = rand_complex(rng, (2, 3, 1, 8))
        y = lightconv(x, p)
        h = naive_depthwise_1d(x, p.depthwise)
        h = clinear(h, p.pointwise)
        h = cprelu(cln(h, p.norm), p.prelu_slope)   # no residual: 3 != 5
        np.testing.assert_allclose(y, h, rtol=1e-8, atol=1e-10)

    def test_depthwise_shift_equivariance_interior(self, rng):
        from binse.complex_ops import _depthwise_conv

        kernel = rand_complex(rng, (2, 5))
        x = rand_complex(rng, (1, 2, 1, 30))
        shifted = np.roll(x, 3, axis=-1)
        y = _depthwise_conv(x, kernel, rows=(0, 1))
        y_shifted = _depthwise_conv(shifted, kernel, rows=(0, 1))
        np.testing.assert_allclose(
            y_shifted[..., 8:-8], np.roll(y, 3, axis=-1)[..., 8:-8], rtol=1e-9, atol=1e-11
        )

    def test_residual_applied_when_channels_match(self, rng):
        p = make_lightconv(rng, 4, 4, (3,))
        x = rand_complex(rng, (1, 4, 1, 7))
        h = naive_depthwise_1d(x, p.depthwise)
        h = cprelu(cln(clinear(h, p.pointwise), p.norm), p.prelu_slope)
        np.testing.assert_allclose(lightconv(x, p), h + x, rtol=1e-8, atol=1e-10)

    def test_four_axis_input_convolves_time_only(self, rng):
        p = make_lightconv(rng, 3, 3, (5,))
        x = rand_complex(rng, (1, 3, 4, 8))
        y = lightconv(x, p)
        # frequency rows are independent: per-row application must agree
        for fi in range(4):
            row = lightconv(x[:, :, fi : fi + 1, :], p)
            np.testing.assert_array_equal(y[:, :, fi : fi + 1, :], row)

    def test_wrong_kernel_rank_raises(self, rng):
        p = make_lightconv(rng, 3, 3, (3, 3, 3))
        with pytest.raises(ShapeMismatch):
            lightconv(rand_complex(rng, (1, 3, 4, 8)), p)


class TestLightConv2d:
    def test_impulse_kernel_identity_composition(self, rng):
        c = 3
        p = identity_block(c, (3, 3))
        x = rand_complex(rng, (1, c, 5, 6))
        expected = cprelu(cln(x, p.norm), 0.25) + x
        np.testing.assert_allclose(lightconv(x, p), expected, rtol=1e-10, atol=1e-12)

    def test_matches_naive_convolution_oracle(self, rng):
        p = make_lightconv(rng, 2, 4, (3, 3))
        x = rand_complex(rng, (2, 2, 5, 6))
        y = lightconv(x, p)
        h = naive_depthwise_2d(x, p.depthwise)
        h = cprelu(cln(clinear(h, p.pointwise), p.norm), p.prelu_slope)
        np.testing.assert_allclose(y, h, rtol=1e-8, atol=1e-10)

    def test_separable_kernel_equals_two_1d_passes(self, rng):
        from binse.complex_ops import _depthwise_conv

        u = rand_complex(rng, (3, 3))   # frequency taps per channel
        v = rand_complex(rng, (3, 5))   # time taps per channel
        kernel = u[:, :, None] * v[:, None, :]
        x = rand_complex(rng, (1, 3, 7, 9))
        y2d = _depthwise_conv(x, kernel, rows=(0, 7))
        yf = _depthwise_conv(x.swapaxes(-1, -2), u, rows=(0, 9)).swapaxes(-1, -2)
        yft = _depthwise_conv(yf, v, rows=(0, 7))
        np.testing.assert_allclose(y2d, yft, rtol=1e-9, atol=1e-11)

    def test_requires_four_axes(self, rng):
        for kernel in [(3, 3), (3,)]:
            p = make_lightconv(rng, 3, 3, kernel)
            with pytest.raises(ShapeMismatch):
                lightconv(rand_complex(rng, (1, 3, 8)), p)


class TestCse:
    def test_zero_weights_halve_the_input(self, rng):
        x = rand_complex(rng, (2, 4, 3, 5))
        from binse.complex_ops import CSEParams

        p = CSEParams(reduce=np.zeros((2, 4)), expand=np.zeros((4, 2)))
        np.testing.assert_allclose(cse(x, p), 0.5 * x, rtol=1e-12)

    def test_phase_preserving(self, rng):
        x = rand_complex(rng, (1, 4, 6, 7))
        p = make_cse(rng, 4)
        y = cse(x, p)
        dphase = np.angle(y * np.conj(x))
        assert np.max(np.abs(dphase[np.abs(x) > 0])) < 1e-7

    def test_depends_only_on_channel_mean_magnitudes(self, rng):
        x = rand_complex(rng, (1, 4, 6, 7))
        p = make_cse(rng, 4)
        gain = (cse(x, p) / x)[0, :, 0, 0].real
        perm_f = rng.permutation(6)
        perm_t = rng.permutation(7)
        xp = x[:, :, perm_f][:, :, :, perm_t]
        gain_p = (cse(xp, p) / xp)[0, :, 0, 0].real
        np.testing.assert_allclose(gain, gain_p, rtol=1e-10)

    def test_channel_mismatch_raises(self, rng):
        with pytest.raises(ShapeMismatch):
            cse(rand_complex(rng, (1, 6, 2, 2)), make_cse(rng, 4))

    def test_bands_scaled_by_the_whole_excitation(self, rng):
        x = rand_complex(rng, (1, 4, 6, 7))
        p = make_cse(rng, 4)
        e = cse_excitation(np.mean(np.abs(x), axis=(2, 3)), p)
        bands = [cse(x[:, :, lo:hi], p, e) for lo, hi in [(0, 1), (1, 4), (4, 6)]]
        np.testing.assert_array_equal(np.concatenate(bands, axis=2), cse(x, p))

    def test_keeps_the_input_dtype(self, rng):
        x = c64_input(rng, (1, 4, 3, 5))
        p = make_cse(rng, 4)      # float64 weights
        assert cse(x, p).dtype == np.complex64
        assert cse(x, p, np.ones((1, 4))).dtype == np.complex64


class TestNumericalHygiene:
    def test_no_nan_inf_through_the_stack(self, rng):
        x = rand_complex(rng, (1, 4, 6, 8), scale=100.0)
        p1 = make_lightconv(rng, 4, 4, (5,))
        p2 = make_lightconv(rng, 4, 4, (3, 3))
        y = lightconv(lightconv(x, p1), p2)
        y = cse(y, make_cse(rng, 4))
        assert np.all(np.isfinite(y.real)) and np.all(np.isfinite(y.imag))

    def test_real_block_matrix_oracle_for_composition(self, rng):
        # complex linear map realized as a 2x2 real block matrix on (re; im)
        p = make_clinear(rng, 3, 3)
        x = rand_complex(rng, (1, 3, 1, 4))
        y = clinear(x, p)
        big = np.block(
            [[p.weight.real, -p.weight.imag], [p.weight.imag, p.weight.real]]
        )
        stacked = np.concatenate([x[0, :, 0].real, x[0, :, 0].imag], axis=0)
        out = big @ stacked
        expected = out[:3] + 1j * out[3:] + p.bias[:, None]
        np.testing.assert_allclose(y[0, :, 0], expected, rtol=1e-9, atol=1e-11)


def c64_block(rng, c_in, c_out, kernel):
    p = make_lightconv(rng, c_in, c_out, kernel)
    return LightConvParams(
        depthwise=p.depthwise.astype(np.complex64),
        pointwise=CLinearParams(p.pointwise.weight.astype(np.complex64),
                                p.pointwise.bias.astype(np.complex64)),
        norm=CLayerNormParams(p.norm.gamma.astype(np.complex64),
                              p.norm.beta.astype(np.complex64), p.norm.eps),
        prelu_slope=np.float32(0.25),
    )


def c64_input(rng, shape):
    x = np.empty(shape, np.complex64)
    x.real = rng.standard_normal(shape, dtype=np.float32)
    x.imag = rng.standard_normal(shape, dtype=np.float32)
    return x


def rel_l2(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@st.composite
def block_cases(draw):
    two_d = draw(st.booleans())
    c_in = draw(st.sampled_from([1, 2, 3, 5]))
    if two_d:
        kernel = (draw(st.sampled_from([1, 3, 5])), draw(st.sampled_from([1, 3, 5])))
    else:
        kernel = (draw(st.sampled_from([1, 3, 5, 7])),)
    return dict(
        b=draw(st.sampled_from([1, 2])),
        c_in=c_in,
        c_out=draw(st.sampled_from([c_in, 4])),
        f=draw(st.sampled_from([1, 2, 7, 13])),
        t=draw(st.integers(1, 24)),
        kernel=kernel,
        # from one channel per depthwise group up to all of them
        group_bytes=draw(st.sampled_from([1, 100, 1 << 19])),
        seed=draw(st.integers(0, 2**31 - 1)),
    )


class TestTiledLightConv:
    """The in-place block, its depthwise conv in channel groups, against the
    formulas in lightconv_oracle."""

    @settings(max_examples=80, deadline=None)
    @given(block_cases())
    def test_matches_untiled_oracle(self, case):
        rng = np.random.default_rng(case["seed"])
        p = c64_block(rng, case["c_in"], case["c_out"], case["kernel"])
        x = c64_input(rng, (case["b"], case["c_in"], case["f"], case["t"]))
        with mock.patch.object(complex_ops, "_DEPTHWISE_GROUP_BYTES", case["group_bytes"]):
            y = lightconv(x, p)
        expected = lightconv_oracle.lightconv(x, p)
        assert y.shape == expected.shape and y.dtype == np.complex64
        assert rel_l2(y, expected) <= 1e-6

    @pytest.mark.parametrize("kernel", [(5,), (3, 3)])
    def test_row_longer_than_the_tile_budget(self, rng, kernel):
        t = pipeline._TILE_BYTES // (2 * 8) + 3      # one (2-channel) row > budget
        p = c64_block(rng, 2, 2, kernel)
        x = c64_input(rng, (1, 2, 3, t))
        y = lightconv(x, p)
        assert rel_l2(y, lightconv_oracle.lightconv(x, p)) <= 1e-6


@st.composite
def depthwise_cases(draw):
    f = draw(st.integers(1, 9))
    lo = draw(st.integers(0, f))
    kernel = draw(st.sampled_from([(1,), (3,), (5,), (1, 3), (3, 3), (5, 3), (3, 5)]))
    return dict(
        b=draw(st.sampled_from([1, 2])), c=draw(st.sampled_from([1, 3, 5])),
        f=f, t=draw(st.integers(1, 12)), kernel=kernel,
        rows=(lo, draw(st.integers(lo, f))),
        group_bytes=draw(st.sampled_from([1, 100, 1 << 19])),
        seed=draw(st.integers(0, 2**31 - 1)),
    )


@settings(max_examples=80, deadline=None)
@given(depthwise_cases())
def test_depthwise_rows_equal_the_padded_formula(case):
    """The first tap written into the output, the later ones added: the same
    values as summing every tap of the padded formula from zero."""
    rng = np.random.default_rng(case["seed"])
    x = c64_input(rng, (case["b"], case["c"], case["f"], case["t"]))
    kernel = c64_input(rng, (case["c"],) + case["kernel"])
    lo, hi = case["rows"]
    with mock.patch.object(complex_ops, "_DEPTHWISE_GROUP_BYTES", case["group_bytes"]):
        y = _depthwise_conv(x, kernel, rows=(lo, hi))
    np.testing.assert_array_equal(y, lightconv_oracle.depthwise(x, kernel)[:, :, lo:hi])


@st.composite
def row_windows(draw):
    two_d = draw(st.booleans())
    f = draw(st.integers(1, 13))
    lo = draw(st.integers(0, f))
    return dict(
        c_in=draw(st.sampled_from([1, 3])),
        c_out=draw(st.sampled_from([3, 4])),
        f=f, t=draw(st.integers(1, 20)),
        kernel=(draw(st.sampled_from([1, 3, 5])), 3) if two_d else (5,),
        rows=(lo, draw(st.integers(lo, f))),
        seed=draw(st.integers(0, 2**31 - 1)),
    )


class TestLightConvRows:
    """``rows=(lo, hi)`` against the same rows of the whole block."""

    @settings(max_examples=80, deadline=None)
    @given(row_windows())
    def test_equals_the_rows_of_the_whole_block(self, case):
        rng = np.random.default_rng(case["seed"])
        p = c64_block(rng, case["c_in"], case["c_out"], case["kernel"])
        x = read_only(c64_input(rng, (1, case["c_in"], case["f"], case["t"])))
        before = x.copy()
        lo, hi = case["rows"]
        y = lightconv(x, p, rows=(lo, hi))
        expected = lightconv(x, p)[:, :, lo:hi]
        assert y.dtype == np.complex64
        np.testing.assert_array_equal(y, expected)
        np.testing.assert_array_equal(x, before)

    @pytest.mark.parametrize("kernel", [(5,), (3, 3), (5, 3)])
    def test_windows_at_the_edges(self, rng, kernel):
        f = 9
        p = c64_block(rng, 4, 4, kernel)
        x = c64_input(rng, (1, 4, f, 11))
        whole = lightconv(x, p)
        for lo, hi in [(0, 1), (0, 3), (f - 1, f), (f - 3, f), (0, f)]:
            np.testing.assert_array_equal(lightconv(x, p, rows=(lo, hi)), whole[:, :, lo:hi])

    def test_rejects_rows_outside_the_input_or_of_a_3d_input(self, rng):
        p = c64_block(rng, 2, 2, (3,))
        with pytest.raises(ShapeMismatch):
            lightconv(c64_input(rng, (1, 2, 4, 5)), p, rows=(2, 5))
        with pytest.raises(ShapeMismatch):
            lightconv(c64_input(rng, (1, 2, 5)), p, rows=(0, 1))


@pytest.mark.parametrize("slope", [-0.5, 0.0, 0.25, 1.0, 1.5])
def test_cprelu_equals_the_where_form_bitwise(rng, slope):
    x = c64_input(rng, (2, 3, 4, 5))
    np.testing.assert_array_equal(cprelu(x, slope), lightconv_oracle.cprelu(x, slope))
    r = x.real.copy()
    np.testing.assert_array_equal(cprelu(r, slope), np.where(r >= 0, r, np.float32(slope) * r))


def read_only(a):
    a = np.array(a)
    a.setflags(write=False)
    return a


class TestKernelsLeaveInputsUnchanged:
    @pytest.mark.parametrize("name", ["clinear", "cln", "cprelu", "depthwise1d", "depthwise2d",
                                      "lightconv1d", "lightconv2d"])
    def test_input_is_not_written(self, rng, name):
        x = read_only(c64_input(rng, (2, 4, 5, 6)))
        before = x.copy()
        calls = {
            "clinear": lambda: clinear(x, c64_block(rng, 4, 3, (3,)).pointwise),
            "cln": lambda: cln(x, c64_block(rng, 4, 4, (3,)).norm),
            "cprelu": lambda: cprelu(x, 0.25),
            "depthwise1d": lambda: _depthwise_conv(x, rand_complex(rng, (4, 3)), rows=(0, 5)),
            "depthwise2d": lambda: _depthwise_conv(x, rand_complex(rng, (4, 3, 3)), rows=(0, 5)),
            "lightconv1d": lambda: lightconv(x, c64_block(rng, 4, 4, (3,))),
            "lightconv2d": lambda: lightconv(x, c64_block(rng, 4, 4, (3, 3))),
        }
        y = calls[name]()
        assert not np.shares_memory(y, x)
        np.testing.assert_array_equal(x, before)

