import numpy as np
import pytest

from binse import workers
from binse.audio import Waveform
from binse.config import AnalysisConfig
from binse.errors import (
    DegenerateReference,
    EmptyMask,
    InputTooShort,
    ShapeMismatch,
)
from binse.frontend import Spectrogram
from binse.losses import (
    _third_octave_bands,
    cue_maps,
    external_score,
    ild_loss,
    ipd_loss,
    reg_terms,
    snr_loss,
    stoi_surrogate,
)
from conftest import rand_complex


SR = 16000


def make_wave(rng, n=16000, scale=0.3):
    return Waveform(scale * rng.standard_normal((2, n)), SR)


def make_spec(rng, f=129, t=12):
    return Spectrogram(rand_complex(rng, (2, f, t)), AnalysisConfig())


def stoi_oracle(s_hat, s, segment_s=0.384):
    """The surrogate as one serial loop over bands, ears and segments."""
    seg = int(round(segment_s * s.sample_rate))
    n = s.n_samples
    freqs = np.fft.rfftfreq(n, d=1.0 / s.sample_rate)
    spec_ref = np.fft.rfft(s.samples, axis=-1)
    spec_est = np.fft.rfft(s_hat.samples, axis=-1)
    corrs = []
    for lo, hi in _third_octave_bands(s.sample_rate):
        sel = (freqs >= lo) & (freqs < hi)
        if not np.any(sel):
            continue
        mask = np.zeros_like(freqs)
        mask[sel] = 1.0
        band_ref = np.fft.irfft(spec_ref * mask, n=n, axis=-1)
        band_est = np.fft.irfft(spec_est * mask, n=n, axis=-1)
        for ear in range(2):
            for k in range(n // seg):
                a = band_ref[ear, k * seg : (k + 1) * seg]
                b = band_est[ear, k * seg : (k + 1) * seg]
                a = a - a.mean()
                b = b - b.mean()
                na, nb = np.linalg.norm(a), np.linalg.norm(b)
                if na < 1e-12 or nb < 1e-12:
                    continue
                corrs.append(np.dot(a, b) / (na * nb))
    return float(1.0 - np.mean(corrs))


class TestSnrLoss:
    def test_perfect_estimate_hits_negative_clamp(self, rng):
        s = make_wave(rng)
        assert snr_loss(s, s) == -60.0

    def test_hopeless_estimate_hits_positive_clamp(self, rng):
        s = make_wave(rng)
        assert snr_loss(Waveform(s.samples * (1.0 + 1e4), SR), s) == 60.0   # -80 dB SNR

    def test_known_snr_oracle(self, rng):
        s = make_wave(rng)
        noise = make_wave(rng, scale=1.0)
        for target in [0.0, 10.0, 25.0]:
            # scale the noise so the per-ear SNR is exactly `target` dB
            scale = np.sqrt(
                np.sum(s.samples ** 2, axis=1)
                / (np.sum(noise.samples ** 2, axis=1) * 10 ** (target / 10))
            )
            est = Waveform(s.samples + scale[:, None] * noise.samples, SR)
            assert snr_loss(est, s) == pytest.approx(-target, abs=1e-9)

    def test_sign_flip_is_minus_six_db(self, rng):
        s = make_wave(rng)
        flipped = Waveform(-s.samples, SR)
        # error power = 4x reference power => SNR = -10 log10(4)
        assert snr_loss(flipped, s) == pytest.approx(10 * np.log10(4.0), abs=1e-9)

    def test_zero_reference_raises(self, rng):
        s = make_wave(rng, n=512)
        zero = Waveform(np.zeros((2, 512)), SR)
        with pytest.raises(DegenerateReference):
            snr_loss(s, zero)

    def test_length_mismatch_raises(self, rng):
        with pytest.raises(ShapeMismatch):
            snr_loss(make_wave(rng, 512), make_wave(rng, 513))


class TestStoiSurrogate:
    def test_perfect_estimate_scores_zero(self, rng):
        s = make_wave(rng, 8000)
        assert stoi_surrogate(s, s) == pytest.approx(0.0, abs=1e-9)

    def test_sign_flip_scores_two(self, rng):
        s = make_wave(rng, 8000)
        flipped = Waveform(-s.samples, SR)
        assert stoi_surrogate(flipped, s) == pytest.approx(2.0, abs=1e-9)

    def test_independent_noise_scores_near_one(self):
        r1, r2 = np.random.default_rng(1), np.random.default_rng(2)
        s = make_wave(r1, 32000)
        other = make_wave(r2, 32000)
        assert abs(stoi_surrogate(other, s) - 1.0) < 0.1

    def test_gain_invariant(self, rng):
        s = make_wave(rng, 8000)
        scaled = Waveform(3.7 * s.samples, SR)
        assert stoi_surrogate(scaled, s) == pytest.approx(0.0, abs=1e-9)

    def test_monotone_in_noise_level(self, rng):
        s = make_wave(rng, 16000)
        noise = make_wave(rng, 16000, scale=1.0)
        scores = [
            stoi_surrogate(Waveform(s.samples + a * noise.samples, SR), s)
            for a in [0.0, 0.1, 0.4, 1.5]
        ]
        assert all(x < y for x, y in zip(scores, scores[1:]))

    def test_too_short_raises(self, rng):
        with pytest.raises(InputTooShort):
            stoi_surrogate(make_wave(rng, 6000), make_wave(rng, 6000))

    def test_length_mismatch_raises(self, rng):
        with pytest.raises(ShapeMismatch):
            stoi_surrogate(make_wave(rng, 8000), make_wave(rng, 8001))

    def test_segments_are_384_ms(self, rng):
        with pytest.raises(InputTooShort, match=r"need at least 6144 samples \(384 ms\)"):
            stoi_surrogate(make_wave(rng, 6143), make_wave(rng, 6143))
        s = make_wave(rng, 6144)
        assert stoi_surrogate(s, s) == pytest.approx(0.0, abs=1e-12)

    def test_fifteen_third_octave_bands_from_150_hz(self):
        centers = 150.0 * 2.0 ** (np.arange(15) / 3.0)
        bands = np.array(_third_octave_bands(16000))
        np.testing.assert_allclose(np.sqrt(bands[:, 0] * bands[:, 1]), centers, rtol=1e-12)
        np.testing.assert_allclose(bands[:, 1] / bands[:, 0], 2.0 ** (1.0 / 3.0), rtol=1e-12)
        capped = np.array(_third_octave_bands(8000))   # the top band's edge, 4277 Hz, passes 4 kHz
        np.testing.assert_array_equal(capped[:14], bands[:14])
        assert capped[14, 0] == bands[14, 0] and capped[14, 1] == 4000.0

    @pytest.mark.parametrize("n", [31991, 32000, 8009])
    def test_bands_on_the_pool_score_the_serial_loop(self, n):
        """Prime, 5-smooth and short prime lengths: the bands run as pool
        units and the score equals the serial loop's exactly."""
        rng = np.random.default_rng(n)
        s = make_wave(rng, n)
        est = Waveform(s.samples + make_wave(rng, n, scale=0.2).samples, SR)
        with workers.plan():
            got = stoi_surrogate(est, s)
        assert got == stoi_oracle(est, s)


class TestCueMaps:
    def test_ear_swap_negates_ild_and_ipd(self, rng):
        s = make_spec(rng)
        swapped = Spectrogram(s.bins[::-1].copy(), s.config)
        c, cs = cue_maps(s), cue_maps(swapped)
        np.testing.assert_allclose(cs.ild, -c.ild, rtol=1e-12)
        active = c.active_mask
        np.testing.assert_allclose(
            np.abs(cs.ipd[active]), np.abs(c.ipd[active]), rtol=1e-12
        )
        np.testing.assert_array_equal(c.active_mask, cs.active_mask)

    def test_known_level_difference(self):
        bins = np.ones((2, 129, 4), dtype=complex)
        bins[0] *= 10.0   # left ear 20 dB louder
        c = cue_maps(Spectrogram(bins, AnalysisConfig()))
        np.testing.assert_allclose(c.ild, 20.0, atol=1e-9)
        np.testing.assert_allclose(c.ipd, 0.0, atol=1e-12)

    def test_known_phase_difference(self):
        bins = np.ones((2, 129, 4), dtype=complex)
        bins[0] *= np.exp(1j * 0.8)
        c = cue_maps(Spectrogram(bins, AnalysisConfig()))
        np.testing.assert_allclose(c.ipd, 0.8, atol=1e-12)

    def test_ipd_wrapped_to_half_open_interval(self):
        bins = np.ones((2, 129, 2), dtype=complex)
        bins[0] *= np.exp(1j * np.pi)   # antiphase
        c = cue_maps(Spectrogram(bins, AnalysisConfig()))
        assert np.all(c.ipd > -np.pi) and np.all(c.ipd <= np.pi)
        np.testing.assert_allclose(np.abs(c.ipd), np.pi, atol=1e-12)

    def test_mask_drops_quiet_bins(self):
        bins = np.ones((2, 129, 3), dtype=complex)
        bins[:, 5, :] *= 10 ** (-50 / 20.0)   # 50 dB below the loudest bin
        c = cue_maps(Spectrogram(bins, AnalysisConfig()))
        assert not np.any(c.active_mask[5])
        assert np.all(c.active_mask[6])

    def test_mask_floor_is_40_db(self):
        bins = np.ones((2, 129, 3), dtype=complex)
        bins[:, 5, :] *= 10 ** (-39 / 20.0)
        bins[:, 6, :] *= 10 ** (-41 / 20.0)
        c = cue_maps(Spectrogram(bins, AnalysisConfig()))
        assert np.all(c.active_mask[5])
        assert not np.any(c.active_mask[6])


class TestCueLosses:
    def test_zero_for_identical_spectrograms(self, rng):
        s = make_spec(rng)
        assert ild_loss(s, s) == pytest.approx(0.0, abs=1e-12)
        assert ipd_loss(s, s) == pytest.approx(0.0, abs=1e-12)

    def test_ild_known_gain_offset(self, rng):
        s = make_spec(rng)
        boosted = Spectrogram(np.stack([2.0 * s.bins[0], s.bins[1]]), s.config)
        expected = 20 * np.log10(2.0)
        assert ild_loss(s, boosted) == pytest.approx(expected, abs=1e-6)

    def test_ipd_known_rotation(self, rng):
        s = make_spec(rng)
        rotated = Spectrogram(
            np.stack([s.bins[0] * np.exp(0.5j), s.bins[1]]), s.config
        )
        assert ipd_loss(s, rotated) == pytest.approx(0.5, abs=1e-9)

    def test_ipd_uses_wrapped_difference(self, rng):
        s = make_spec(rng)
        rotated = Spectrogram(
            np.stack([s.bins[0] * np.exp(1j * (2 * np.pi - 0.3)), s.bins[1]]), s.config
        )
        assert ipd_loss(s, rotated) == pytest.approx(0.3, abs=1e-9)

    def test_empty_mask_raises(self, rng):
        quiet = Spectrogram(np.zeros((2, 129, 3), dtype=complex), AnalysisConfig())
        with pytest.raises(EmptyMask):
            ild_loss(quiet, make_spec(rng, t=3))

    def test_shape_mismatch_raises(self, rng):
        with pytest.raises(ShapeMismatch):
            ipd_loss(make_spec(rng, t=3), make_spec(rng, t=4))


class TestRegTerms:
    def test_all_zero_gate(self):
        assert reg_terms(np.zeros(16)) == (0.0, 0.0, 0.0)

    def test_all_one_gate(self):
        s, h, tv = reg_terms(np.ones(16))
        assert s == 1.0 and h == pytest.approx(0.0, abs=1e-10) and tv == 0.0

    def test_constant_half_gate(self):
        s, h, tv = reg_terms(np.full(32, 0.5))
        assert s == 0.5
        assert h == pytest.approx(-np.log(2.0), abs=1e-12)
        assert tv == 0.0

    def test_entropy_is_most_negative_at_half(self, rng):
        _, h_half, _ = reg_terms(np.full(8, 0.5))
        for v in [0.1, 0.3, 0.7, 0.95]:
            _, h, _ = reg_terms(np.full(8, v))
            assert h > h_half

    def test_tv_counts_frequency_steps(self):
        g = np.array([0.0, 1.0, 0.0, 1.0])
        s, h, tv = reg_terms(g)
        assert tv == 1.0
        g2 = np.array([0.2, 0.2, 0.7])
        assert reg_terms(g2)[2] == pytest.approx(0.5 / 2)

    def test_scalar_like_gate_has_zero_tv(self):
        assert reg_terms(np.array([0.4]))[2] == 0.0


class TestExternalScore:
    def test_parses_last_float_and_substitutes_paths(self, tmp_path):
        script = tmp_path / "scorer.sh"
        script.write_text("#!/bin/sh\necho header\necho score $1 $2 2.375\n")
        script.chmod(0o755)
        val = external_score(f"{script} {{ref}} {{est}}", "/tmp/a.wav", "/tmp/b.wav")
        assert val == 2.375

    def test_failing_scorer_raises(self, tmp_path):
        script = tmp_path / "bad.sh"
        script.write_text("#!/bin/sh\nexit 3\n")
        script.chmod(0o755)
        import subprocess

        with pytest.raises(subprocess.CalledProcessError):
            external_score(f"{script} {{ref}} {{est}}", "a", "b")

    def test_empty_output_raises(self, tmp_path):
        script = tmp_path / "silent.sh"
        script.write_text("#!/bin/sh\nexit 0\n")
        script.chmod(0o755)
        with pytest.raises(ValueError):
            external_score(f"{script}", "a", "b")

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_score_raises(self, tmp_path, token):
        """A JSON report has no token for NaN or infinity."""
        script = tmp_path / "scorer.sh"
        script.write_text(f"#!/bin/sh\necho score {token}\n")
        script.chmod(0o755)
        with pytest.raises(ValueError, match="non-finite score"):
            external_score(f"{script}", "a", "b")
