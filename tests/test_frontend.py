import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import fftconvolve

from binse.audio import Waveform
from binse.config import AnalysisConfig
from binse.errors import InputTooShort, InvalidBand, ShapeMismatch
from binse.frontend import (
    Spectrogram,
    _frames,
    build_gammatone_bank,
    erb_space,
    frame_count,
    gammatone_frames,
    istft,
    sqrt_hann,
    stft,
)


def gammatone_response(bank, f_hz, channel):
    """Oracle: magnitude response of one FIR channel at an arbitrary frequency."""
    n = np.arange(bank.impulse_responses.shape[1])
    phasor = np.exp(-2j * np.pi * f_hz * n / bank.sample_rate)
    return float(np.abs(np.sum(bank.impulse_responses[channel] * phasor)))


def make_wave(rng, n=32000, sr=16000, scale=0.3):
    return Waveform(scale * rng.standard_normal((2, n)), sr)


def rand_bins(rng, t, f=129):
    return rng.standard_normal((2, f, t)) + 1j * rng.standard_normal((2, f, t))


def frames_loop(x, cfg):
    """Oracle: frames (..., T, fft_size) gathered one frame at a time."""
    t = frame_count(x.shape[-1], cfg)
    return np.stack([x[..., m * cfg.hop : m * cfg.hop + cfg.fft_size] for m in range(t)], axis=-2)


def istft_loop(s):
    """Oracle: overlap-add inverse STFT that adds one frame at a time."""
    cfg = s.config
    win = sqrt_hann(cfg.fft_size)
    frames = np.fft.irfft(s.bins.transpose(0, 2, 1), n=cfg.fft_size, axis=-1) * win
    t = frames.shape[1]
    n = (t - 1) * cfg.hop + cfg.fft_size
    out, wsum = np.zeros((2, n)), np.zeros(n)
    for m in range(t):
        sl = slice(m * cfg.hop, m * cfg.hop + cfg.fft_size)
        out[:, sl] += frames[:, m, :]
        wsum[sl] += win * win
    good = wsum > 1e-12
    out[:, good] /= wsum[good]
    out[:, ~good] = 0.0
    return out


def gammatone_frames_oracle(w, bank, cfg):
    """Oracle: whole-length fftconvolve filtering, then gathered frame energies."""
    n = w.n_samples
    filtered = fftconvolve(w.samples[None], bank.impulse_responses[:, None], axes=-1)[..., :n]
    frames = frames_loop(filtered, cfg)
    return np.log1p(np.sum(frames * frames, axis=-1)).transpose(1, 0, 2)


@functools.lru_cache(maxsize=None)
def small_bank(hop, taps):
    """A 4-channel bank on a 256-point grid with the given hop, built once."""
    cfg = AnalysisConfig(fft_size=256, hop=hop)
    return cfg, build_gammatone_bank(cfg, 4, 50.0, 7800.0, n_taps=taps)


class TestStft:
    def test_two_second_input_yields_249_frames(self, rng, analysis):
        s = stft(make_wave(rng, 32000), analysis)
        assert s.bins.shape == (2, 129, 249)

    def test_zero_waveform_gives_zero_spectrogram(self, analysis):
        s = stft(Waveform(np.zeros((2, 4096)), 16000), analysis)
        assert np.all(s.bins == 0)

    def test_pure_tone_peaks_at_expected_bin(self, analysis):
        t = np.arange(4096) / 16000.0
        tone = np.cos(2 * np.pi * 1000.0 * t)
        s = stft(Waveform(np.stack([tone, tone]), 16000), analysis)
        mags = np.abs(s.bins[0, :, 0])
        assert np.argmax(mags) == round(1000 * 256 / 16000) == 16

    def test_first_frame_matches_naive_dft_oracle(self, rng, analysis):
        w = make_wave(rng, 1024)
        s = stft(w, analysis)
        n = analysis.fft_size
        frame = w.samples[0, :n] * sqrt_hann(n)
        k = np.arange(analysis.n_freq_bins)[:, None]
        dft = np.sum(frame[None, :] * np.exp(-2j * np.pi * k * np.arange(n) / n), axis=1)
        np.testing.assert_allclose(s.bins[0, :, 0], dft, atol=1e-10)

    def test_too_short_raises(self, analysis):
        with pytest.raises(InputTooShort):
            stft(Waveform(np.zeros((2, 255)), 16000), analysis)

    def test_rate_mismatch_raises(self, analysis):
        with pytest.raises(ShapeMismatch):
            stft(Waveform(np.zeros((2, 4096)), 8000), analysis)

    def test_frame_count_formula_over_length_range(self, analysis):
        for n in range(256, 48001):
            expected = (n - 256) // 128 + 1
            assert frame_count(n, analysis) == expected
        # spot-check the realized shape on a sample of lengths
        rng = np.random.default_rng(1)
        for n in [256, 257, 383, 384, 385, 1000, 16000, 48000]:
            s = stft(make_wave(rng, n), analysis)
            assert s.bins.shape[-1] == frame_count(n, analysis)

    def test_parseval_per_frame_one_sided_doubling(self, rng, analysis):
        w = make_wave(rng, 2048)
        s = stft(w, analysis)
        n = analysis.fft_size
        frame = w.samples[1, 3 * 128 : 3 * 128 + n] * sqrt_hann(n)
        time_energy = np.sum(frame ** 2)
        x = s.bins[1, :, 3]
        spec_energy = (np.abs(x[0]) ** 2 + np.abs(x[-1]) ** 2 +
                       2 * np.sum(np.abs(x[1:-1]) ** 2)) / n
        assert abs(spec_energy - time_energy) / time_energy < 1e-8


class TestFraming:
    @pytest.mark.parametrize("hop", [64, 128, 256])
    def test_frames_equal_per_frame_gather(self, rng, hop):
        cfg = AnalysisConfig(fft_size=256, hop=hop)
        for n in (256, 257, 383, 384, 1000, 4097):
            x = rng.standard_normal((2, n))
            assert np.array_equal(_frames(x, cfg), frames_loop(x, cfg))

    @pytest.mark.parametrize("hop", [64, 128, 256])
    def test_istft_equals_frame_loop_overlap_add(self, rng, hop):
        cfg = AnalysisConfig(fft_size=256, hop=hop)
        for t in (1, 2, 3, 10, 250):
            bins = rand_bins(rng, t)
            assert np.array_equal(istft(Spectrogram(bins, cfg)).samples,
                                  istft_loop(Spectrogram(bins, cfg)))


class TestSpectrogramBands:
    def test_whole_grid_needs_every_row(self, rng, analysis):
        with pytest.raises(ShapeMismatch):
            Spectrogram(rand_bins(rng, 4)[:, :128], analysis)


class TestIstft:
    def test_round_trip_interior(self, analysis):
        rng = np.random.default_rng(11)
        n = 32000
        fft = analysis.fft_size
        for _ in range(100):
            w = make_wave(rng, n)
            rec = istft(stft(w, analysis))
            interior = slice(fft, rec.n_samples - fft)
            err = np.linalg.norm(rec.samples[:, interior] - w.samples[:, interior])
            assert err / np.linalg.norm(w.samples[:, interior]) < 1e-6

    def test_zero_spectrogram_gives_zero_waveform(self, analysis):
        s = Spectrogram(np.zeros((2, 129, 10), dtype=complex), analysis)
        assert np.all(istft(s).samples == 0)

    def test_single_frame_support_is_local(self, rng, analysis):
        bins = np.zeros((2, 129, 10), dtype=complex)
        m = 4
        bins[:, :, m] = rng.standard_normal(129) + 1j * rng.standard_normal(129)
        bins[:, 0, m] = bins[:, 0, m].real   # keep DC/Nyquist real
        bins[:, -1, m] = bins[:, -1, m].real
        y = istft(Spectrogram(bins, analysis))
        lo, hi = m * 128, m * 128 + 256
        assert np.any(y.samples[:, lo:hi] != 0)
        assert np.all(y.samples[:, :lo] == 0)
        assert np.all(y.samples[:, hi:] == 0)

    def test_output_length(self, rng, analysis):
        s = stft(make_wave(rng, 2048), analysis)
        y = istft(s)
        t = s.bins.shape[-1]
        assert y.n_samples == (t - 1) * 128 + 256

    def test_cola_constant_on_interior(self, analysis):
        n = 8 * 256
        win2 = sqrt_hann(256) ** 2
        acc = np.zeros(n)
        for m in range((n - 256) // 128 + 1):
            acc[m * 128 : m * 128 + 256] += win2
        interior = acc[256:-256]
        assert np.ptp(interior) < 1e-10
        np.testing.assert_allclose(interior, 1.0, atol=1e-10)


class TestGammatone:
    def test_center_frequencies_strictly_increasing(self, analysis):
        bank = build_gammatone_bank(analysis, 64, 50.0, 7800.0, 1024)
        assert bank.n_channels == 64
        assert np.all(np.diff(bank.center_freqs) > 0)
        assert bank.center_freqs[0] > 0 and bank.center_freqs[-1] < 8000

    def test_single_channel_sits_at_erb_midpoint(self, analysis):
        bank = build_gammatone_bank(analysis, 1, 50.0, 7800.0, 1024)
        assert bank.center_freqs[0] == pytest.approx(erb_space(50.0, 7800.0, 1)[0])
        lo, hi = erb_space(50.0, 7800.0, 3)[[0, 2]]
        assert lo < bank.center_freqs[0] < hi

    def test_unit_peak_response_at_center(self, analysis):
        bank = build_gammatone_bank(analysis, 64, 50.0, 7800.0, 1024)
        for k in range(0, 64, 7):
            resp = gammatone_response(bank, float(bank.center_freqs[k]), k)
            assert resp == pytest.approx(1.0, abs=0.01)

    def test_invalid_band_edges_raise(self, analysis):
        with pytest.raises(InvalidBand):
            build_gammatone_bank(analysis, 8, 7800.0, 50.0, 1024)
        with pytest.raises(InvalidBand):
            build_gammatone_bank(analysis, 8, 50.0, 9000.0, 1024)

    def test_zero_input_gives_zero_features(self, analysis):
        bank = build_gammatone_bank(analysis, 8, 50.0, 7800.0, n_taps=256)
        g = gammatone_frames(Waveform(np.zeros((2, 2048)), 16000), bank, analysis)
        assert np.all(g == 0)
        assert np.iscomplexobj(g) and np.all(g.imag == 0)

    def test_frame_grid_matches_stft(self, rng, analysis):
        bank = build_gammatone_bank(analysis, 8, 50.0, 7800.0, n_taps=256)
        for n in [256, 1000, 4097]:
            w = make_wave(rng, n)
            g = gammatone_frames(w, bank, analysis)
            assert g.shape == (2, 8, stft(w, analysis).bins.shape[-1])

    def test_white_noise_excites_every_channel(self, analysis):
        bank = build_gammatone_bank(analysis, 16, 50.0, 7800.0, n_taps=256)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            g = gammatone_frames(make_wave(rng, 4096), bank, analysis)
            assert np.all(g.real > 0)

    def test_hop_block_energy_matches_gathered_frames(self, rng):
        # oracle: gather every (channel, ear, frame) window and sum its squares
        for cfg in (AnalysisConfig(), AnalysisConfig(fft_size=256, hop=64)):
            bank = build_gammatone_bank(cfg, 8, 50.0, 7800.0, n_taps=256)
            for n in (256, 300, 1000, 4097, 5000):
                w = make_wave(rng, n)
                filtered = fftconvolve(
                    w.samples[None], bank.impulse_responses[:, None], axes=-1
                )[..., :n]
                t = frame_count(n, cfg)
                idx = np.arange(cfg.fft_size) + cfg.hop * np.arange(t)[:, None]
                frames = filtered[..., idx]
                oracle = np.log1p(np.sum(frames * frames, axis=-1)).transpose(1, 0, 2)
                g = gammatone_frames(w, bank, cfg)
                np.testing.assert_allclose(g.real, oracle, rtol=0, atol=1e-12)

    def test_bank_stores_filter_spectra_on_one_block(self, analysis):
        bank = build_gammatone_bank(analysis, 8, 50.0, 7800.0, 1024)
        assert bank.block_len == 4096
        assert bank.spectra.shape == (8, 2049)
        np.testing.assert_allclose(
            bank.spectra, np.fft.rfft(bank.impulse_responses, n=4096), rtol=0, atol=1e-15)

    def test_bank_planned_for_a_smaller_hop_rejects_a_larger_one(self):
        bank = build_gammatone_bank(AnalysisConfig(fft_size=256, hop=8), 4, 50.0, 7800.0, 16)
        assert bank.block_len == 64
        with pytest.raises(ShapeMismatch, match="cannot hold a hop of 128"):
            gammatone_frames(make_wave(np.random.default_rng(0), 1000), bank, AnalysisConfig())

    def test_bank_built_for_another_rate_rejected(self, rng, analysis):
        bank = build_gammatone_bank(AnalysisConfig(sample_rate=8000), 8, 50.0, 3800.0, 1024)
        with pytest.raises(ShapeMismatch, match="bank rate 8000 != config rate 16000"):
            gammatone_frames(make_wave(rng, 4096), bank, analysis)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), hop=st.sampled_from([64, 128]),
           taps=st.sampled_from([256, 1024, 5000]), silent=st.sampled_from([None, 0, 1]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_block_filtering_matches_whole_length_fftconvolve(self, data, hop, taps, silent, seed):
        cfg, bank = small_bank(hop, taps)
        run = (bank.block_len - taps + 1) // hop * hop
        n = data.draw(st.one_of(st.integers(256, 3 * run + 1),
                                st.sampled_from([run - 1, run, run + 1, 2 * run, 3 * run + 1])))
        w = make_wave(np.random.default_rng(seed), n)
        if silent is not None:
            w.samples[silent] = 0.0
        g = gammatone_frames(w, bank, cfg)
        np.testing.assert_allclose(g.real, gammatone_frames_oracle(w, bank, cfg), rtol=0, atol=1e-12)
        if silent is not None:
            assert np.all(g[silent] == 0)

    def test_eight_second_call_peaks_at_a_quarter_of_the_filtered_signal(self, analysis):
        # the whole (64, 2, n) float64 filtered signal alone is 131 MB at 8 s;
        # whole-length filtering peaked at 318 MB
        bank = build_gammatone_bank(analysis, 64, 50.0, 7800.0, 1024)
        w = make_wave(np.random.default_rng(3), 8 * 16000)
        tracemalloc.start()
        try:
            gammatone_frames(w, bank, analysis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 318e6 / 4
