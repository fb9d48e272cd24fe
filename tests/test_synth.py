import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft as sp_fft
from scipy.signal import fftconvolve

from binse import synth
from binse.audio import Waveform, read_stereo, read_wav, write_wav
from binse.errors import (
    AzimuthUnavailable,
    DegenerateMix,
    NoiseSourceTooShort,
    ShapeMismatch,
    UnsupportedFormat,
)
from binse.synth import (
    HrirSet,
    MixSpec,
    generate_dataset,
    load_hrir_dir,
    make_diffuse_noise,
    mix_at_snr,
    read_manifest,
    _next_fast_len,
    spatialize,
    synthesize_item,
)

SR = 16000


def delta_hrirs(azimuths, taps=32, rng=None):
    """Impulse-response set with per-azimuth delays and gains so the left/right
    outputs are analytically predictable."""
    entries = {}
    for i, az in enumerate(azimuths):
        ir = np.zeros((2, taps))
        ir[0, i % (taps // 2)] = 1.0            # left: delayed unit impulse
        ir[1, (i + 1) % (taps // 2)] = 0.5      # right: different delay, -6 dB
        if rng is not None:
            ir += 0.01 * rng.standard_normal((2, taps))
        entries[float(az)] = ir
    return HrirSet(entries, SR)


class TestHrirSet:
    def test_nearest_snaps_within_tolerance(self):
        h = delta_hrirs([-30.0, 0.0, 30.0])
        assert h.nearest(0.4) == 0.0
        assert h.nearest(29.2) == 30.0

    def test_nearest_outside_tolerance_raises(self):
        h = delta_hrirs([-30.0, 0.0, 30.0])
        with pytest.raises(AzimuthUnavailable):
            h.nearest(15.0)

    def test_tolerance_is_one_degree(self):
        h = delta_hrirs([-30.0, 0.0, 30.0])
        assert h.nearest(1.0) == 0.0
        assert h.nearest(-31.0) == -30.0
        with pytest.raises(AzimuthUnavailable, match="within 1.0 deg of 1.25"):
            h.nearest(1.25)

    def test_rejects_mixed_shapes_and_bad_azimuths(self):
        with pytest.raises(ValueError):
            HrirSet({0.0: np.zeros((2, 8)), 30.0: np.zeros((2, 16))}, SR)
        with pytest.raises(ValueError):
            HrirSet({180.0: np.zeros((2, 8))}, SR)
        with pytest.raises(ValueError):
            HrirSet({}, SR)

    def test_azimuths_sorted(self):
        h = delta_hrirs([30.0, -30.0, 0.0])
        assert h.azimuths == [-30.0, 0.0, 30.0]


class TestLoadHrirDir:
    def test_round_trip_through_directory(self, tmp_path, rng):
        for az in [-45.0, 0.0, 45.0]:
            ir = rng.standard_normal((2, 64)) * 0.1
            write_wav(tmp_path / f"{az:.1f}.wav", ir, SR)
        h = load_hrir_dir(tmp_path, SR)
        assert h.azimuths == [-45.0, 0.0, 45.0]
        assert h.entries[0.0].shape == (2, 64)

    def test_ignores_non_numeric_names(self, tmp_path, rng):
        write_wav(tmp_path / "0.wav", rng.standard_normal((2, 16)) * 0.1, SR)
        write_wav(tmp_path / "readme.wav", rng.standard_normal((2, 16)) * 0.1, SR)
        h = load_hrir_dir(tmp_path, SR)
        assert h.azimuths == [0.0]

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(UnsupportedFormat):
            load_hrir_dir(tmp_path, SR)

    def test_mono_hrir_rejected(self, tmp_path, rng):
        write_wav(tmp_path / "0.wav", rng.standard_normal(16) * 0.1, SR)
        with pytest.raises(UnsupportedFormat):
            load_hrir_dir(tmp_path, SR)

    @pytest.mark.parametrize("names", [("10.wav", "10.0.wav"), ("0.wav", "-0.wav"),
                                       ("5.wav", "5e0.wav")])
    def test_two_files_naming_one_azimuth_raise(self, tmp_path, rng, names):
        for name in names:
            write_wav(tmp_path / name, rng.standard_normal((2, 16)) * 0.1, SR)
        with pytest.raises(UnsupportedFormat, match="both name azimuth") as raised:
            load_hrir_dir(tmp_path, SR)
        assert all(str(tmp_path / name) in str(raised.value) for name in names)


class TestSpatialize:
    def test_unit_impulse_response_passthrough(self, rng):
        h = delta_hrirs([0.0])
        x = rng.standard_normal(400)
        out = spatialize(x, h, 0.0)
        assert out.samples.shape == (2, 400)
        np.testing.assert_allclose(out.samples[0], x, atol=1e-12)
        np.testing.assert_allclose(out.samples[1, 1:], 0.5 * x[:-1], atol=1e-12)

    def test_matches_direct_convolution_oracle(self, rng):
        taps = 32
        ir = rng.standard_normal((2, taps)) * 0.2
        h = HrirSet({10.0: ir}, SR)
        x = rng.standard_normal(300)
        out = spatialize(x, h, 10.0)
        for ear in range(2):
            full = np.convolve(x, ir[ear])[:300]
            np.testing.assert_allclose(out.samples[ear], full, atol=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 20000), taps=st.integers(1, 700), seed=st.integers(0, 2 ** 32 - 1))
    def test_equals_scipy_fftconvolve_bit_for_bit(self, n, taps, seed):
        rng = np.random.default_rng(seed)
        ir = rng.standard_normal((2, taps)) * 0.2
        x = rng.standard_normal(n)
        out = spatialize(x, HrirSet({0.0: ir}, SR), 0.0).samples
        assert np.array_equal(out, fftconvolve(x[np.newaxis], ir, axes=-1)[:, :n])

    def test_wav_ordered_impulse_response_gives_contiguous_rows(self, rng):
        # HRIRs read from a WAV are (2, taps) transposed views of (taps, 2)
        ir = np.asfortranarray(rng.standard_normal((2, 64)) * 0.2)
        x = rng.standard_normal(31690)
        out = spatialize(x, HrirSet({0.0: ir}, SR), 0.0).samples
        ref = fftconvolve(x[np.newaxis], np.ascontiguousarray(ir), axes=-1)[:, :31690]
        assert np.array_equal(out, ref)
        # each ear's row is contiguous, so sums over the output (mix_at_snr's
        # powers) run in the same order as over a C-ordered oracle
        assert out.strides[1] == out.itemsize

    def test_next_fast_len_equals_scipy_up_to_20000(self):
        ours = [_next_fast_len(n) for n in range(1, 20001)]
        assert ours == [sp_fft.next_fast_len(n, True) for n in range(1, 20001)]

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 2 ** 24))
    def test_next_fast_len_equals_scipy(self, n):
        assert _next_fast_len(n) == sp_fft.next_fast_len(n, True)

    def test_output_truncated_to_input_length(self, rng):
        h = delta_hrirs([0.0], taps=128)
        assert spatialize(rng.standard_normal(50), h, 0.0).samples.shape == (2, 50)

    def test_non_mono_input_rejected(self, rng):
        h = delta_hrirs([0.0])
        with pytest.raises(ShapeMismatch):
            spatialize(rng.standard_normal((2, 100)), h, 0.0)


class TestDiffuseNoise:
    def test_unit_rms_and_shape(self, rng):
        h = delta_hrirs([-90.0, 0.0, 90.0], rng=rng)
        src = rng.standard_normal(SR * 4)
        noise = make_diffuse_noise(src, h, 0.5, seed=7)
        assert noise.samples.shape == (2, SR // 2)
        assert np.sqrt(np.mean(noise.samples ** 2)) == pytest.approx(1.0, rel=1e-12)

    def test_deterministic_in_seed(self, rng):
        h = delta_hrirs([-90.0, 0.0, 90.0], rng=rng)
        src = rng.standard_normal(SR * 4)
        a = make_diffuse_noise(src, h, 0.25, seed=3)
        b = make_diffuse_noise(src, h, 0.25, seed=3)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_different_seeds_draw_different_material(self, rng):
        h = delta_hrirs([-90.0, 0.0, 90.0], rng=rng)
        src = rng.standard_normal(SR * 8)
        a = make_diffuse_noise(src, h, 0.25, seed=1)
        b = make_diffuse_noise(src, h, 0.25, seed=2)
        assert np.max(np.abs(a.samples - b.samples)) > 1e-6

    def test_source_too_short_raises(self, rng):
        h = delta_hrirs([-90.0, 0.0, 90.0])
        with pytest.raises(NoiseSourceTooShort):
            make_diffuse_noise(rng.standard_normal(SR), h, 0.5, seed=0)

    def test_silent_source_raises(self):
        h = delta_hrirs([0.0])
        with pytest.raises(DegenerateMix):
            make_diffuse_noise(np.zeros(SR), h, 0.5, seed=0)

    def test_sums_one_segment_per_azimuth(self, rng):
        # with a single azimuth and a passthrough IR the left ear must equal
        # the normalized source segment
        h = delta_hrirs([0.0])
        src = rng.standard_normal(SR * 2)
        noise = make_diffuse_noise(src, h, 0.1, seed=5)
        n = SR // 10
        start_rng = np.random.default_rng(5)
        start = int(start_rng.integers(0, src.shape[0] - n + 1))
        seg = src[start : start + n]
        acc = np.zeros((2, n))
        acc[0] = seg
        acc[1, 1:] = 0.5 * seg[:-1]
        acc /= np.sqrt(np.mean(acc ** 2))
        np.testing.assert_allclose(noise.samples, acc, atol=1e-10)

    def test_equals_the_spectral_sum_of_the_azimuths(self, rng):
        h = delta_hrirs(range(-180, 180, 10), taps=64, rng=rng)
        n, seed = 4099, 11
        src = rng.standard_normal(n * len(h.azimuths) + 777)
        noise = make_diffuse_noise(src, h, n / SR, seed=seed)
        start = int(np.random.default_rng(seed).integers(0, 777 + 1))
        m = sp_fft.next_fast_len(n + 64 - 1, True)
        spec = 0
        for k, az in enumerate(h.azimuths):
            seg = src[start + k * n : start + (k + 1) * n]
            spec = spec + np.fft.rfft(seg[np.newaxis], m) * np.fft.rfft(h.entries[az], m)
        acc = np.fft.irfft(spec, m)[:, :n]
        assert np.array_equal(noise.samples, acc / np.sqrt(np.mean(acc ** 2)))

    @pytest.mark.parametrize("n", [1, 2, 4099])
    def test_within_rounding_of_the_per_azimuth_sum(self, rng, n):
        h = delta_hrirs(range(-180, 180, 10), taps=64, rng=rng)
        seed = 11
        src = rng.standard_normal(n * len(h.azimuths) + 777)
        noise = make_diffuse_noise(src, h, n / SR, seed=seed)
        start = int(np.random.default_rng(seed).integers(0, 777 + 1))
        acc = np.zeros((2, n))
        for k, az in enumerate(h.azimuths):
            acc += spatialize(src[start + k * n : start + (k + 1) * n], h, az).samples
        ref = acc / np.sqrt(np.mean(acc ** 2))
        assert np.max(np.abs(noise.samples - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("duration_s", [0.0, -0.5, 0.4 / SR])
    def test_under_one_sample_rejected(self, rng, duration_s):
        with pytest.raises(ValueError, match="under one sample"):
            make_diffuse_noise(rng.standard_normal(SR), delta_hrirs([0.0]), duration_s, seed=0)


class TestMixAtSnr:
    def test_hits_requested_snr_exactly(self, rng):
        s = Waveform(rng.standard_normal((2, 2000)) * 0.2, SR)
        n = Waveform(rng.standard_normal((2, 2000)), SR)
        for target in [-5.0, 0.0, 5.0, 15.0]:
            mix, report = mix_at_snr(s, n, target)
            assert report["measured_snr_db"] == pytest.approx(target, abs=1e-9)
            scaled = mix.samples - s.samples
            measured = 10 * np.log10(
                np.sum(s.samples ** 2) / np.sum(scaled ** 2)
            )
            assert measured == pytest.approx(target, abs=1e-9)

    def test_zero_snr_equalizes_total_power(self, rng):
        s = Waveform(rng.standard_normal((2, 1000)) * 3.0, SR)
        n = Waveform(rng.standard_normal((2, 1000)) * 0.1, SR)
        mix, report = mix_at_snr(s, n, 0.0)
        noise_part = mix.samples - s.samples
        assert np.sum(noise_part ** 2) == pytest.approx(np.sum(s.samples ** 2), rel=1e-9)

    def test_silent_inputs_raise(self, rng):
        s = Waveform(rng.standard_normal((2, 100)), SR)
        z = Waveform(np.zeros((2, 100)), SR)
        with pytest.raises(DegenerateMix):
            mix_at_snr(z, s, 0.0)
        with pytest.raises(DegenerateMix):
            mix_at_snr(s, z, 0.0)

    def test_length_mismatch_raises(self, rng):
        s = Waveform(rng.standard_normal((2, 100)), SR)
        n = Waveform(rng.standard_normal((2, 101)), SR)
        with pytest.raises(ShapeMismatch):
            mix_at_snr(s, n, 0.0)

    def test_rate_mismatch_raises(self, rng):
        s = Waveform(rng.standard_normal((2, 100)), SR)
        n = Waveform(rng.standard_normal((2, 100)), SR // 2)
        with pytest.raises(ShapeMismatch, match="speech 16000 Hz, noise 8000 Hz"):
            mix_at_snr(s, n, 0.0)


def write_corpus(tmp_path, rng, n_items=2, duration=0.5):
    """Speech, noise, and HRIR files plus a manifest on disk."""
    hrir_dir = tmp_path / "hrirs"
    hrir_dir.mkdir()
    for az in [-90.0, -30.0, 0.0, 30.0, 90.0]:
        ir = np.zeros((2, 64))
        ir[0, 0], ir[1, 3] = 1.0, 0.7
        ir += 0.02 * rng.standard_normal((2, 64))
        write_wav(hrir_dir / f"{az}.wav", ir, SR)
    n = int(SR * duration)
    speech = 0.3 * np.sin(2 * np.pi * 440 * np.arange(n) / SR) * rng.random(n)
    write_wav(tmp_path / "speech.wav", speech, SR)
    write_wav(tmp_path / "noise.wav", 0.2 * rng.standard_normal(SR * 8), SR)
    specs = [
        MixSpec(
            item_id=f"item{i:03d}",
            speech=str(tmp_path / "speech.wav"),
            noise=str(tmp_path / "noise.wav"),
            hrir_dir=str(hrir_dir),
            azimuth=float(30 * (i % 3) - 30),
            snr_db=float(5 * i - 5),
            seed=100 + i,
            duration_s=duration,
        )
        for i in range(n_items)
    ]
    manifest = tmp_path / "manifest.jsonl"
    with open(manifest, "w") as fh:
        for sp in specs:
            fh.write(json.dumps(sp.__dict__) + "\n")
    return specs, manifest


class TestManifestAndDataset:
    def test_manifest_round_trip(self, tmp_path, rng):
        specs, manifest = write_corpus(tmp_path, rng)
        loaded = read_manifest(manifest)
        assert loaded == specs

    def test_azimuth_outside_frontal_span_rejected(self):
        with pytest.raises(ValueError):
            MixSpec("x", "s", "n", "h", azimuth=120.0, snr_db=0.0, seed=0)

    @pytest.mark.parametrize("item_id", ["../x", "sub/item000"], ids=["parent", "subdir"])
    def test_item_id_with_a_path_separator_rejected(self, item_id):
        with pytest.raises(ValueError, match="holds a path separator"):
            synth.check_item_id(item_id)
        with pytest.raises(ValueError, match="holds a path separator"):
            MixSpec(item_id, "s", "n", "h", azimuth=0.0, snr_db=0.0, seed=0)

    def test_item_id_without_a_path_separator_accepted(self):
        for item_id in ("item000", "..", "a.b", 7):
            synth.check_item_id(item_id)

    @pytest.mark.parametrize("duration_s, snr_db, problem", [
        (0.0, 0.0, "duration_s must be positive and finite"),
        (-1.0, 0.0, "duration_s must be positive and finite"),
        (float("inf"), 0.0, "duration_s must be positive and finite"),
        (float("nan"), 0.0, "duration_s must be positive and finite"),
        (1.0, float("nan"), "snr_db must be finite"),
        (1.0, float("-inf"), "snr_db must be finite"),
    ])
    def test_duration_and_snr_out_of_range_rejected(self, duration_s, snr_db, problem):
        with pytest.raises(ValueError, match=problem):
            MixSpec("x", "s", "n", "h", azimuth=0.0, snr_db=snr_db, seed=0,
                    duration_s=duration_s)

    def test_synthesize_item_obeys_snr_and_duration(self, tmp_path, rng):
        specs, _ = write_corpus(tmp_path, rng)
        clean, noise, mixture, report = synthesize_item(specs[0], {})
        n = int(SR * specs[0].duration_s)
        assert clean.samples.shape == noise.samples.shape == (2, n)
        np.testing.assert_allclose(
            mixture.samples, clean.samples + (mixture.samples - clean.samples)
        )
        assert report["measured_snr_db"] == pytest.approx(specs[0].snr_db, abs=1e-6)

    def test_generate_dataset_is_deterministic(self, tmp_path, rng):
        specs, _ = write_corpus(tmp_path, rng)
        out1, out2 = tmp_path / "out1", tmp_path / "out2"
        r1 = generate_dataset(specs, out1)
        r2 = generate_dataset(specs, out2)
        assert r1["n_ok"] == r2["n_ok"] == len(specs)
        assert not r1["failures"]
        for sp in specs:
            for kind in ("clean", "noise", "mix"):
                a = read_wav(out1 / f"{sp.item_id}_{kind}.wav", SR)
                b = read_wav(out2 / f"{sp.item_id}_{kind}.wav", SR)
                np.testing.assert_array_equal(a, b)
        assert (out1 / "metadata.jsonl").read_text() == (out2 / "metadata.jsonl").read_text()

    def test_files_are_written_at_the_synthesis_rate(self, tmp_path, rng):
        specs, _ = write_corpus(tmp_path, rng, n_items=1)
        generate_dataset(specs, tmp_path / "out")
        assert synth.SAMPLE_RATE == SR
        for kind in ("clean", "noise", "mix"):        # another rate raises
            read_wav(tmp_path / "out" / f"{specs[0].item_id}_{kind}.wav", SR)

    def test_a_source_at_another_rate_rejected(self, tmp_path, rng):
        specs, _ = write_corpus(tmp_path, rng, n_items=1)
        write_wav(tmp_path / "speech.wav", 0.1 * rng.standard_normal(8000), 8000)
        with pytest.raises(UnsupportedFormat, match="sample rate 8000, expected 16000"):
            synthesize_item(specs[0], {})

    def test_mix_file_is_clean_plus_scaled_noise(self, tmp_path, rng):
        specs, _ = write_corpus(tmp_path, rng)
        out = tmp_path / "out"
        generate_dataset(specs, out)
        meta = [json.loads(l) for l in (out / "metadata.jsonl").read_text().splitlines()]
        for rec in meta:
            clean = read_stereo(out / f"{rec['item_id']}_clean.wav", SR)
            noise = read_stereo(out / f"{rec['item_id']}_noise.wav", SR)
            mix = read_stereo(out / f"{rec['item_id']}_mix.wav", SR)
            expected = clean.samples + rec["noise_scale"] * noise.samples
            np.testing.assert_allclose(mix.samples, expected, atol=1e-6)

    def test_each_source_is_loaded_once(self, tmp_path, rng, monkeypatch):
        specs, _ = write_corpus(tmp_path, rng, n_items=3)
        want = generate_dataset(specs, tmp_path / "want")
        loads = []

        def counted(load):
            def wrapper(path, **kwargs):
                loads.append(path)
                return load(path, **kwargs)
            return wrapper

        monkeypatch.setattr(synth, "load_hrir_dir", counted(synth.load_hrir_dir))
        monkeypatch.setattr(synth, "read_mono", counted(synth.read_mono))
        got = generate_dataset(specs, tmp_path / "got")
        assert sorted(loads) == sorted([specs[0].hrir_dir, specs[0].speech, specs[0].noise])
        assert got["n_ok"] == want["n_ok"] == len(specs)
        for sp in specs:
            for kind in ("clean", "noise", "mix"):
                name = f"{sp.item_id}_{kind}.wav"
                assert (tmp_path / "got" / name).read_bytes() == (tmp_path / "want" / name).read_bytes()

    def test_per_item_failures_are_collected(self, tmp_path, rng):
        specs, _ = write_corpus(tmp_path, rng)
        specs[0].speech = str(tmp_path / "missing.wav")
        result = generate_dataset(specs, tmp_path / "out")
        assert result["n_ok"] == len(specs) - 1
        assert result["failures"][0]["item_id"] == specs[0].item_id

    def test_an_item_the_noise_cannot_fill_is_refused_before_allocating(self, tmp_path, rng):
        """A 60 s item from an 8 s noise source over 5 azimuths is refused
        with under 1 MB traced: the noise is rendered before the speech is
        padded to 60 s (7.7 MB) and spatialized."""
        specs, _ = write_corpus(tmp_path, rng)
        loaded = {}
        synthesize_item(specs[0], loaded)           # every source loaded, untraced
        tracemalloc.start()
        try:
            with pytest.raises(NoiseSourceTooShort):
                synthesize_item(dataclasses.replace(specs[0], duration_s=60.0), loaded)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6
