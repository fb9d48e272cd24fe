import importlib
import runpy
from pathlib import Path

import numpy as np
import pytest

from binse.audio import Waveform
from binse.config import RunConfig
from binse.frontend import frame_count, stft
from binse.params import init_random
from binse.pipeline import pad_to_frame_grid
from binse.profiler import (
    ComplexityReport,
    count_macs,
    count_params,
    full_report,
)
from conftest import small_config


def manual_param_count(model):
    """Independent oracle: walk the tensor directory, complex counts double."""
    total = 0
    for arr in model.tensors.values():
        total += arr.size * (2 if np.iscomplexobj(arr) else 1)
    return total


class TestCountParams:
    def test_matches_tensor_walk_oracle(self):
        for cfg in [small_config(), small_config(channels=16), RunConfig()]:
            model = init_random(cfg, seed=0)
            report = count_params(model)
            assert report.n_params == manual_param_count(model)
            report.check_totals()

    def test_rows_cover_the_three_modules(self):
        report = count_params(init_random(small_config(), seed=0))
        assert set(report.param_rows) == {"encoder", "modulator", "decoder"}
        assert all(v > 0 for v in report.param_rows.values())

    def test_default_architecture_hits_budget(self):
        """Total must sit within 10% of the 129.0K reference budget."""
        report = count_params(init_random(RunConfig(), seed=0))
        assert 116_000 <= report.n_params <= 142_000
        assert report.n_params == 127_649

    def test_claims_no_audio(self):
        """A parameter count counts no audio, so it states no duration."""
        assert count_params(init_random(small_config(), seed=0)).audio_seconds is None

    def test_independent_of_seed(self):
        cfg = small_config()
        a = count_params(init_random(cfg, seed=1))
        b = count_params(init_random(cfg, seed=2))
        assert a.n_params == b.n_params

    def test_scales_quadratically_in_channels(self):
        p8 = count_params(init_random(small_config(channels=8), seed=0)).n_params
        p16 = count_params(init_random(small_config(channels=16), seed=0)).n_params
        p32 = count_params(init_random(small_config(channels=32), seed=0)).n_params
        # second difference of a quadratic is constant-positive and dominates
        assert (p32 - p16) > 2 * (p16 - p8)


class TestCountMacs:
    def test_default_architecture_hits_budget(self):
        """One second of audio within 20% of the 2.79 GMAC reference."""
        report = count_macs(RunConfig(), audio_seconds=1.0)
        assert 2.2e9 <= report.macs <= 3.4e9
        report.check_totals()

    @pytest.mark.parametrize("seconds, frames", [(0.01, 1), (0.5, 62), (1.0, 124), (1.01, 126)])
    def test_counts_the_frames_enhance_runs(self, seconds, frames):
        """Off the frame grid, the count is that of the input padded to it,
        whose frames stft gives."""
        cfg = RunConfig()
        a = cfg.analysis
        w = Waveform(np.zeros((2, round(seconds * a.sample_rate))), a.sample_rate)
        assert stft(pad_to_frame_grid(w, cfg), a).bins.shape[2] == frames
        on_grid = (a.fft_size + (frames - 1) * a.hop) / a.sample_rate
        assert count_macs(cfg, seconds).macs == count_macs(cfg, on_grid).macs

    def test_affine_in_duration(self):
        """Frame-linear terms dominate: equal frame increments add equal MACs."""
        cfg = RunConfig()
        m1 = count_macs(cfg, 1.0).macs
        m2 = count_macs(cfg, 2.0).macs
        m3 = count_macs(cfg, 3.0).macs
        assert (m3 - m2) == (m2 - m1)
        assert m2 > m1 > 0

    @pytest.mark.parametrize("flag", ["no_gammatone", "no_gafm", "no_drg", "global_drg"])
    def test_ablation_drops_only_the_stages_it_skips(self, flag):
        full = RunConfig()
        c, f, ng = full.channels, full.analysis.n_freq_bins, full.n_gammatone
        t = frame_count(full.analysis.sample_rate, full.analysis)
        gamma_blocks = sum((2 if i == 0 else c) * (full.kernel_time + c) * ng * t * 4
                           for i in range(full.n_encoder_blocks))
        skipped = {
            "no_gammatone": {"encoder": gamma_blocks + c * f * ng * t * 2 + c * c * f * t},
            "no_gafm": {"modulator": count_macs(full, 1.0).mac_rows["modulator"]},
            "no_drg": {"decoder": c * f},
            "global_drg": {"decoder": c * f},
        }[flag]
        rows = count_macs(RunConfig(**{flag: True}), 1.0).mac_rows
        for module, macs in count_macs(full, 1.0).mac_rows.items():
            assert rows[module] == macs - skipped.get(module, 0)
        if flag == "no_gammatone":
            assert rows["encoder"] == 445_971_680

    def test_encoder_row_matches_hand_derivation_tiny_case(self):
        """Close the loop on the counting conventions with a 1-block config."""
        cfg = small_config(channels=4, n_encoder_blocks=1, n_gammatone=4)
        report = count_macs(cfg, audio_seconds=1.0)
        a = cfg.analysis
        t = (a.sample_rate - a.fft_size) // a.hop + 1
        f = a.n_freq_bins
        c, ng, k1 = 4, 4, cfg.kernel_time
        expected = 0
        expected += (2 * k1 + 2 * c) * f * t * 4        # STFT stream block
        expected += (2 * k1 + 2 * c) * ng * t * 4       # gammatone stream block
        expected += c * f * ng * t * 2                  # real projection of complex data
        expected += c * c * f * t                       # fusion conv on magnitudes
        expected += 2 * c * (c // cfg.se_reduction)     # SE excitation
        assert report.mac_rows["encoder"] == expected

    @pytest.mark.parametrize("seconds, problem", [
        *((s, "audio_seconds must be positive and finite") for s in
          [float("inf"), float("nan"), 0.0, -1.0, float("-inf")]),
        (1e-5, "audio_seconds must hold at least one sample at 16000 Hz, got 1e-05"),
    ], ids=["inf", "nan", "0", "-1", "-inf", "1e-5"])
    def test_a_duration_of_no_samples_raises(self, seconds, problem):
        with pytest.raises(ValueError, match=problem):
            count_macs(RunConfig(), seconds)

    def test_decoder_row_matches_hand_derivation_tiny_case(self):
        cfg = small_config(channels=4, n_decoder_blocks=1)
        report = count_macs(cfg, audio_seconds=1.0)
        a = cfg.analysis
        t = (a.sample_rate - a.fft_size) // a.hop + 1
        f = a.n_freq_bins
        c = 4
        kf, kt = cfg.kernel_2d
        per_head = (c * kf * kt + c * c) * f * t * 4 + c * f * t * 4
        assert report.mac_rows["decoder"] == 2 * per_head + c * f


class TestFullReport:
    def test_combines_rows_consistently(self):
        cfg = small_config()
        model = init_random(cfg, seed=0)
        report = full_report(model, cfg, audio_seconds=2.0, with_rtf=False, repeats=20)
        report.check_totals()
        assert report.audio_seconds == 2.0
        assert report.rtf is None
        assert report.n_params == count_params(model).n_params
        assert report.macs == count_macs(cfg, 2.0).macs

    def test_with_rtf(self):
        cfg = small_config()
        model = init_random(cfg, seed=0)
        report = full_report(model, cfg, audio_seconds=1.0, with_rtf=True, repeats=3)
        assert report.rtf is not None and 0.0 < report.rtf < 1.0     # a small model is fast
        assert report.cpu_s > 0 and report.workers >= 1

    @pytest.mark.parametrize("with_rtf", [False, True])
    def test_repeats_below_one_raise(self, with_rtf):
        cfg = small_config()
        with pytest.raises(ValueError, match="repeats must be at least 1, got 0"):
            full_report(init_random(cfg, seed=0), cfg, audio_seconds=1.0,
                        with_rtf=with_rtf, repeats=0)

    @pytest.mark.parametrize("with_rtf", [False, True])
    def test_a_duration_of_no_samples_raises_before_timing(self, with_rtf, monkeypatch):
        from binse import profiler

        def no_enhance(*args, **kwargs):
            raise AssertionError("timed a duration of no samples")

        monkeypatch.setattr(profiler, "enhance", no_enhance)
        cfg = small_config()
        with pytest.raises(ValueError, match="audio_seconds must be positive and finite"):
            full_report(init_random(cfg, seed=0), cfg, audio_seconds=0.0,
                        with_rtf=with_rtf, repeats=20)

    def test_check_totals_catches_inconsistency(self):
        bad = ComplexityReport(n_params=10, param_rows={"encoder": 5})
        with pytest.raises(AssertionError):
            bad.check_totals()


def test_benchmark_trace_targets_resolve():
    """The benchmark's trace mode wraps each (module, attr) of its TARGETS,
    looked up with getattr, so every one must name a callable in binse. Each
    is defined in the module its span is named after, not re-exported there,
    so that a span's self time is that layer's own work."""
    tracing = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"))
    for span, module, attr in tracing["TARGETS"]:
        assert module.split(".")[0] == "binse"
        fn = getattr(importlib.import_module(module), attr, None)
        assert callable(fn), f"{module}.{attr}"
        assert fn.__module__ == module == "binse." + span.split(".")[0], f"{module}.{attr}"
