import functools
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binse import losses, pipeline, workers
from binse.audio import Waveform
from binse.config import AnalysisConfig, RunConfig
from binse.decoder import blend, ratf_solve
from binse.errors import InvariantViolation, ShapeMismatch
from binse.frontend import build_gammatone_bank, gammatone_frames, istft, stft
from binse.params import init_random
from binse.pipeline import enhance, pad_to_frame_grid
from conftest import on_a_fresh_pool, rand_complex, recalibrate_by_own_squeeze, small_config

SR = 16000


@pytest.fixture(scope="module")
def setup():
    cfg = small_config()
    model = init_random(cfg, seed=0)
    bank = build_gammatone_bank(
        cfg.analysis, cfg.n_gammatone, cfg.gammatone_lo_hz,
        cfg.gammatone_hi_hz, cfg.gammatone_taps,
    )
    return cfg, model, bank


def make_wave(rng, n=8000):
    return Waveform(0.2 * rng.standard_normal((2, n)), SR)


class TestPadToFrameGrid:
    def test_already_on_grid_is_unchanged(self, setup):
        cfg, _, _ = setup
        w = Waveform(np.ones((2, 256 + 5 * 128)), SR)
        assert pad_to_frame_grid(w, cfg) is w

    def test_pads_up_to_next_frame_boundary(self, setup):
        cfg, _, _ = setup
        for n in [100, 256, 257, 300, 384, 385, 5000]:
            w = Waveform(np.ones((2, n)), SR)
            out = pad_to_frame_grid(w, cfg)
            m = out.n_samples
            assert m >= max(n, 256)
            assert (m - 256) % 128 == 0
            assert m - n < 128 or n < 256
            np.testing.assert_array_equal(out.samples[:, :n], w.samples)
            np.testing.assert_array_equal(out.samples[:, n:], 0.0)


class TestEnhance:
    def test_output_matches_input_length_and_rate(self, setup, rng):
        cfg, model, bank = setup
        for n in [256, 1000, 8000, 8191]:
            w = make_wave(rng, n)
            res = enhance(w, model, cfg, bank=bank)
            assert res.wav_out.n_samples == n
            assert res.wav_out.sample_rate == SR
            assert np.all(np.isfinite(res.wav_out.samples))

    def test_gate_shape_and_range(self, setup, rng):
        cfg, model, bank = setup
        res = enhance(make_wave(rng), model, cfg, bank=bank)
        assert res.gate.shape == (cfg.analysis.n_freq_bins,)
        assert np.all(res.gate > 0) and np.all(res.gate < 1)

    def test_deterministic(self, setup, rng):
        cfg, model, bank = setup
        w = make_wave(rng)
        a = enhance(w, model, cfg, bank=bank)
        b = enhance(w, model, cfg, bank=bank)
        np.testing.assert_array_equal(a.wav_out.samples, b.wav_out.samples)
        np.testing.assert_array_equal(a.gate, b.gate)

    def test_bank_is_built_once_per_config(self, setup, rng, monkeypatch):
        cfg, model, bank = setup
        pipeline.gammatone_bank.cache_clear()
        calls = []
        build = pipeline.build_gammatone_bank

        def counting(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(pipeline, "build_gammatone_bank", counting)
        w = make_wave(rng)
        a = enhance(w, model, cfg)
        b = enhance(w, model, cfg)
        assert len(calls) == 1
        assert not pipeline.gammatone_bank(cfg).spectra.flags.writeable
        given = enhance(w, model, cfg, bank=bank)
        np.testing.assert_array_equal(a.wav_out.samples, given.wav_out.samples)
        np.testing.assert_array_equal(b.wav_out.samples, given.wav_out.samples)

    def test_zero_gate_override_passes_input_through(self, setup, rng):
        """With g = 0 the blend returns the noisy spectrogram, so the output
        is the iSTFT round trip of the input (near-exact on the interior)."""
        cfg, model, bank = setup
        w = make_wave(rng, 8192)
        res = enhance(w, model, cfg, bank=bank, gate_override=np.zeros(129))
        interior = slice(256, 8192 - 256)
        err = np.linalg.norm(res.wav_out.samples[:, interior] - w.samples[:, interior])
        assert err / np.linalg.norm(w.samples[:, interior]) < 1e-5
        np.testing.assert_array_equal(res.gate, 0.0)

    def test_unit_gate_override_returns_pure_estimate(self, setup, rng):
        cfg, model, bank = setup
        w = make_wave(rng, 4096)
        res = enhance(
            w, model, cfg, bank=bank, gate_override=np.ones(129), collect_stages=True
        )
        np.testing.assert_array_equal(res.stages["s_final"], res.stages["s_hat"])

    def test_scalar_gate_override_broadcasts(self, setup, rng):
        cfg, model, bank = setup
        res = enhance(make_wave(rng, 2048), model, cfg, bank=bank, gate_override=0.5)
        np.testing.assert_array_equal(res.gate, 0.5)

    def test_sample_rate_mismatch_raises(self, setup):
        cfg, model, bank = setup
        w = Waveform(np.zeros((2, 4000)), 8000)
        with pytest.raises(ShapeMismatch):
            enhance(w, model, cfg, bank=bank)

    def test_fingerprint_mismatch_raises(self, setup, rng):
        cfg, model, _ = setup
        other = small_config(channels=16)
        wrong_model = init_random(other, seed=0)
        with pytest.raises(InvariantViolation):
            enhance(make_wave(rng, 2048), wrong_model, cfg)

    def test_non_finite_network_output_is_an_invariant_violation(self, setup, rng):
        cfg, _, bank = setup
        model = init_random(cfg, seed=0)
        bias = model.decoder.head_s_proj.bias.copy()
        bias[0] = np.nan
        model.decoder.head_s_proj.bias = bias
        with np.errstate(all="ignore"), pytest.raises(InvariantViolation):
            enhance(make_wave(rng, 4096), model, cfg, bank=bank)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int16])
    def test_a_dtype_that_is_not_complex_raises(self, setup, rng, dtype):
        """A real dtype would drop the spectrum's imaginary part."""
        cfg, model, bank = setup
        with pytest.raises(ValueError, match=f"dtype must be complex, got {np.dtype(dtype)}"):
            enhance(make_wave(rng, 2048), model, cfg, bank=bank, dtype=dtype)

    def test_float64_network_close_to_float32(self, setup, rng):
        cfg, model, bank = setup
        w = make_wave(rng, 4096)
        a = enhance(w, model, cfg, bank=bank, dtype=np.complex64)
        b = enhance(w, model, cfg, bank=bank, dtype=np.complex128)
        scale = np.max(np.abs(b.wav_out.samples)) + 1e-12
        assert np.max(np.abs(a.wav_out.samples - b.wav_out.samples)) / scale < 1e-3


class TestStageDumps:
    def test_stage_keys_present(self, setup, rng):
        cfg, model, bank = setup
        res = enhance(make_wave(rng, 4096), model, cfg, bank=bank, collect_stages=True)
        expected = {
            "noisy_spec", "z_gamma", "z_stft", "z_attended", "z_backbone",
            "z_out", "ratf_s", "ratf_n", "s_hat", "gate", "s_final",
        }
        assert set(res.stages) == expected

    @pytest.mark.parametrize("flag", [None, "no_gammatone", "no_gafm", "global_drg"])
    def test_stage_shapes(self, flag):
        """Network stages are (C, F, T) with no batch axis, the RATFs (F, T),
        the gate (F,), and the spectra (2, F, T), in the dtype they run in."""
        cfg = small_config(**({flag: True} if flag else {}))
        model = init_random(cfg, seed=0)
        w = make_wave(np.random.default_rng(1), 4096)
        c, f, t = cfg.channels, cfg.analysis.n_freq_bins, (4096 - 256) // 128 + 1
        for dtype in (np.complex64, np.complex128):
            res = enhance(w, model, cfg, collect_stages=True, dtype=dtype)
            shapes = {name: a.shape for name, a in res.stages.items()}
            network = {"z_stft", "z_attended", "z_backbone", "z_out"}
            if flag != "no_gammatone":
                network.add("z_gamma")
            assert shapes == {**{name: (c, f, t) for name in network},
                              "ratf_s": (f, t), "ratf_n": (f, t), "gate": (f,),
                              "noisy_spec": (2, f, t), "s_hat": (2, f, t),
                              "s_final": (2, f, t)}
            for name in network | {"ratf_s", "ratf_n"}:
                assert res.stages[name].dtype == dtype, name
            assert res.ratfs.w_s.shape == res.ratfs.w_n.shape == (f, t)
            assert res.gate.shape == (f,)

    def test_stages_empty_unless_requested(self, setup, rng):
        cfg, model, bank = setup
        res = enhance(make_wave(rng, 2048), model, cfg, bank=bank)
        assert res.stages == {}

    def test_stage_consistency_recomputation(self, setup, rng):
        """Each dumped stage must be reproducible from its predecessor."""
        from binse.decoder import RatfPair, decode_heads, refinement_gate
        from binse.encoder import fuse
        from binse.frontend import Spectrogram
        from binse.modulator import modulator_block

        cfg, model, bank = setup
        w = make_wave(rng, 4096)
        res = enhance(w, model, cfg, bank=bank, collect_stages=True)
        st = res.stages
        y = Spectrogram(st["noisy_spec"], cfg.analysis)

        z_att = fuse(st["z_stft"], st["z_gamma"], model.encoder,
                     out=np.empty_like(st["z_stft"]))
        np.testing.assert_allclose(z_att, st["z_attended"], rtol=1e-6, atol=1e-7)
        z_bb = recalibrate_by_own_squeeze(st["z_attended"], model.encoder)
        np.testing.assert_allclose(z_bb, st["z_backbone"], rtol=1e-6, atol=1e-7)
        z_out = modulator_block(st["z_backbone"], model.modulator,
                                out=np.empty_like(st["z_backbone"]))
        np.testing.assert_allclose(z_out, st["z_out"], rtol=1e-6, atol=1e-7)
        ratfs = decode_heads(st["z_out"], model.decoder, [(0, st["z_out"].shape[1])])
        np.testing.assert_allclose(ratfs.w_s, st["ratf_s"], rtol=1e-6, atol=1e-7)
        np.testing.assert_allclose(ratfs.w_n, st["ratf_n"], rtol=1e-6, atol=1e-7)
        s_hat = ratf_solve(y, RatfPair(st["ratf_s"], st["ratf_n"]), eps=cfg.eps_ratf)
        np.testing.assert_allclose(s_hat.bins, st["s_hat"], rtol=1e-5, atol=1e-6)
        g = refinement_gate(st["z_out"], model.decoder)
        np.testing.assert_allclose(g, st["gate"], rtol=1e-5, atol=1e-7)
        s_final = blend(Spectrogram(st["s_hat"], cfg.analysis), y, st["gate"])
        np.testing.assert_allclose(s_final.bins, st["s_final"], rtol=1e-6, atol=1e-8)
        rec = istft(Spectrogram(st["s_final"], cfg.analysis))
        np.testing.assert_allclose(
            rec.samples[:, :4096], res.wav_out.samples, rtol=1e-6, atol=1e-9
        )


class TestAblations:
    def test_no_gammatone_skips_the_auditory_stream(self, setup, rng):
        cfg, model, _ = setup
        cfg_ab = small_config(no_gammatone=True)
        model_ab = init_random(cfg_ab, seed=0)
        w = make_wave(rng, 4096)
        res = enhance(w, model_ab, cfg_ab, collect_stages=True)
        assert "z_gamma" not in res.stages
        assert np.all(np.isfinite(res.wav_out.samples))

    def test_no_gafm_backbone_is_identity(self, setup, rng):
        cfg_ab = small_config(no_gafm=True)
        model_ab = init_random(cfg_ab, seed=0)
        res = enhance(make_wave(rng, 4096), model_ab, cfg_ab, collect_stages=True)
        np.testing.assert_array_equal(res.stages["z_backbone"], res.stages["z_out"])

    def test_no_drg_gate_is_all_ones(self, rng):
        cfg_ab = small_config(no_drg=True)
        model_ab = init_random(cfg_ab, seed=0)
        res = enhance(make_wave(rng, 4096), model_ab, cfg_ab)
        np.testing.assert_array_equal(res.gate, 1.0)

    def test_global_drg_gate_is_input_independent(self, rng):
        from binse.decoder import global_gate

        cfg_ab = small_config(global_drg=True)
        model_ab = init_random(cfg_ab, seed=0)
        a = enhance(make_wave(rng, 4096), model_ab, cfg_ab)
        b = enhance(make_wave(rng, 6000), model_ab, cfg_ab)
        np.testing.assert_array_equal(a.gate, b.gate)
        np.testing.assert_allclose(a.gate, global_gate(model_ab.decoder), rtol=1e-12)

    def test_ablation_flags_change_the_fingerprint_only_when_structural(self):
        base = small_config()
        # gate policy flags reuse the same weights; stream removal does not
        assert small_config(no_drg=True).fingerprint() == base.fingerprint()
        assert small_config(global_drg=True).fingerprint() == base.fingerprint()
        assert small_config(no_gafm=True).fingerprint() == base.fingerprint()
        assert small_config(no_gammatone=True).fingerprint() == base.fingerprint()


class TestEndToEndBehaviour:
    def test_enhancement_changes_the_signal(self, setup, rng):
        cfg, model, bank = setup
        w = make_wave(rng, 8000)
        res = enhance(w, model, cfg, bank=bank)
        assert np.max(np.abs(res.wav_out.samples - w.samples)) > 1e-8

    def test_silence_maps_to_silence(self, setup):
        cfg, model, bank = setup
        w = Waveform(np.zeros((2, 4096)), SR)
        res = enhance(w, model, cfg, bank=bank)
        # zero input -> zero spectrogram -> RATF solve of zeros -> zeros
        np.testing.assert_allclose(res.wav_out.samples, 0.0, atol=1e-20)


# --- the frequency-tiled plan ------------------------------------------------

def rel_l2(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def enhance_in_tiles(w, model, cfg, bank, tile_bytes, **kwargs):
    """enhance on tiles of tile_bytes, down to one row: without the plan's
    floor, so that small budgets give 1- and 2-row tiles."""
    with mock.patch.multiple(pipeline, _TILE_BYTES=tile_bytes, _TILE_MIN_ROWS=1):
        return enhance(w, model, cfg, bank=bank, **kwargs)


ONE_TILE = 1 << 62      # a tile budget that holds every row


def assert_tiling_is_exact(w, model, cfg, bank, tile_bytes, dtype=np.complex64):
    """The tiled plan gives the one-tile plan's waveform, RATFs, gate and
    stages bit for bit: every product and sum runs per frequency row."""
    tiled = enhance_in_tiles(w, model, cfg, bank, tile_bytes, collect_stages=True, dtype=dtype)
    one = enhance_in_tiles(w, model, cfg, bank, ONE_TILE, collect_stages=True, dtype=dtype)
    np.testing.assert_array_equal(tiled.wav_out.samples, one.wav_out.samples)
    np.testing.assert_array_equal(tiled.ratfs.w_s, one.ratfs.w_s)
    np.testing.assert_array_equal(tiled.ratfs.w_n, one.ratfs.w_n)
    np.testing.assert_array_equal(tiled.gate, one.gate)
    assert tiled.stages.keys() == one.stages.keys()
    for name, want in one.stages.items():
        np.testing.assert_array_equal(tiled.stages[name], want, err_msg=name)
    return tiled


def tile_budget(cfg, w, rows, dtype=np.complex64):
    """Bytes of ``rows`` rows of one (C, F, T) tensor of w."""
    t = stft(pad_to_frame_grid(w, cfg), cfg.analysis).bins.shape[2]
    return rows * cfg.channels * t * np.dtype(dtype).itemsize


@functools.lru_cache(maxsize=None)
def seeded_model(channels):
    return init_random(small_config(channels=channels), seed=0)


@st.composite
def row_ranges(draw):
    f = draw(st.integers(1, 12))
    lo = draw(st.integers(0, f - 1))
    return dict(channels=draw(st.sampled_from([8, 80])), f=f, t=draw(st.integers(1, 40)),
                rows=(lo, draw(st.integers(lo + 1, f))),
                dtype=draw(st.sampled_from([np.complex64, np.complex128])),
                seed=draw(st.integers(0, 2**31 - 1)))


@settings(max_examples=60, deadline=None)
@given(row_ranges())
def test_kernels_compute_each_row_alone(case):
    """Each per-row kernel of the plan, run on rows lo:hi of a tensor (one
    row included), gives those rows of the whole tensor bit for bit, and the
    decoder heads run over tiles give the heads run on one tile."""
    from binse.complex_ops import clinear, lightconv
    from binse.decoder import decode_heads, refinement_gate
    from binse.encoder import fuse
    from binse.modulator import modulator_block

    model = seeded_model(case["channels"])
    rng = np.random.default_rng(case["seed"])
    f = case["f"]
    x, g = (rand_complex(rng, (case["channels"], f, case["t"])).astype(case["dtype"])
            for _ in range(2))
    lo, hi = case["rows"]
    enc, dec = model.encoder, model.decoder
    kernels = {
        "clinear": lambda a, b: clinear(x[:, a:b], model.modulator.proj),
        "fuse": lambda a, b: fuse(x[:, a:b], g[:, a:b], enc, out=np.empty_like(x[:, a:b])),
        "lightconv_1d": lambda a, b: lightconv(x[:, a:b], enc.stft_blocks[1]),
        "lightconv_2d": lambda a, b: lightconv(x, dec.head_s[0], rows=(a, b)),
        "modulator_block": lambda a, b: modulator_block(x[:, a:b], model.modulator,
                                                          out=np.empty_like(x[:, a:b])),
        "refinement_gate": lambda a, b: refinement_gate(x[:, a:b], dec)[None],
    }
    for name, kernel in kernels.items():
        np.testing.assert_array_equal(kernel(lo, hi), kernel(0, f)[:, lo:hi], err_msg=name)
    tiled = decode_heads(x, dec, [(0, lo), (lo, hi), (hi, f)])
    one = decode_heads(x, dec, [(0, f)])
    np.testing.assert_array_equal(tiled.w_s, one.w_s)
    np.testing.assert_array_equal(tiled.w_n, one.w_n)


class TestTiledPlan:
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 12000), rows=st.sampled_from([1, 2, 5, 17, 64]),
           seed=st.integers(0, 2**31 - 1), dtype=st.sampled_from([np.complex64, np.complex128]))
    def test_tiles_match_the_one_tile_plan(self, setup, n, rows, seed, dtype):
        cfg, model, bank = setup
        w = make_wave(np.random.default_rng(seed), n)
        assert_tiling_is_exact(w, model, cfg, bank, tile_budget(cfg, w, rows, dtype), dtype)

    @pytest.mark.parametrize("rows", [1, 7])
    def test_waveform_within_the_precision_budget(self, setup, rows):
        """A seeded 2 s mixture, tiled: the waveform equals the one-tile
        plan's bit for bit in both dtypes, so tiling adds nothing to the
        one-tile plan's complex64-vs-complex128 distance."""
        cfg, model, bank = setup
        w = binaural_mixture(np.random.default_rng(0), 2 * SR)
        for dtype in (np.complex64, np.complex128):
            assert_tiling_is_exact(w, model, cfg, bank, tile_budget(cfg, w, rows, dtype), dtype)

    @pytest.mark.parametrize("tile_bytes", [1, pipeline._TILE_BYTES])
    def test_default_config_tiles_match_the_one_tile_plan(self, tile_bytes):
        cfg = RunConfig()
        w = make_wave(np.random.default_rng(0), 2 * SR)
        assert_tiling_is_exact(w, init_random(cfg, seed=0), cfg, pipeline.gammatone_bank(cfg),
                               tile_bytes)

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    @pytest.mark.parametrize("rows", [1, 5])
    def test_more_bands_than_rows_match_the_one_tile_plan(self, dtype, rows):
        """40 gammatone bands over F = 33 rows, where z_att is a strided view
        of the encoded-band buffer."""
        cfg = small_config(n_gammatone=40, analysis=AnalysisConfig(fft_size=64, hop=32))
        model = init_random(cfg, seed=0)
        w = make_wave(np.random.default_rng(5), 4096)
        assert_tiling_is_exact(w, model, cfg, pipeline.gammatone_bank(cfg),
                               tile_budget(cfg, w, rows, dtype), dtype)

    @pytest.mark.parametrize("tile_bytes", [1, 3 * 8 * 32 * 8])
    def test_no_row_is_computed_twice(self, setup, rng, monkeypatch, tile_bytes):
        from binse import decoder

        cfg, model, bank = setup
        counts, lock = {}, threading.Lock()     # the plan's units run on worker threads
        modulate, conv = pipeline.modulator_block, decoder.lightconv

        def counted_modulator(z, p, out=None):
            with lock:
                counts["modulator"] = counts.get("modulator", 0) + z.shape[1]
            return modulate(z, p, out=out)

        def counted_lightconv(x, p, rows=None, out=None):
            key = id(p)
            with lock:
                counts[key] = counts.get(key, 0) + (rows[1] - rows[0])
            return conv(x, p, rows=rows, out=out)

        monkeypatch.setattr(pipeline, "modulator_block", counted_modulator)
        monkeypatch.setattr(decoder, "lightconv", counted_lightconv)
        enhance_in_tiles(make_wave(rng, 4096), model, cfg, bank, tile_bytes)
        blocks = model.decoder.head_s + model.decoder.head_n
        assert set(counts) == {"modulator"} | {id(b) for b in blocks}
        assert set(counts.values()) == {cfg.analysis.n_freq_bins}

    @pytest.mark.parametrize("flag", ["no_gammatone", "no_gafm", "no_drg", "global_drg"])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_ablations_match_their_one_tile_plan(self, flag, rows):
        cfg = small_config(**{flag: True})
        model = init_random(cfg, seed=0)
        w = make_wave(np.random.default_rng(3), 4096)
        assert_tiling_is_exact(w, model, cfg, pipeline.gammatone_bank(cfg),
                               tile_budget(cfg, w, rows))

    def test_stage_dump_is_whole_and_equals_the_plain_call(self, setup, rng):
        cfg, model, bank = setup
        w = make_wave(rng, 4096)
        f, t = cfg.analysis.n_freq_bins, (4096 - 256) // 128 + 1
        for tile_bytes in (pipeline._TILE_BYTES, 1):
            res = enhance_in_tiles(w, model, cfg, bank, tile_bytes, collect_stages=True)
            for name in ("z_gamma", "z_stft", "z_attended", "z_backbone", "z_out"):
                assert res.stages[name].shape == (cfg.channels, f, t)
            plain = enhance_in_tiles(w, model, cfg, bank, tile_bytes)
            np.testing.assert_array_equal(res.wav_out.samples, plain.wav_out.samples)
            np.testing.assert_array_equal(res.ratfs.w_s, plain.ratfs.w_s)
            np.testing.assert_array_equal(res.gate, plain.gate)

    @pytest.mark.parametrize("collect_stages", [False, True])
    def test_blocks_are_handed_one_tile(self, monkeypatch, collect_stages):
        """Every light-conv block of a default-config 2 s call on a pool of 2
        computes at most one plan tile of rows (6), plus the decoder's lag of
        k_f // 2 rows per 2-D block, with or without a stage dump."""
        from binse import decoder, encoder

        cfg = RunConfig()
        model = init_random(cfg, seed=0)
        w = make_wave(np.random.default_rng(0), 2 * SR)
        f, t = stft(pad_to_frame_grid(w, cfg), cfg.analysis).bins.shape[1:]
        # rows of one (C, rows, T) complex64 tensor in the plan's tile budget,
        # above the floor at 2 s
        budget = pipeline._TILE_BYTES // (cfg.channels * t * 8)
        assert budget > pipeline._TILE_MIN_ROWS
        # the rows in budget need 22 tiles, a multiple of the pool of 2
        need = -(-f // budget)
        step = -(-f // (need + need % 2))
        monkeypatch.setattr(workers, "size", lambda: 2)
        lag = sum(block.depthwise.shape[1] // 2 for block in model.decoder.head_s)
        largest, lock = {}, threading.Lock()    # the plan's units run on worker threads

        def sized(module):
            conv = module.lightconv

            def counted(x, p, rows=None, out=None):
                n = x.shape[1] if rows is None else rows[1] - rows[0]
                with lock:
                    largest[module.__name__] = max(largest.get(module.__name__, 0), n)
                return conv(x, p, rows=rows, out=out)

            monkeypatch.setattr(module, "lightconv", counted)

        sized(encoder)
        sized(decoder)
        enhance(w, model, cfg, collect_stages=collect_stages)
        assert (budget, step) == (6, 6)
        assert 0 < largest["binse.encoder"] <= step
        assert 0 < largest["binse.decoder"] <= step + lag

    @pytest.mark.parametrize("seconds", [0.5, 2])
    def test_outputs_do_not_depend_on_the_pool_size(self, seconds):
        """The pool size sets the tile counts (rows 3 or 4 tiles at 0.5 s,
        bands 5 or 6 tiles at 2 s), and no output bit."""
        cfg = RunConfig()
        model = init_random(cfg, seed=0)
        w = make_wave(np.random.default_rng(0), int(seconds * SR))
        one, two = (on_a_fresh_pool(lambda: cpus, lambda: enhance(w, model, cfg,
                                                                  collect_stages=True))
                    for cpus in (1, 2))
        np.testing.assert_array_equal(one.wav_out.samples, two.wav_out.samples)
        np.testing.assert_array_equal(one.ratfs.w_s, two.ratfs.w_s)
        np.testing.assert_array_equal(one.ratfs.w_n, two.ratfs.w_n)
        np.testing.assert_array_equal(one.gate, two.gate)
        assert one.stages.keys() == two.stages.keys()
        for name, want in one.stages.items():
            np.testing.assert_array_equal(two.stages[name], want, err_msg=name)

    @pytest.mark.parametrize(
        "kind", ["n1", "n100", "n256", "zeros", "silent_ear", "dc", "amp1e6", "amp1e-30"])
    @pytest.mark.parametrize("tile_bytes", [pipeline._TILE_BYTES, 1])
    def test_edge_inputs(self, setup, kind, tile_bytes):
        cfg, model, bank = setup
        rng = np.random.default_rng(11)
        n = {"n1": 1, "n100": 100, "n256": 256}.get(kind, 3000)
        x = 0.2 * rng.standard_normal((2, n))
        if kind == "zeros":
            x[:] = 0.0
        elif kind == "silent_ear":
            x[1] = 0.0
        elif kind == "dc":
            x[:] = 0.5
        elif kind.startswith("amp"):
            x *= float(kind[3:]) / np.max(np.abs(x))
        res = assert_tiling_is_exact(Waveform(x, SR), model, cfg, bank, tile_bytes)
        assert res.wav_out.samples.shape == (2, n)
        assert np.all(np.isfinite(res.wav_out.samples))
        # the synthesis window has no weight at sample 0
        assert not np.any(res.wav_out.samples[:, 0])
        if kind == "zeros":
            assert not np.any(res.wav_out.samples)

    def test_eight_second_array_peak(self):
        """One default-config 8 s call; the whole-utterance plan peaked at 265 MB,
        and projecting the encoded bands into a second buffer at 129 MB."""
        assert array_peak(8) <= 125e6

    def test_two_second_array_peak(self):
        """One default-config 2 s call peaks at about 29.5e6 bytes of arrays,
        and at 36.2e6 on 2 MB tiles, whose temporaries the two workers hold;
        the bound sits 3.5e6 above the one and 3.2e6 below the other."""
        assert array_peak(2) <= 33e6


@settings(max_examples=300, deadline=None)
@given(f=st.integers(1, 300), t=st.integers(1, 8000), pool=st.integers(1, 3),
       dtype=st.sampled_from([np.complex64, np.complex128]))
def test_tiles_are_equal_in_a_multiple_of_the_pool_size(f, t, pool, dtype):
    """The plan's tiles cover [0, f) in order. Their count is the smallest
    multiple of the pool size that keeps each tile within the budget, capped
    at f, and their sizes differ by at most one row."""
    cfg = RunConfig()
    row = cfg.channels * t * np.dtype(dtype).itemsize
    with mock.patch.object(workers, "size", lambda: pool):
        tiles = pipeline._tiles(f, t, cfg, dtype)
    assert tiles[0][0] == 0 and tiles[-1][1] == f
    assert all(hi == lo for (_, hi), (lo, _) in zip(tiles, tiles[1:]))
    sizes = [hi - lo for lo, hi in tiles]
    assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
    # within the byte budget, or within the floor where that holds fewer rows
    budget_rows = max(pipeline._TILE_MIN_ROWS, pipeline._TILE_BYTES // row)
    assert max(sizes) <= budget_rows
    n = len(tiles)
    assert n % pool == 0 or n == f
    assert n >= min(f, pool)
    # one multiple of the pool fewer would overrun the budget
    assert n <= pool or -(-f // (n - pool)) > budget_rows


@pytest.mark.parametrize("t", [999, 1001])
def test_the_floor_keeps_the_eight_second_plan(t):
    """At 8 s (T = 999) the 1 MB budget holds one row of a complex64
    tensor, and the floor of 3 rows gives the 44 tiles that 2 MB tiles gave
    on a pool of 2: 41 of 3 rows, then 3 of 2."""
    with mock.patch.object(workers, "size", lambda: 2):
        tiles = pipeline._tiles(129, t, RunConfig(), np.complex64)
    assert tiles == [(i, i + 3) for i in range(0, 123, 3)] + [(123, 125), (125, 127),
                                                            (127, 129)]


def array_peak(seconds):
    """The tracemalloc peak of one default-config call of that length."""
    cfg = RunConfig()
    model = init_random(cfg, seed=0)
    bank = pipeline.gammatone_bank(cfg)
    w = make_wave(np.random.default_rng(0), seconds * SR)
    tracemalloc.start()
    try:
        enhance(w, model, cfg, bank=bank)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def binaural_mixture(rng, n):
    """A harmonic source reaching the ears 5 samples apart, in partly
    correlated noise at about 0 dB SNR."""
    t = np.arange(n) / SR
    src = sum(np.sin(2 * np.pi * 150 * h * t + rng.uniform(0, 2 * np.pi)) / h
              for h in range(1, 20))
    src *= 0.5 - 0.5 * np.cos(2 * np.pi * 4 * t)
    ears = np.stack([src, np.roll(src, 5)]) / np.std(src)
    mix = ears + 0.6 * rng.standard_normal(n) + 0.8 * rng.standard_normal((2, n))
    return Waveform(0.3 * mix / np.max(np.abs(mix)), SR)


def test_precision_budget():
    """complex64 against complex128 through the default network on a seeded
    2 s mixture. The RATFs carry float32 rounding; the solve divides by
    |W_s - W_n| and so amplifies it in the waveform, by an input-dependent
    factor: white-noise inputs reach several times this bound."""
    cfg = RunConfig()
    model = init_random(cfg, seed=0)
    w = binaural_mixture(np.random.default_rng(0), 2 * SR)
    a = enhance(w, model, cfg, dtype=np.complex64)
    b = enhance(w, model, cfg, dtype=np.complex128)
    assert rel_l2(a.ratfs.w_s, b.ratfs.w_s) <= 1e-6
    assert rel_l2(a.ratfs.w_n, b.ratfs.w_n) <= 1e-6
    assert rel_l2(a.wav_out.samples, b.wav_out.samples) <= 5e-5


KERNEL_PROBE = """
import sys
from unittest import mock
import numpy as np
from binse import pipeline, workers
from binse.audio import Waveform
from binse.config import RunConfig
from binse.params import init_random

core = workers.blas_core()
if core is None:
    print("")
    sys.exit()
cfg = RunConfig()
model = init_random(cfg, seed=0)
w = Waveform(0.1 * np.random.default_rng(0).standard_normal((2, 8000)), 16000)
out = {}
for pool in (1, 2):
    if workers._pool is not None:
        workers._pool.shutdown()
    workers._pool_size = None               # the next plan makes a pool of this size
    workers.usable_cpus = lambda: pool
    for dtype in ("complex64", "complex128"):
        for tile_bytes, min_rows in ((1, 1), (pipeline._TILE_BYTES, pipeline._TILE_MIN_ROWS)):
            with mock.patch.multiple(pipeline, _TILE_BYTES=tile_bytes, _TILE_MIN_ROWS=min_rows):
                res = pipeline.enhance(w, model, cfg, dtype=np.dtype(dtype))
            assert workers.size() == pool
            for name, a in (("wav", res.wav_out.samples), ("w_s", res.ratfs.w_s),
                            ("w_n", res.ratfs.w_n), ("gate", res.gate)):
                out[f"{dtype}-{tile_bytes}-{pool}-{name}"] = a
np.savez(sys.argv[1], **out)
print(core)
"""

# OpenBLAS kernels a DYNAMIC_ARCH build can be told to run, each with the
# /proc/cpuinfo flag it needs
BLAS_KERNELS = {"SkylakeX": "avx512f", "Haswell": "avx2", "Sandybridge": "avx", "Prescott": "pni"}


def test_one_numerical_contract_on_each_blas_kernel(tmp_path):
    """A seeded 0.5 s default-config call in a fresh process per OpenBLAS
    kernel the CPU runs. On each kernel, the 1-byte and the default tile
    budget, on pools of 1 and 2 workers, give the same bits. complex64 stays within 2e-5 of complex128,
    and complex128 within 1e-13 across kernels, in relative L2 of the
    waveform; on a 2-core Xeon they read 2.7e-6 to 4.0e-6 and 6e-15 to 9e-15."""
    try:
        with open("/proc/cpuinfo") as fh:
            flags = {f for line in fh if line.startswith("flags") for f in line.split()}
    except OSError:
        pytest.skip("no /proc/cpuinfo")
    src = str(Path(pipeline.__file__).resolve().parents[1])
    runs, cores = {}, {}
    for kernel, flag in BLAS_KERNELS.items():
        if flag not in flags:
            continue
        env = dict(os.environ, OPENBLAS_CORETYPE=kernel,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        path = tmp_path / f"{kernel}.npz"
        out = subprocess.run([sys.executable, "-c", KERNEL_PROBE, str(path)], env=env,
                             check=True, capture_output=True, text=True, timeout=300)
        if not out.stdout.strip():
            pytest.skip("no OpenBLAS corename symbol")
        cores[kernel] = out.stdout.strip()
        with np.load(path) as arrays:
            runs[kernel] = dict(arrays)
    if not runs:
        pytest.skip("the CPU lists none of the kernels' flags")
    assert len(set(cores.values())) == len(cores), cores    # each override took
    default = pipeline._TILE_BYTES
    for kernel, got in runs.items():
        for key, a in got.items():
            dtype, _, _, name = key.split("-")
            np.testing.assert_array_equal(a, got[f"{dtype}-{default}-2-{name}"],
                                          err_msg=f"{kernel} {key}")
        wav = {dtype: got[f"{dtype}-{default}-2-wav"] for dtype in ("complex64", "complex128")}
        assert rel_l2(wav["complex64"], wav["complex128"]) <= 2e-5, kernel
    first = next(iter(runs.values()))[f"complex128-{default}-2-wav"]
    for kernel, got in runs.items():
        assert rel_l2(got[f"complex128-{default}-2-wav"], first) <= 1e-13, kernel


# --- the worker pool -----------------------------------------------------------

def blas_threads():
    """The live thread count of each loaded OpenBLAS."""
    return [get() for get, _, _ in workers.openblas()]


@pytest.fixture
def two_blas_threads():
    """OpenBLAS set to 2 threads for the test, then reset."""
    found = workers.openblas()
    if not found:
        pytest.skip("no OpenBLAS loaded")
    before = [get() for get, _, _ in found]
    for _, set_, _ in found:
        set_(2)
    yield [2] * len(found)
    for (_, set_, _), n in zip(found, before):
        set_(n)


BLAS_PROBE = """
import hashlib, sys
import numpy as np
from binse.audio import Waveform
from binse.config import RunConfig
from binse.params import init_random
from binse.pipeline import enhance
cfg = RunConfig()
w = Waveform(0.1 * np.random.default_rng(0).standard_normal((2, 32000)), 16000)
res = enhance(w, init_random(cfg, seed=0), cfg)
digest = hashlib.sha256()
for a in (res.wav_out.samples, res.ratfs.w_s, res.ratfs.w_n, res.gate):
    digest.update(np.ascontiguousarray(a).tobytes())
print(digest.hexdigest())
"""


NESTED_PROBE = """
import threading
import numpy as np
from binse import losses, workers
from binse.audio import Waveform
workers.usable_cpus = lambda: 2         # a pool of two on any host

def outer(i):
    here = threading.current_thread().name
    inner = workers.map(lambda j: (i * j, threading.current_thread().name), range(4))
    return [v for v, _ in inner], all(name == here for _, name in inner)

rng = np.random.default_rng(0)
s = Waveform(0.3 * rng.standard_normal((2, 8009)), 16000)
est = Waveform(s.samples + 0.1 * rng.standard_normal((2, 8009)), 16000)
with workers.plan():
    nested = workers.map(outer, range(4))
    scores = workers.map(lambda _: losses.stoi_surrogate(est, s), range(3))
    score = losses.stoi_surrogate(est, s)
print(nested == [([i * j for j in range(4)], True) for i in range(4)],
      scores == [score] * 3)
"""


UNIT_PLAN_PROBE = """
import numpy as np
from binse import workers
from binse.audio import Waveform
from binse.config import RunConfig
from binse.params import init_random
from binse.pipeline import enhance
workers.usable_cpus = lambda: 2         # a pool of two on any host
cfg = RunConfig()
model = init_random(cfg, seed=0)
rngs = [np.random.default_rng(seed) for seed in range(3)]
waves = [Waveform(0.1 * rng.standard_normal((2, 4000)), 16000) for rng in rngs]
serial = [enhance(w, model, cfg) for w in waves]
with workers.plan():
    nested = workers.map(lambda w: enhance(w, model, cfg), waves)
same = [np.array_equal(x, y) for a, b in zip(nested, serial)
        for x, y in ((a.wav_out.samples, b.wav_out.samples), (a.gate, b.gate),
                     (a.ratfs.w_s, b.ratfs.w_s), (a.ratfs.w_n, b.ratfs.w_n))]
print(len(same), all(same))
"""


SCAN_PROBE = """
import builtins
from binse import workers
opened, real_open = [], builtins.open

def counting(file, *args, **kwargs):
    opened.append(str(file))
    return real_open(file, *args, **kwargs)

builtins.open = counting
cores = [workers.blas_core() for _ in range(3)]
for _ in range(2):
    with workers.plan():
        cores.append(workers.blas_core())
builtins.open = real_open
print(opened.count("/proc/self/maps"), len(set(cores)), cores[0])
"""


# OpenBLAS at 2 threads, then a fork; the child reports each state() it saw
FORK_PROBE = """
import json, os, signal, sys, threading
from binse import workers

found = workers.openblas()
if not found:
    print("null")
    sys.exit()
for _, set_, _ in found:
    set_(2)
r, w = os.pipe()

def state():
    return [[get() for get, _, _ in found], workers._plans_running]

def fork():
    pid = os.fork()
    if pid == 0:
        signal.alarm(20)                # a child that hangs is killed
    return pid

def finish(pid, seen):
    if pid == 0:
        os.write(w, json.dumps(seen).encode())
        os._exit(0)
    os.close(w)
    with os.fdopen(r) as fh:
        print(fh.read() or '"hung"')
    os.waitpid(pid, 0)
"""

# a child forked while another thread runs a plan runs one of its own
FORK_BESIDE_A_PLAN = FORK_PROBE + """
entered, leave = threading.Event(), threading.Event()

def hold():
    with workers.plan():
        entered.set()
        leave.wait()

holder = threading.Thread(target=hold)
holder.start()
entered.wait()
pid = fork()
if pid == 0:
    with workers.plan():
        pass
finish(pid, state())
leave.set()
holder.join()
"""

# a child forked inside a plan leaves it, then runs one of its own
FORK_INSIDE_A_PLAN = FORK_PROBE + """
with workers.plan():
    pid = fork()
    seen = [state()]
if pid == 0:
    seen.append(state())
    with workers.plan():
        seen.append(state())
    seen.append(state())
finish(pid, seen)
"""


def run_probe(probe, timeout):
    """The stdout of ``probe`` run by a fresh interpreter on this checkout."""
    src = str(Path(pipeline.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                          capture_output=True, text=True, timeout=timeout).stdout


class TestWorkerPool:
    def test_a_map_inside_a_unit_runs_on_the_units_thread(self):
        """A unit that calls map, itself or through the band units of
        stoi_surrogate, gets its items run in order on its own thread; queued
        on the pool they would wait on workers that all wait on them. Run in
        a subprocess, so that a deadlock fails the test on its timeout."""
        src = str(Path(pipeline.__file__).resolve().parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", NESTED_PROBE], env=env, check=True,
                             capture_output=True, text=True, timeout=30)
        assert out.stdout.split() == ["True", "True"]

    def test_output_does_not_depend_on_the_blas_thread_count(self):
        """A seeded default-config 2 s call, in fresh processes that start
        OpenBLAS at 1 and at 2 threads, gives the same bytes."""
        src = str(Path(pipeline.__file__).resolve().parents[1])
        digests = []
        for n in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=n,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            out = subprocess.run([sys.executable, "-c", BLAS_PROBE], env=env, check=True,
                                 capture_output=True, text=True, timeout=300)
            digests.append(out.stdout.strip())
        assert digests[0] == digests[1]

    def test_concurrent_calls_give_the_serial_outputs(self, setup, two_blas_threads):
        """More calling threads than cores share the pool, with a short switch
        interval; each call gives what it gives alone."""
        cfg, model, bank = setup
        waves = [make_wave(np.random.default_rng(seed), 6000) for seed in range(4)]
        results = [[] for _ in waves]
        with mock.patch.object(pipeline, "_TILE_BYTES", tile_budget(cfg, waves[0], 3)):
            serial = [enhance(w, model, cfg, bank=bank) for w in waves]

            def call(i):
                for _ in range(3):
                    results[i].append(enhance(waves[i], model, cfg, bank=bank))

            threads = [threading.Thread(target=call, args=(i,)) for i in range(len(waves))]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for th in threads:
                    th.start()
                for th in threads:
                    th.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        for want, got in zip(serial, results):
            assert len(got) == 3
            for res in got:
                np.testing.assert_array_equal(res.wav_out.samples, want.wav_out.samples)
                np.testing.assert_array_equal(res.ratfs.w_n, want.ratfs.w_n)
                np.testing.assert_array_equal(res.gate, want.gate)
        assert blas_threads() == two_blas_threads

    def test_blas_runs_one_thread_in_the_plan_and_is_restored(
            self, setup, rng, monkeypatch, two_blas_threads):
        cfg, model, bank = setup
        seen, threads, lock = [], set(), threading.Lock()
        encode = pipeline.encode_stft

        def probed(bins, p):
            with lock:
                seen.append(blas_threads())
                threads.add(threading.current_thread().name)
            return encode(bins, p)

        monkeypatch.setattr(pipeline, "encode_stft", probed)
        w = make_wave(rng, 6000)
        enhance_in_tiles(w, model, cfg, bank, tile_budget(cfg, w, 3))
        assert len(seen) > 1 and all(counts == [1] * len(two_blas_threads) for counts in seen)
        assert blas_threads() == two_blas_threads
        if workers.size() > 1:
            assert all(name.startswith("binse-plan") for name in threads)

        broken = init_random(cfg, seed=0)
        bias = broken.decoder.head_s_proj.bias.copy()
        bias[0] = np.nan
        broken.decoder.head_s_proj.bias = bias
        with np.errstate(all="ignore"), pytest.raises(InvariantViolation):
            enhance(w, broken, cfg, bank=bank)
        assert blas_threads() == two_blas_threads

    def test_a_workers_exception_reaches_the_caller_unchanged(self, setup, rng, monkeypatch):
        cfg, model, bank = setup
        error = InvariantViolation("raised in a tile")
        modulate, started, finished, lock = pipeline.modulator_block, [], [], threading.Lock()

        def failing(z, p, out=None):
            with lock:
                started.append(z.shape[1])
                fail = len(started) == 2
            if fail:
                raise error
            time.sleep(0.01)            # long enough that units are still queued
            out = modulate(z, p, out=out)
            finished.append(z.shape[1])
            return out

        monkeypatch.setattr(pipeline, "modulator_block", failing)
        w = make_wave(rng, 6000)
        with pytest.raises(InvariantViolation) as info:
            enhance_in_tiles(w, model, cfg, bank, tile_budget(cfg, w, 2))
        assert info.value is error
        # the units not started were cancelled, and every started one but the
        # failed one had finished, when the caller saw the error
        n_started, n_finished = len(started), len(finished)
        time.sleep(0.2)
        assert n_finished == n_started - 1
        assert len(started) == n_started < cfg.analysis.n_freq_bins // 2   # of 65 tiles

    def test_many_cpus_keep_the_eight_second_array_peak(self, monkeypatch):
        """Each unit in flight holds a tile's temporaries, so the pool is
        capped: on a 64-CPU host a fresh pool runs 2 units at once, and the
        8 s call stays within the array peak of TestTiledPlan (a pool of 64
        threads peaked at 280 MB)."""
        monkeypatch.setattr(workers, "usable_cpus", lambda: 64)
        monkeypatch.setattr(workers, "_pool", None)
        monkeypatch.setattr(workers, "_pool_size", None)
        try:
            assert array_peak(8) <= 125e6
            assert workers._pool._max_workers == workers.size() == 2
        finally:
            if workers._pool is not None:
                workers._pool.shutdown()

    @pytest.mark.parametrize("first, later", [(2, 1), (1, 64)])
    def test_size_is_the_running_pools_after_the_cpus_change(self, first, later):
        """The pool is sized once, at a process's first plan, so size(), which
        sizes the tiles and bench's workers field, reports its threads, not
        the CPUs usable since."""
        cpus = [first]

        def size_after_the_change():
            assert workers.size() == first      # the pool the first plan makes
            with workers.plan():
                pass
            cpus[0] = later
            return workers.size(), (workers._pool._max_workers if workers._pool else 1)

        assert on_a_fresh_pool(lambda: cpus[0], size_after_the_change) == (first, first)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_a_forked_child_makes_its_own_pool(self, setup, rng):
        """A child forked after a call starts with no pool, as the parent's
        threads are not forked with it, and its first plan makes its own."""
        import multiprocessing

        cfg, model, bank = setup
        w = make_wave(rng, 6000)
        with mock.patch.object(pipeline, "_TILE_BYTES", tile_budget(cfg, w, 3)):
            want = enhance(w, model, cfg, bank=bank).wav_out.samples
            ctx = multiprocessing.get_context("fork")
            done = ctx.Queue()

            def child():
                got = enhance(w, model, cfg, bank=bank).wav_out.samples
                done.put(bool(np.array_equal(got, want)))

            proc = ctx.Process(target=child)
            proc.start()
            proc.join(timeout=60)
        if proc.is_alive():
            proc.kill()
        assert proc.exitcode == 0
        assert done.get(timeout=5)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    @pytest.mark.parametrize("call", ["stoi_surrogate", "gammatone_frames", "map"])
    def test_a_forked_child_runs_what_it_calls(self, setup, rng, call):
        """After the parent's enhance has made the pool, a forked child's call
        returns what the parent's does: a unit queued on a copy of the
        parent's pool, which has none of its threads, would never run."""
        import multiprocessing

        cfg, model, bank = setup
        w, est = make_wave(rng), make_wave(rng)
        calls = {
            "stoi_surrogate": lambda: losses.stoi_surrogate(est, w),
            "gammatone_frames": lambda: gammatone_frames(pad_to_frame_grid(w, cfg), bank,
                                                         cfg.analysis),
            "map": lambda: workers.map(lambda i: i * i, range(8)),
        }
        enhance(w, model, cfg, bank=bank)
        want = calls[call]()
        ctx = multiprocessing.get_context("fork")
        done = ctx.Queue()
        proc = ctx.Process(target=lambda: done.put(bool(np.array_equal(calls[call](), want))))
        proc.start()
        try:
            same = done.get(timeout=30)
        finally:
            proc.join(timeout=5)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=5)
        assert same and proc.exitcode == 0

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_a_child_forked_beside_a_plan_gets_blas_back(self):
        """A child forked while another thread of its parent runs a plan runs
        no plan: after a plan of its own, OpenBLAS is back at the 2 threads
        it had before the parent's plan held it."""
        seen = json.loads(run_probe(FORK_BESIDE_A_PLAN, timeout=60).splitlines()[-1])
        if seen is None:
            pytest.skip("no OpenBLAS loaded")
        assert seen == [[2] * len(seen[0]), 0]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_a_child_forked_inside_a_plan_ends_it_uncounted(self):
        """A child forked inside a plan starts with no plan running and BLAS
        at its 2 threads, leaves that plan without counting it, and a plan
        of its own then holds BLAS at one thread and restores it."""
        seen = json.loads(run_probe(FORK_INSIDE_A_PLAN, timeout=60).splitlines()[-1])
        if seen is None:
            pytest.skip("no OpenBLAS loaded")
        two, one = [2] * len(seen[0][0]), [1] * len(seen[0][0])
        assert seen == [[two, 0], [two, 0], [one, 1], [two, 0]]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_a_child_forked_while_the_lock_is_held_runs_its_plan(self):
        """A child forked while another thread holds the workers' lock has a
        lock of its own, so its plan does not wait on a thread it lacks. The
        child is killed if it outlives its timeout."""
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        done = ctx.Queue()
        held, release = threading.Event(), threading.Event()

        def hold():
            with workers._lock:
                held.set()
                release.wait()

        def child():
            with workers.plan():
                done.put(workers.map(lambda i: i * i, range(4)))

        holder = threading.Thread(target=hold)
        holder.start()
        held.wait(timeout=5)
        proc = ctx.Process(target=child)
        try:
            proc.start()
            squares = done.get(timeout=30)
        finally:
            release.set()
            holder.join(timeout=5)
            proc.join(timeout=5)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=5)
        assert squares == [0, 1, 4, 9] and proc.exitcode == 0

    def test_enhance_inside_a_unit_runs_its_plan_on_the_units_thread(self):
        """On a pool of two, enhance called by the units of a map inside a
        plan gives the serial outputs: its plan's units run on the unit's
        thread, as queued on the pool they would wait on workers that all
        wait on them. Run in a subprocess, so that a deadlock fails the test
        on its timeout."""
        assert run_probe(UNIT_PLAN_PROBE, timeout=120).split() == ["12", "True"]

    def test_only_a_plan_puts_units_on_the_pool(self, setup, rng):
        """Outside a plan, map runs every item in order on the calling thread,
        also once a plan has made the pool. enhance, gammatone_frames and
        stoi_surrogate each open a plan, so their units reach the pool."""
        cfg, model, bank = setup
        w, est = make_wave(rng), make_wave(rng)
        real_map, lock = workers.map, threading.Lock()
        calls = {
            "enhance": lambda: enhance(w, model, cfg, bank=bank),
            "gammatone_frames": lambda: gammatone_frames(pad_to_frame_grid(w, cfg), bank,
                                                         cfg.analysis),
            "stoi_surrogate": lambda: losses.stoi_surrogate(est, w),
        }

        def threads_of_units():
            enhance(w, model, cfg, bank=bank)       # the first plan makes the pool
            ran = []

            def square(i):
                ran.append((i, threading.current_thread().name))
                return i * i

            assert workers.map(square, range(6)) == [i * i for i in range(6)]
            assert ran == [(i, threading.current_thread().name) for i in range(6)]
            seen = {name: set() for name in calls}

            for name, call in calls.items():
                def recording(fn, items, names=seen[name]):
                    def unit(item):
                        with lock:
                            names.add(threading.current_thread().name)
                        return fn(item)

                    return real_map(unit, items)

                with mock.patch.object(workers, "map", recording):
                    call()
            return seen

        seen = on_a_fresh_pool(lambda: 2, threads_of_units)
        for name, names in seen.items():
            assert any(n.startswith("binse-plan") for n in names), (name, names)

    def test_openblas_is_found_once_per_process(self):
        """Repeated blas_core() calls and plans read /proc/self/maps once, in a
        fresh process, and name the kernel this process's OpenBLAS runs."""
        count, names, core = run_probe(SCAN_PROBE, timeout=60).split()
        assert (count, names) == ("1", "1")
        assert core == str(workers.blas_core())
