import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binse import pipeline
from binse.audio import Waveform
from binse.config import RunConfig
from binse.decoder import blend, ratf_solve
from binse.errors import InvariantViolation, ShapeMismatch
from binse.frontend import build_gammatone_bank, istft, stft
from binse.params import init_random
from binse.pipeline import enhance, pad_to_frame_grid
from conftest import small_config

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

    def test_stages_empty_unless_requested(self, setup, rng):
        cfg, model, bank = setup
        res = enhance(make_wave(rng, 2048), model, cfg, bank=bank)
        assert res.stages == {}

    def test_stage_consistency_recomputation(self, setup, rng):
        """Each dumped stage must be reproducible from its predecessor."""
        from binse.decoder import RatfPair, decode_heads, refinement_gate
        from binse.encoder import fuse, recalibrate
        from binse.frontend import Spectrogram
        from binse.modulator import modulator_block

        cfg, model, bank = setup
        w = make_wave(rng, 4096)
        res = enhance(w, model, cfg, bank=bank, collect_stages=True)
        st = res.stages
        y = Spectrogram(st["noisy_spec"], cfg.analysis)

        z_att = fuse(st["z_stft"], st["z_gamma"], model.encoder)
        np.testing.assert_allclose(z_att, st["z_attended"], rtol=1e-6, atol=1e-7)
        z_bb = recalibrate(st["z_attended"], model.encoder)
        np.testing.assert_allclose(z_bb, st["z_backbone"], rtol=1e-6, atol=1e-7)
        z_out = modulator_block(st["z_backbone"], model.modulator)
        np.testing.assert_allclose(z_out, st["z_out"], rtol=1e-6, atol=1e-7)
        ratfs = decode_heads(st["z_out"], model.decoder)
        np.testing.assert_allclose(ratfs.w_s, st["ratf_s"], rtol=1e-6, atol=1e-7)
        np.testing.assert_allclose(ratfs.w_n, st["ratf_n"], rtol=1e-6, atol=1e-7)
        s_hat = ratf_solve(y, RatfPair(st["ratf_s"], st["ratf_n"]), eps=cfg.eps_ratf)
        np.testing.assert_allclose(s_hat.bins, st["s_hat"], rtol=1e-5, atol=1e-6)
        g = refinement_gate(st["z_out"], model.decoder)[0]
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
    with mock.patch.object(pipeline, "_TILE_BYTES", tile_bytes):
        return enhance(w, model, cfg, bank=bank, **kwargs)


ONE_TILE = 1 << 62      # a tile budget that holds every row


def assert_equivalent(w, model, cfg, bank, tile_bytes, waveform=True):
    """Tiled against the one-tile plan. In complex64 the RATFs and the gate
    agree to 1e-6 relative; in complex128 the waveforms agree to 1e-10, so
    tiling adds nothing but rounding. With ``waveform``, the complex64
    waveforms also agree within twice the one-tile plan's own
    complex64-vs-complex128 distance."""
    tiled = enhance_in_tiles(w, model, cfg, bank, tile_bytes)
    one = enhance_in_tiles(w, model, cfg, bank, ONE_TILE)
    for got, want in [(tiled.ratfs.w_s, one.ratfs.w_s), (tiled.ratfs.w_n, one.ratfs.w_n)]:
        assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want)
    assert np.max(np.abs(tiled.gate - one.gate)) <= 1e-6 * np.max(np.abs(one.gate))
    wide = enhance_in_tiles(w, model, cfg, bank, ONE_TILE, dtype=np.complex128)
    wide_tiled = enhance_in_tiles(w, model, cfg, bank, tile_bytes, dtype=np.complex128)
    assert (np.linalg.norm(wide_tiled.wav_out.samples - wide.wav_out.samples)
            <= 1e-10 * np.linalg.norm(wide.wav_out.samples))
    if waveform:
        budget = np.linalg.norm(one.wav_out.samples - wide.wav_out.samples)
        assert np.linalg.norm(tiled.wav_out.samples - one.wav_out.samples) <= 2 * budget
    return tiled


def tile_budget(cfg, w, rows):
    """Bytes of ``rows`` rows of one (1, C, F, T) complex64 tensor of w."""
    t = stft(pad_to_frame_grid(w, cfg), cfg.analysis).bins.shape[2]
    return rows * cfg.channels * t * 8


class TestTiledPlan:
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 12000), rows=st.sampled_from([1, 2, 5, 17, 64]),
           seed=st.integers(0, 2**31 - 1))
    def test_tiles_match_the_one_tile_plan(self, setup, n, rows, seed):
        """Random white-noise inputs. The complex64 waveform is left out: the
        solve amplifies last-bit RATF differences by an input-dependent
        factor, and on rare inputs the tiling's share of them exceeds twice
        the complex64-vs-complex128 distance."""
        cfg, model, bank = setup
        w = make_wave(np.random.default_rng(seed), n)
        assert_equivalent(w, model, cfg, bank, tile_budget(cfg, w, rows), waveform=False)

    @pytest.mark.parametrize("rows", [1, 7])
    def test_waveform_within_the_precision_budget(self, setup, rows):
        cfg, model, bank = setup
        w = binaural_mixture(np.random.default_rng(0), 2 * SR)
        assert_equivalent(w, model, cfg, bank, tile_budget(cfg, w, rows))

    @pytest.mark.parametrize("tile_bytes", [1, 3 * 8 * 32 * 8])
    def test_no_row_is_computed_twice(self, setup, rng, monkeypatch, tile_bytes):
        from binse import decoder

        cfg, model, bank = setup
        counts = {}
        modulate, conv = pipeline.modulator_block, decoder.lightconv

        def counted_modulator(z, p, out=None):
            counts["modulator"] = counts.get("modulator", 0) + z.shape[2]
            return modulate(z, p, out=out)

        def counted_lightconv(x, p, rows=None, out=None):
            key = id(p)
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
        assert_equivalent(w, model, cfg, pipeline.gammatone_bank(cfg),
                          tile_budget(cfg, w, rows))

    def test_stage_dump_is_whole_and_equals_the_plain_call(self, setup, rng):
        cfg, model, bank = setup
        w = make_wave(rng, 4096)
        f, t = cfg.analysis.n_freq_bins, (4096 - 256) // 128 + 1
        for tile_bytes in (pipeline._TILE_BYTES, 1):
            res = enhance_in_tiles(w, model, cfg, bank, tile_bytes, collect_stages=True)
            for name in ("z_gamma", "z_stft", "z_attended", "z_backbone", "z_out"):
                assert res.stages[name].shape == (1, cfg.channels, f, t)
            plain = enhance_in_tiles(w, model, cfg, bank, tile_bytes)
            np.testing.assert_array_equal(res.wav_out.samples, plain.wav_out.samples)
            np.testing.assert_array_equal(res.ratfs.w_s, plain.ratfs.w_s)
            np.testing.assert_array_equal(res.gate, plain.gate)

    @pytest.mark.parametrize("collect_stages", [False, True])
    def test_blocks_are_handed_one_tile(self, monkeypatch, collect_stages):
        """Every light-conv block of a default-config 2 s call computes at most
        one plan tile of rows, plus the decoder's lag of k_f // 2 rows per
        2-D block, with or without a stage dump."""
        from binse import decoder, encoder

        cfg = RunConfig()
        model = init_random(cfg, seed=0)
        w = make_wave(np.random.default_rng(0), 2 * SR)
        f, t = stft(pad_to_frame_grid(w, cfg), cfg.analysis).bins.shape[1:]
        # rows of one (1, C, rows, T) complex64 tensor in the plan's tile budget
        step = pipeline._TILE_BYTES // (cfg.channels * t * 8)
        lag = sum(block.depthwise.shape[1] // 2 for block in model.decoder.head_s)
        largest = {}

        def sized(module):
            conv = module.lightconv

            def counted(x, p, rows=None, out=None):
                n = x.shape[2] if rows is None else rows[1] - rows[0]
                largest[module.__name__] = max(largest.get(module.__name__, 0), n)
                return conv(x, p, rows=rows, out=out)

            monkeypatch.setattr(module, "lightconv", counted)

        sized(encoder)
        sized(decoder)
        enhance(w, model, cfg, collect_stages=collect_stages)
        assert 1 <= step < f
        assert 0 < largest["binse.encoder"] <= step
        assert 0 < largest["binse.decoder"] <= step + lag

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
        res = assert_equivalent(Waveform(x, SR), model, cfg, bank, tile_bytes)
        assert res.wav_out.samples.shape == (2, n)
        assert np.all(np.isfinite(res.wav_out.samples))
        # the synthesis window has no weight at sample 0
        assert not np.any(res.wav_out.samples[:, 0])
        if kind == "zeros":
            assert not np.any(res.wav_out.samples)

    def test_eight_second_array_peak(self):
        """One default-config 8 s call; the whole-utterance plan peaked at 265 MB."""
        cfg = RunConfig()
        model = init_random(cfg, seed=0)
        bank = pipeline.gammatone_bank(cfg)
        w = make_wave(np.random.default_rng(0), 8 * SR)
        tracemalloc.start()
        try:
            enhance(w, model, cfg, bank=bank)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 185e6


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
