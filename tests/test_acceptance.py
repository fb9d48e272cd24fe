"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
from dataclasses import replace

import numpy as np

from binse.audio import Waveform, read_stereo
from binse.config import AnalysisConfig, RunConfig
from binse.decoder import RatfPair, ratf_solve
from binse.encoder import fuse
from binse.complex_ops import CSEParams
from binse.frontend import Spectrogram, istft, sqrt_hann, stft
from binse.losses import cue_maps, ild_loss, ipd_loss, reg_terms
from binse.modulator import fourier_basis, _gates_all_freqs
from binse.params import init_random
from binse.pipeline import enhance, pad_to_frame_grid
from binse.profiler import count_macs, count_params, full_report
from binse.synth import generate_dataset, mix_at_snr
from conftest import rand_complex, recalibrate_by_own_squeeze, small_config
from test_encoder import make_encoder
from test_modulator import make_modulator
from test_synth import write_corpus

SR = 16000


def _report(num: int, name: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'}  criterion {num}: {name}")
    assert ok, f"criterion {num} ({name}) failed"


def _phase_dev(before: np.ndarray, after: np.ndarray) -> float:
    live = np.abs(before) > 1e-12
    return float(np.max(np.abs(np.angle(after[live] * np.conj(before[live])))))


def test_criterion_1_phase_preservation():
    """Fusion gate, SE recalibration, and the temporal modulation stage never
    rotate the phase of any bin carrying energy."""
    c, f, t = 4, 5, 6
    worst = 0.0
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        z = rand_complex(rng, (c, f, t))
        enc = make_encoder(rng, c=c, f=f, g=c)
        z_g = rand_complex(rng, (c, f, t))
        worst = max(worst, _phase_dev(z, fuse(z, z_g, enc)))
        se = CSEParams(
            reduce=rng.standard_normal((c // 2, c)), expand=rng.standard_normal((c, c // 2))
        )
        worst = max(worst, _phase_dev(z, recalibrate_by_own_squeeze(z, replace(enc, se=se))))
        mod = make_modulator(rng, c=c, h=c, k=5)
        gates = _gates_all_freqs(z, fourier_basis(t, 5), mod)
        worst = max(worst, _phase_dev(z, z * gates))
    _report(1, f"phase preservation (max deviation {worst:.2e} rad)", worst < 1e-7)


def test_criterion_2_ratf_closed_form():
    """The closed-form solve inverts 1000 random algebraic constructions and
    stays finite when the two transfer functions coincide."""
    f, t = 17, 11
    cfg = AnalysisConfig(fft_size=(f - 1) * 2, hop=(f - 1))
    worst = 0.0
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        w_s = rand_complex(rng, (f, t))
        w_n = rand_complex(rng, (f, t))
        s_r = rand_complex(rng, (f, t))
        n_r = rand_complex(rng, (f, t))
        y = Spectrogram(np.stack([w_s * s_r + w_n * n_r, s_r + n_r]), cfg)
        est = ratf_solve(y, RatfPair(w_s, w_n), eps=0.0)
        rel = np.linalg.norm(est.bins[1] - s_r) / np.linalg.norm(s_r)
        worst = max(worst, float(rel))
    ok = worst < 1e-6
    # degenerate case: identical transfer functions, regularized solve
    rng = np.random.default_rng(0)
    w = rand_complex(rng, (f, t))
    y = Spectrogram(rand_complex(rng, (2, f, t)), cfg)
    deg = ratf_solve(y, RatfPair(w, w.copy()), eps=1e-8)
    ok = ok and bool(np.all(np.isfinite(deg.bins)))
    _report(2, f"RATF closed-form oracle (worst rel err {worst:.2e})", ok)


def test_criterion_3_gate_blending_identities():
    """The blend gate interpolates exactly: g = 0 passes the input through the
    analysis/synthesis round trip, g = 1 returns the pure estimate."""
    cfg = small_config()
    model = init_random(cfg, seed=0)
    rng = np.random.default_rng(5)
    w = Waveform(0.2 * rng.standard_normal((2, 2 * SR)), SR)

    res0 = enhance(w, model, cfg, gate_override=np.zeros(129))
    rt = istft(stft(pad_to_frame_grid(w, cfg), cfg.analysis))
    ref = rt.samples[:, : w.n_samples]
    rel0 = np.linalg.norm(res0.wav_out.samples - ref) / np.linalg.norm(ref)

    res1 = enhance(w, model, cfg, gate_override=np.ones(129), collect_stages=True)
    pure = istft(Spectrogram(res1.stages["s_hat"], cfg.analysis))
    rel1 = np.linalg.norm(
        res1.wav_out.samples - pure.samples[:, : w.n_samples]
    ) / np.linalg.norm(pure.samples[:, : w.n_samples])
    ok = rel0 < 1e-6 and rel1 < 1e-6
    _report(3, f"gate blending identities (rel {rel0:.2e} / {rel1:.2e})", ok)


def test_criterion_4_frontend_round_trip():
    """Analysis/synthesis inverts on the interior for 100 random 2 s signals,
    and the squared window satisfies constant overlap-add."""
    a = AnalysisConfig()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        w = Waveform(0.3 * rng.standard_normal((2, 2 * SR)), SR)
        rec = istft(stft(w, a))
        sl = slice(a.fft_size, w.n_samples - a.fft_size)
        rel = np.linalg.norm(rec.samples[:, sl] - w.samples[:, sl]) / np.linalg.norm(
            w.samples[:, sl]
        )
        worst = max(worst, float(rel))
    win2 = sqrt_hann(a.fft_size) ** 2
    acc = np.zeros(8 * a.fft_size)
    for m in range((acc.size - a.fft_size) // a.hop + 1):
        acc[m * a.hop : m * a.hop + a.fft_size] += win2
    cola_dev = float(np.ptp(acc[a.fft_size : -a.fft_size]))
    ok = worst < 1e-6 and cola_dev < 1e-10
    _report(4, f"frontend round trip (worst {worst:.2e}, COLA dev {cola_dev:.2e})", ok)


def test_criterion_5_cue_metric_oracles():
    """Constructed level/phase offsets read back exactly, and swapping the
    ears negates both cue maps."""
    rng = np.random.default_rng(3)
    clean = Spectrogram(rand_complex(rng, (2, 129, 10)), AnalysisConfig())

    louder = Spectrogram(
        np.stack([clean.bins[0] * 10 ** (3 / 20.0), clean.bins[1]]), clean.config
    )
    e_ild = ild_loss(clean, louder)
    e_ipd_z = ipd_loss(clean, louder)
    ok = abs(e_ild - 3.0) < 1e-3 and e_ipd_z < 1e-9

    rotated = Spectrogram(
        np.stack([clean.bins[0] * np.exp(1j * np.pi / 4), clean.bins[1]]), clean.config
    )
    e_ipd = ipd_loss(clean, rotated)
    e_ild_z = ild_loss(clean, rotated)
    ok = ok and abs(e_ipd - 0.7854) < 1e-3 and e_ild_z < 1e-9

    c = cue_maps(clean)
    cs = cue_maps(Spectrogram(clean.bins[::-1].copy(), clean.config))
    ok = ok and bool(np.array_equal(cs.ild, -c.ild))   # bit-exact by construction
    active = c.active_mask & (np.abs(c.ipd) < np.pi)   # +/- pi maps to itself
    # atan2 is not guaranteed bitwise-odd; allow rounding at the last ulp
    ok = ok and float(np.max(np.abs(cs.ipd[active] + c.ipd[active]))) < 1e-12
    _report(5, f"cue-metric oracles (ILD {e_ild:.4f} dB, IPD {e_ipd:.5f} rad)", ok)


def test_criterion_6_regularizer_closed_forms():
    """The gate regularizers hit their closed forms at g = 0.5 and the
    entropy term is extremal there."""
    s, h, tv = reg_terms(np.full(64, 0.5))
    ok = abs(s - 0.5) < 1e-9 and abs(h + np.log(2.0)) < 1e-9 and abs(tv) < 1e-9
    h_half = h
    for v in np.linspace(0.01, 0.99, 49):
        _, hv, _ = reg_terms(np.full(16, v))
        ok = ok and hv >= h_half - 1e-12
        if abs(v - 0.5) > 0.02:
            ok = ok and hv > h_half
    _report(6, f"regularizer closed forms ({s:.3f}, {h:.6f}, {tv:.3f})", ok)


def test_criterion_7_complexity_accounting():
    """Parameter counting is exact against a scalar walk, and the default
    profile lands inside the published budget bands."""
    cfg = RunConfig()
    model = init_random(cfg, seed=0)
    walk = 0
    for arr in model.tensors.values():
        for _ in range(arr.size):
            pass
        walk += arr.size * (2 if np.iscomplexobj(arr) else 1)
    report = count_params(model)
    macs = count_macs(cfg, audio_seconds=1.0).macs
    ok = (
        report.n_params == walk
        and 116_000 <= report.n_params <= 142_000
        and 2.2e9 <= macs <= 3.4e9
    )
    _report(
        7,
        f"complexity accounting ({report.n_params} params, {macs / 1e9:.3f} GMAC/s)",
        ok,
    )


def test_criterion_8_real_time_factor():
    """The default configuration runs faster than real time on 2 s of audio
    (median of 20 runs)."""
    cfg = RunConfig()
    model = init_random(cfg, seed=0)
    rtf = full_report(model, cfg, audio_seconds=2.0, with_rtf=True, repeats=20).rtf
    _report(8, f"real-time factor (median RTF {rtf:.3f})", rtf < 1.0)


def test_criterion_9_synthesis_fidelity(tmp_path):
    """Mixing hits every requested SNR within 0.1 dB, and dataset rendering
    is byte-deterministic."""
    rng = np.random.default_rng(9)
    speech = Waveform(0.3 * rng.standard_normal((2, SR)), SR)
    noise = Waveform(rng.standard_normal((2, SR)), SR)
    worst = 0.0
    for snr in np.arange(-6.0, 15.1, 3.0):
        _, rep = mix_at_snr(speech, noise, float(snr))
        worst = max(worst, abs(rep["measured_snr_db"] - snr))
    ok = worst < 0.1

    specs, _ = write_corpus(tmp_path, rng, n_items=3)
    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    generate_dataset(specs, out1)
    generate_dataset(specs, out2)
    for p1 in sorted(out1.iterdir()):
        ok = ok and p1.read_bytes() == (out2 / p1.name).read_bytes()
    _report(9, f"synthesis fidelity (worst SNR error {worst:.2e} dB)", ok)


def test_criterion_10_end_to_end_sanity(tmp_path):
    """50 random synthesized mixtures run through the full pipeline with
    finite outputs, gates in [0, 1], and self-consistent stage dumps; the
    metrics command emits the full comparison column set."""
    from binse.decoder import blend, decode_heads, refinement_gate
    from binse.modulator import modulator_block

    cfg = small_config(channels=16)
    rng = np.random.default_rng(42)
    specs, _ = write_corpus(tmp_path, rng, n_items=10, duration=0.5)
    data = tmp_path / "data"
    generate_dataset(specs, data)
    mixes = sorted(data.glob("*_mix.wav"))

    ok = True
    for trial in range(50):
        model = init_random(cfg, seed=trial)
        mix = read_stereo(mixes[trial % len(mixes)], cfg.analysis.sample_rate)
        res = enhance(mix, model, cfg, collect_stages=True)
        ok = ok and bool(np.all(np.isfinite(res.wav_out.samples)))
        ok = ok and bool(np.all(res.gate >= 0.0) and np.all(res.gate <= 1.0))
        st = res.stages
        y = Spectrogram(st["noisy_spec"], cfg.analysis)
        checks = [
            (recalibrate_by_own_squeeze(st["z_attended"], model.encoder), st["z_backbone"]),
            (modulator_block(st["z_backbone"], model.modulator), st["z_out"]),
        ]
        ratfs = decode_heads(st["z_out"], model.decoder, [(0, st["z_out"].shape[1])])
        checks.append((ratfs.w_s, st["ratf_s"]))
        checks.append((ratfs.w_n, st["ratf_n"]))
        s_hat = ratf_solve(y, RatfPair(st["ratf_s"], st["ratf_n"]), eps=cfg.eps_ratf)
        checks.append((s_hat.bins, st["s_hat"]))
        checks.append((refinement_gate(st["z_out"], model.decoder), st["gate"]))
        s_final = blend(Spectrogram(st["s_hat"], cfg.analysis), y, st["gate"])
        checks.append((s_final.bins, st["s_final"]))
        for got, want in checks:
            scale = float(np.max(np.abs(want))) + 1e-12
            ok = ok and float(np.max(np.abs(got - want))) / scale < 1e-6

    # metrics command must emit the external-comparison column set
    from binse.cli import main

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"channels": 16, "n_gammatone": 16,
                                    "gammatone_taps": 256, "n_basis": 5,
                                    "se_reduction": 4}))
    report_path = tmp_path / "report.jsonl"
    rc = main(["metrics", "--config", str(cfg_path), "--dataset", str(data),
               "--report", str(report_path)])
    ok = ok and rc == 0
    rows = [json.loads(l) for l in report_path.read_text().splitlines()]
    needed = {"item_id", "snr_in", "snr_out", "stoi_surrogate", "ild_err",
              "ipd_err", "mbstoi", "delta_pesq", "gate_mean", "gate_min", "gate_max"}
    ok = ok and len(rows) == len(specs) and all(needed <= set(r) for r in rows)
    _report(10, "end-to-end sanity (50 mixtures, stage dumps, metrics columns)", ok)
