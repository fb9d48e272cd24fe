"""Command-line surface: enhance, synth, metrics, bench, selftest.

Exit codes: 0 success, 2 input error, 3 weights-format error, 4 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import workers
from .audio import Waveform, read_stereo, write_wav
from .config import RunConfig, config_from_dict
from .errors import (
    BinseError,
    ConfigMismatch,
    FormatError,
    InvariantViolation,
    UnsupportedFormat,
)
from .frontend import istft, stft
from .params import init_random, load_weights, save_arrays, save_weights
from .pipeline import enhance

# the names --ablate takes: the bool keys of RunConfig
_FLAGS = [f.name for f in dataclasses.fields(RunConfig) if f.type is bool]


def _load_config(args) -> RunConfig:
    overrides = {}
    if args.config:
        with open(args.config) as fh:
            overrides = json.load(fh)
    for flag in args.ablate or []:
        if flag not in _FLAGS:
            raise UnsupportedFormat(f"unknown ablation flag {flag!r}")
        if isinstance(overrides, dict):     # else config_from_dict names the fault
            overrides[flag] = True
    return config_from_dict(overrides)


def _load_model(args, cfg: RunConfig):
    return load_weights(args.model, cfg) if args.model else init_random(cfg, seed=args.seed)


def cmd_enhance(args) -> int:
    cfg = _load_config(args)
    model = _load_model(args, cfg)
    wav = read_stereo(args.input, expected_rate=cfg.analysis.sample_rate)
    result = enhance(wav, model, cfg, collect_stages=bool(args.dump))
    write_wav(args.output, result.wav_out.samples, cfg.analysis.sample_rate)
    if args.dump:
        save_arrays(args.dump, result.stages, tag="stage-dump")
    if args.save_model:
        save_weights(model, args.save_model)
    print(f"wrote {args.output} ({result.wav_out.duration_s:.2f} s)")
    return 0


def cmd_synth(args) -> int:
    from . import synth

    specs = synth.read_manifest(args.manifest)
    summary = synth.generate_dataset(specs, args.out)
    print(json.dumps(summary))
    return 0 if not summary["failures"] else 2


def _metrics_row(args, cfg: RunConfig, model, dataset: Path, tmp: Path, item: str) -> dict:
    """Enhance one dataset item and score it against its clean reference."""
    from . import losses

    clean = read_stereo(dataset / f"{item}_clean.wav", cfg.analysis.sample_rate)
    mix = read_stereo(dataset / f"{item}_mix.wav", cfg.analysis.sample_rate)
    snr_in = -losses.snr_loss(mix, clean)   # rejects other lengths before the network runs
    result = enhance(mix, model, cfg)
    est = result.wav_out            # as long as mix
    clean_spec = stft(clean, cfg.analysis)
    est_spec = stft(est, cfg.analysis)
    row = {
        "item_id": item,
        "snr_in": snr_in,
        "snr_out": -losses.snr_loss(est, clean),
        "stoi_surrogate": losses.stoi_surrogate(est, clean),
        "ild_err": losses.ild_loss(clean_spec, est_spec),
        "ipd_err": losses.ipd_loss(clean_spec, est_spec),
        "mbstoi": None,
        "delta_pesq": None,
        "gate_mean": float(np.mean(result.gate)),
        "gate_min": float(np.min(result.gate)),
        "gate_max": float(np.max(result.gate)),
    }
    if args.mbstoi_cmd or args.pesq_cmd:
        est_path = tmp / f"{item}_enhanced.wav"
        write_wav(est_path, est.samples, cfg.analysis.sample_rate)
        clean_path = dataset / f"{item}_clean.wav"
        if args.mbstoi_cmd:
            row["mbstoi"] = losses.external_score(args.mbstoi_cmd, clean_path, est_path)
        if args.pesq_cmd:
            pesq_out = losses.external_score(args.pesq_cmd, clean_path, est_path)
            pesq_in = losses.external_score(
                args.pesq_cmd, clean_path, dataset / f"{item}_mix.wav"
            )
            row["delta_pesq"] = pesq_out - pesq_in
    return row


def cmd_metrics(args) -> int:
    """Per-utterance machine-readable report over a synthesized dataset.

    An item whose input is bad, or whose external scorer exits non-zero, is
    reported on stderr as one JSON line {"item_id", "error"} and skipped;
    the run then exits 2. An internal invariant violation still aborts the
    run. Scoring runs in one ``workers.plan``, its units on the worker pool.
    """
    import subprocess

    from . import synth

    cfg = _load_config(args)
    model = _load_model(args, cfg)
    dataset = Path(args.dataset)
    items = []
    for where, rec in synth.read_jsonl(dataset / "metadata.jsonl"):
        if "item_id" not in rec:
            raise UnsupportedFormat(f"{where}: no item_id")
        try:
            synth.check_item_id(rec["item_id"])
        except ValueError as exc:
            raise UnsupportedFormat(f"{where}: {exc}") from None
        items.append(rec["item_id"])
    tmp = Path(args.report).parent if args.report else dataset
    report = open(args.report, "w") if args.report else contextlib.nullcontext(sys.stdout)
    n_rows = n_failed = 0
    with report as out, workers.plan():
        for item in items:
            try:
                row = _metrics_row(args, cfg, model, dataset, tmp, item)
            except InvariantViolation:
                raise
            except (BinseError, ValueError, OSError, subprocess.CalledProcessError) as exc:
                print(json.dumps({"item_id": item, "error": str(exc)}), file=sys.stderr)
                n_failed += 1
                continue
            out.write(json.dumps(row, sort_keys=True) + "\n")
            n_rows += 1
    if args.report:
        print(f"wrote {args.report} ({n_rows} records)")
    return 2 if n_failed else 0


def cmd_bench(args) -> int:
    from .profiler import full_report

    cfg = _load_config(args)
    model = _load_model(args, cfg)
    report = full_report(
        model, cfg, audio_seconds=args.seconds, with_rtf=args.rtf, repeats=args.repeats
    )
    print(json.dumps(dataclasses.asdict(report) | {"blas_core": workers.blas_core()}))
    if args.table:
        print(f"{'module':<12}{'params':>12}{'MACs':>16}")
        for module in sorted(set(report.param_rows) | set(report.mac_rows)):
            print(
                f"{module:<12}{report.param_rows.get(module, 0):>12}"
                f"{report.mac_rows.get(module, 0):>16}"
            )
        rtf = f"{report.rtf:.3f}" if report.rtf is not None else "-"
        print(
            f"{'total':<12}{report.n_params:>12}{report.macs:>16}   RTF {rtf}"
        )
    return 0


def cmd_selftest(args) -> int:
    """Fast invariant suite, after the running BLAS kernel's name; exits 4 on
    any failure."""
    from .complex_ops import CLinearParams, clinear
    from .decoder import RatfPair, ratf_solve
    from .frontend import Spectrogram, sqrt_hann
    from .modulator import fourier_basis

    rng = np.random.default_rng(7)
    cfg = RunConfig()
    a = cfg.analysis
    checks = []

    win = sqrt_hann(a.fft_size) ** 2
    cola = np.zeros(4 * a.fft_size)
    for m in range((cola.size - a.fft_size) // a.hop + 1):
        cola[m * a.hop : m * a.hop + a.fft_size] += win
    interior = cola[a.fft_size : -a.fft_size]
    checks.append(("cola-constant", float(np.ptp(interior)) < 1e-10))

    w = Waveform(rng.standard_normal((2, 2 * a.sample_rate)), a.sample_rate)
    rec = istft(stft(w, a))
    err = np.linalg.norm(rec.samples[:, a.fft_size:-a.fft_size]
                         - w.samples[:, a.fft_size:-a.fft_size])
    rel = err / np.linalg.norm(w.samples[:, a.fft_size:-a.fft_size])
    checks.append(("stft-roundtrip", rel < 1e-6))

    phi = fourier_basis(57, cfg.n_basis)
    gram = phi.T @ phi
    checks.append(("basis-orthonormal", np.max(np.abs(gram - np.eye(cfg.n_basis))) < 1e-8))

    f, t = a.n_freq_bins, 40
    s_r = rng.standard_normal((f, t)) + 1j * rng.standard_normal((f, t))
    w_s = rng.standard_normal((f, t)) + 1j * rng.standard_normal((f, t))
    w_n = rng.standard_normal((f, t)) + 1j * rng.standard_normal((f, t))
    n_r = rng.standard_normal((f, t)) + 1j * rng.standard_normal((f, t))
    y = Spectrogram(np.stack([w_s * s_r + w_n * n_r, s_r + n_r]), a)
    s_hat = ratf_solve(y, RatfPair(w_s, w_n), eps=0.0)
    rel = np.linalg.norm(s_hat.bins[1] - s_r) / np.linalg.norm(s_r)
    checks.append(("ratf-closed-form", rel < 1e-6))

    # the plan's tiling is exact only if a row's product ignores the other rows
    c = cfg.channels
    x, weight = ((rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                 .astype(np.complex64) for shape in ((c, 13, 250), (c, c)))
    lin = CLinearParams(weight, np.zeros(c, np.complex64))
    whole = clinear(x, lin)
    checks.append(("clinear-rows-exact", all(
        np.array_equal(clinear(x[:, lo:hi], lin), whole[:, lo:hi])
        for lo, hi in ((0, 1), (3, 9), (12, 13)))))

    print(f"blas core: {workers.blas_core() or 'unknown'}")
    ok = True
    for name, passed in checks:
        print(f"{'PASS' if passed else 'FAIL'}  {name}")
        ok = ok and passed
    if not ok:
        raise InvariantViolation("selftest failed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="binse", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON file of RunConfig overrides")
        sp.add_argument("--model", help="weights file (omit for seeded random init)")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--ablate", action="append", metavar="FLAG",
                        help=f"one of {', '.join(_FLAGS)} (repeatable); "
                             "no_drg and global_drg exclude each other")

    sp = sub.add_parser("enhance", help="enhance a stereo 16 kHz WAV")
    common(sp)
    sp.add_argument("--input", required=True)
    sp.add_argument("--output", required=True)
    sp.add_argument("--dump", help="write per-stage arrays to this file")
    sp.add_argument("--save-model", help="also save the active weights here")
    sp.set_defaults(func=cmd_enhance)

    sp = sub.add_parser("synth", help="render a dataset from a JSONL manifest")
    sp.add_argument("--manifest", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_synth)

    sp = sub.add_parser("metrics", help="per-utterance metric report (JSONL)")
    common(sp)
    sp.add_argument("--dataset", required=True, help="directory from `synth`")
    sp.add_argument("--report", help="output path (default stdout)")
    sp.add_argument("--mbstoi-cmd", help="external MBSTOI scorer, {ref}/{est} templated")
    sp.add_argument("--pesq-cmd", help="external PESQ scorer, {ref}/{est} templated")
    sp.set_defaults(func=cmd_metrics)

    sp = sub.add_parser("bench", help="parameter/MAC/RTF report")
    common(sp)
    sp.add_argument("--seconds", type=float, default=1.0)
    sp.add_argument("--rtf", action="store_true", help="also measure wall-clock RTF")
    sp.add_argument("--repeats", type=int, default=20)
    sp.add_argument("--table", action="store_true", help="print a per-module table")
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("selftest", help="run the fast invariant suite")
    sp.set_defaults(func=cmd_selftest)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, ConfigMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InvariantViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (BinseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
