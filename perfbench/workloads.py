"""The benchmark's workloads, their correctness checks and their metrics.

Every workload is a closed loop with one caller: the next operation starts
only after the previous one has returned. binse is called through module
attributes (``pipeline.enhance``, ``cli.main``) so that a traced run reaches
the wrappers installed by ``tracing.Tracer.active``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from binse import cli, frontend, modulator, params, pipeline
from binse.audio import Waveform
from binse.config import RunConfig
from binse.profiler import count_macs

from inputs import ITEM_SECONDS, SR, mixture, write_manifest, write_sources
from tracing import Tracer, aggregate

WORKLOADS = {
    "utt_2s": "back-to-back enhance on distinct 2 s mixtures; the network layers do the work",
    "long_8s": "the same loop on 8 s mixtures; whole-utterance intermediates set peak memory",
    "eval_corpus": "binse synth then binse metrics over seeded corpora of 0.5-3 s items",
}
ENHANCE_SECONDS = {"utt_2s": 2.0, "long_8s": 8.0}
ITEMS_PER_ROUND = 4
SETUP_PROBES = 7           # fresh processes timed from start to ready
# How many of those probes also time their first operation. Together with
# the first operation of the measuring process they give the cold samples;
# fewer where one operation takes seconds, to keep a run within its budget.
COLD_PROBES = {"utt_2s": 7, "long_8s": 1, "eval_corpus": 1}
SETUP_REPEATS = 5          # traced in-process set-ups, for per-layer set-up times
CHECK_SEED = 20250917      # fixed check input, independent of --seed
CHECK_SECONDS = 0.5
REFERENCE = Path(__file__).resolve().parent / "reference" / "check_out.npy"
REFERENCE_RTOL = 1e-5      # relative L2 error allowed against the stored output
SNR_TOL_DB = 0.1
METRIC_COLUMNS = {"item_id", "snr_in", "snr_out", "stoi_surrogate", "ild_err", "ipd_err",
                  "mbstoi", "delta_pesq", "gate_mean", "gate_min", "gate_max"}
EXTERNAL_COLUMNS = {"mbstoi", "delta_pesq"}    # null unless a scorer command is given

NETWORK_LAYERS = [
    "frontend.stft", "frontend.gammatone_frames", "frontend.istft",
    "encoder.encode_stft", "encoder.encode_gamma", "encoder.fuse", "encoder.recalibrate",
    "modulator.modulator_block",
    "decoder.decode_heads", "decoder.ratf_solve", "decoder.refinement_gate", "decoder.blend",
    "complex_ops.depthwise", "complex_ops.clinear", "complex_ops.cln", "complex_ops.cprelu",
]
# profiler.count_macs row -> spans whose inclusive time does that row's work
MAC_SPANS = {
    "encoder": ["encoder.encode_stft", "encoder.encode_gamma", "encoder.fuse", "encoder.recalibrate"],
    "modulator": ["modulator.modulator_block"],
    "decoder": ["decoder.decode_heads", "decoder.refinement_gate"],
}
DATASET_SELF = ["synth.load_hrir_dir", "synth.make_diffuse_noise", "synth.spatialize",
                "audio.write_wav", "audio.read_wav", "losses.stoi_surrogate", "losses.cue",
                "cli.cmd_synth", "cli.cmd_metrics"]


class Phases:
    """Attempted and failed operations per phase; a failed check is a failure."""

    def __init__(self):
        self.counts: dict[str, list[int]] = {}
        self.errors: list[str] = []

    def record(self, phase: str, ok: bool, what: str = ""):
        row = self.counts.setdefault(phase, [0, 0])
        row[0] += 1
        if not ok:
            row[1] += 1
            self.errors.append(f"{phase}: {what}")

    def merge(self, counts: dict, errors: list[str]):
        for phase, (attempted, failed) in counts.items():
            row = self.counts.setdefault(phase, [0, 0])
            row[0] += attempted
            row[1] += failed
        self.errors += errors

    @property
    def attempted(self) -> int:
        return sum(a for a, _ in self.counts.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.counts.values())


class Context:
    def __init__(self, workload, seed, seconds, trace, out_dir: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = Tracer() if trace else None
        self.out_dir = out_dir
        self.cfg = RunConfig()
        self.phases = Phases()
        self.end_to_end: dict[str, tuple] = {}   # name -> (value, unit, note)
        self.per_layer: dict[str, tuple] = {}
        self.notes: dict[str, tuple] = {}        # printed, not part of the result line
        self.samples: dict[str, list] = {}       # raw timings, kept in the run record
        self.model = None
        self.bank = None

    def rng(self, *key) -> np.random.Generator:
        return np.random.default_rng([self.seed, *key])


@dataclass
class Op:
    """One completed operation: wall time, audio seconds, and the padded
    length in seconds of each enhance call it made."""

    wall: float
    audio_s: float
    enhance_s: list[float]
    synth_s: float = 0.0
    metrics_s: float = 0.0


def make_bank(cfg: RunConfig):
    return frontend.build_gammatone_bank(cfg.analysis, cfg.n_gammatone, cfg.gammatone_lo_hz,
                                         cfg.gammatone_hi_hz, cfg.gammatone_taps)


def padded_seconds(n: int, cfg: RunConfig) -> float:
    """Duration of an n-sample input after ``pipeline.pad_to_frame_grid``,
    for exact MAC rows."""
    return pipeline.pad_to_frame_grid(Waveform(np.zeros((2, n)), SR), cfg).duration_s


def tail(values: list[float]) -> tuple[float, float, int] | None:
    """Highest percentile with at least ten samples beyond it: (value, pct, n)."""
    n = len(values)
    if n < 11:
        return None
    k = n - 11
    return sorted(values)[k], 100.0 * (k + 1) / n, n


# --- workloads ----------------------------------------------------------------

class EnhanceLoop:
    """``pipeline.enhance`` on distinct seeded mixtures of one length; the
    model and the gammatone bank are built once, in set-up."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.n = int(ENHANCE_SECONDS[ctx.workload] * SR)

    def op(self, i: int, phase: str) -> Op | None:
        ctx = self.ctx
        x = mixture(ctx.rng(i), self.n)
        w = Waveform(x, SR)
        try:
            t0 = time.perf_counter()
            y = pipeline.enhance(w, ctx.model, ctx.cfg, bank=ctx.bank).wav_out.samples
            wall = time.perf_counter() - t0
        except Exception as exc:  # count the failure, keep the loop running
            ctx.phases.record(phase, False, repr(exc))
            return None
        finite = bool(np.all(np.isfinite(y)))
        ok = y.shape == x.shape and finite
        ctx.phases.record(phase, ok, f"output shape {y.shape}, finite {finite}")
        return Op(wall, self.n / SR, [padded_seconds(self.n, ctx.cfg)]) if ok else None

    def close(self):
        pass


class CorpusLoop:
    """Rounds of ``binse synth`` then ``binse metrics`` through ``cli.main``,
    each over a fresh seeded corpus of ITEMS_PER_ROUND items."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.work = ctx.out_dir / f"eval-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.sources = write_sources(self.work / "sources", ctx.rng(10 ** 6))

    def op(self, r: int, phase: str) -> Op | None:
        ctx = self.ctx
        rdir = self.work / f"round{r}"
        rdir.mkdir()
        manifest, data, report = rdir / "manifest.jsonl", rdir / "data", rdir / "report.jsonl"
        specs = write_manifest(manifest, self.sources, ctx.rng(r), ITEMS_PER_ROUND, f"r{r}",
                               fixed_lengths=r == 0)
        t0 = time.perf_counter()
        code_s, out_s = _quiet(["synth", "--manifest", str(manifest), "--out", str(data)])
        t1 = time.perf_counter()
        code_m, _ = _quiet(["metrics", "--dataset", str(data), "--report", str(report)])
        t2 = time.perf_counter()
        ok_s = self._check_synth(specs, code_s, out_s, data / "metadata.jsonl")
        ok_m = self._check_metrics(specs, code_m, report)
        shutil.rmtree(rdir)
        if not (ok_s and ok_m):
            return None
        n = [int(round(s["duration_s"] * SR)) for s in specs]
        return Op(t2 - t0, sum(n) / SR, [padded_seconds(k, ctx.cfg) for k in n],
                  synth_s=t1 - t0, metrics_s=t2 - t1)

    def _check_synth(self, specs, code, stdout, meta_path) -> bool:
        """n_ok equals the item count and each measured SNR is within SNR_TOL_DB."""
        try:
            summary = json.loads(stdout.strip().splitlines()[-1])
            meta = {m["item_id"]: m for m in map(json.loads, meta_path.read_text().splitlines())}
        except (IndexError, ValueError, OSError, KeyError, TypeError):
            summary, meta = {}, {}
        if not isinstance(summary, dict):
            summary = {}
        run_ok = code == 0 and summary.get("n_ok") == len(specs) and not summary.get("failures")
        all_ok = True
        for spec in specs:
            m = meta.get(spec["item_id"])
            snr = m.get("measured_snr_db") if isinstance(m, dict) else None
            ok = run_ok and _finite(snr) and abs(snr - spec["snr_db"]) <= SNR_TOL_DB
            self.ctx.phases.record("synth", ok, f"{spec['item_id']}: exit {code}, record {m}")
            all_ok &= ok
        return all_ok

    def _check_metrics(self, specs, code, report) -> bool:
        """One row per item with the full column set and finite scores."""
        try:
            rows = {r["item_id"]: r for r in map(json.loads, report.read_text().splitlines())}
        except (ValueError, OSError, KeyError, TypeError):
            rows = {}
        all_ok = True
        for spec in specs:
            row = rows.get(spec["item_id"])
            ok = code == 0 and isinstance(row, dict) and set(row) == METRIC_COLUMNS and all(
                row[c] is None if c in EXTERNAL_COLUMNS else _finite(row[c])
                for c in METRIC_COLUMNS - {"item_id"})
            self.ctx.phases.record("metrics", ok, f"{spec['item_id']}: exit {code}, row {row}")
            all_ok &= ok
        return all_ok

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _quiet(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def make_loop(ctx: Context):
    return EnhanceLoop(ctx) if ctx.workload in ENHANCE_SECONDS else CorpusLoop(ctx)


# --- set-up -------------------------------------------------------------------

def setup(ctx: Context):
    if ctx.tracer is None:
        ctx.model = params.init_random(ctx.cfg, seed=0)
        ctx.bank = make_bank(ctx.cfg)
        return
    with ctx.tracer.active("setup"):
        for _ in range(SETUP_REPEATS):
            ctx.model = params.init_random(ctx.cfg, seed=0)
            ctx.bank = make_bank(ctx.cfg)


def probe(ctx: Context, src: Path) -> tuple[list[float], list[float]]:
    """Start SETUP_PROBES fresh processes, one at a time. Each is timed from
    start to ready; the first COLD_PROBES of them then time their first
    operation. Returns (set-up times, cold times)."""
    script = Path(__file__).with_name("setup_probe.py")
    setups, colds = [], []
    for k in range(SETUP_PROBES):
        cmd = [sys.executable, str(script), str(src)]
        if k < COLD_PROBES[ctx.workload]:
            cmd += [ctx.workload, str(ctx.seed), str(ctx.out_dir)]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            ready = proc.stdout.readline().strip()
            dt = time.perf_counter() - t0
            rest = proc.stdout.read()
            code = proc.wait(timeout=600)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        ok = ready == "ready" and code == 0
        ctx.phases.record("setup", ok, f"probe exited {code} after {ready!r}")
        if ok:
            setups.append(dt)
        if len(cmd) > 3 and ok:
            cold = json.loads(rest.strip().splitlines()[-1])
            ctx.phases.merge(cold["phases"], cold["errors"])
            if cold["cold_s"] is not None:
                colds.append(cold["cold_s"])
    return setups, colds


def cold_op(ctx: Context) -> Op | None:
    """The first operation of a fresh process, after set-up."""
    loop = make_loop(ctx)
    try:
        return loop.op(0, "cold")
    finally:
        loop.close()


# --- measurement --------------------------------------------------------------

def measure(ctx: Context, colds: list[float]):
    """Cold operation, then the closed loop for ``ctx.seconds``.

    Untraced, every loop operation is timed. Traced, operations alternate
    between untraced and traced, so the two can be compared for overhead.
    """
    loop = make_loop(ctx)
    try:
        first = loop.op(0, "cold")
        plain, traced = [], []
        lookups = hits = 0
        t_end = time.perf_counter() + ctx.seconds
        i = 1
        while time.perf_counter() < t_end or i <= (2 if ctx.tracer else 1):
            if ctx.tracer is not None and i % 2 == 0:
                before = modulator.fourier_basis.cache_info()
                with ctx.tracer.active(i):
                    op = loop.op(i, "warm")
                after = modulator.fourier_basis.cache_info()
                lookups += after.hits + after.misses - before.hits - before.misses
                hits += after.hits - before.hits
                if op is not None:
                    traced.append(op)
            else:
                op = loop.op(i, "warm")
                if op is not None:
                    plain.append(op)
            i += 1
    finally:
        loop.close()
    if first is not None:
        colds = colds + [first.wall]
    if ctx.tracer is None:
        if colds and plain:
            report_end_to_end(ctx, colds, plain)
    elif traced and plain:
        report_layers(ctx, traced, plain, lookups, hits)


def report_end_to_end(ctx: Context, colds: list[float], ops: list[Op]):
    ctx.samples.update(cold_s=colds, warm_wall_s=[op.wall for op in ops],
                       warm_audio_s=[op.audio_s for op in ops])
    what = "enhance call" if ctx.workload in ENHANCE_SECONDS else f"round of {ITEMS_PER_ROUND} items"
    rtf = [op.wall / op.audio_s for op in ops]
    items = sum(len(op.enhance_s) for op in ops)
    ctx.end_to_end["cold_call_s"] = (statistics.median(colds), "s",
                                     f"first {what} of a fresh process, median of {len(colds)}")
    ctx.end_to_end["rtf_p50"] = (statistics.median(rtf), "s/s", f"median of {len(ops)} warm ops")
    t = tail(rtf)
    ctx.notes["rtf_tail"] = ((t[0], "s/s", f"p{t[1]:.1f} of {t[2]} warm ops") if t
                             else (math.nan, "s/s", f"n/a: {len(ops)} warm ops < 11"))
    if ctx.workload not in ENHANCE_SECONDS:
        ctx.notes["synth_items_per_s"] = (items / sum(op.synth_s for op in ops), "items/s",
                                          "binse synth")
        ctx.notes["eval_items_per_s"] = (items / sum(op.metrics_s for op in ops), "items/s",
                                         "binse metrics")


def allocated_peaks(ctx: Context, seconds: float) -> tuple[int, int]:
    """Peak bytes of arrays allocated during one gammatone_frames call and one
    enhance call, from tracemalloc (numpy reports each array's data size)."""
    w = Waveform(mixture(ctx.rng(10 ** 6 + 1), int(seconds * SR)), SR)
    padded = pipeline.pad_to_frame_grid(w, ctx.cfg)
    tracemalloc.start()
    try:
        frontend.gammatone_frames(padded, ctx.bank, ctx.cfg.analysis)
        frames_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        pipeline.enhance(w, ctx.model, ctx.cfg, bank=ctx.bank)
        enhance_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return frames_peak, enhance_peak


def report_layers(ctx: Context, traced: list[Op], plain: list[Op], lookups: int, hits: int):
    """Per-layer metrics from the traced operations, per item: one enhance
    call, or one corpus item on eval_corpus."""
    n_items = sum(len(op.enhance_s) for op in traced)
    loop = aggregate([s for s in ctx.tracer.spans if s[5] != "setup"])
    setup_rows = aggregate([s for s in ctx.tracer.spans if s[5] == "setup"])
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def row(name):
        return loop.get(name, zero)

    layers = ctx.per_layer
    for name in NETWORK_LAYERS:
        layers[f"{name}.self_ms"] = (1e3 * row(name)["self_s"] / n_items, "ms", "self time per item")
        layers[f"{name}.calls"] = (row(name)["calls"] / n_items, "count", "calls per item")
    enh = row("pipeline.enhance")
    layers["pipeline.enhance.ms"] = (1e3 * enh["total_s"] / n_items, "ms", "wall per enhance call")
    layers["pipeline.enhance.self_ms"] = (1e3 * enh["self_s"] / n_items, "ms",
                                          "enhance time outside every traced layer")
    layers["trace.coverage_frac"] = (1.0 - enh["self_s"] / enh["total_s"], "frac",
                                     "share of enhance wall time in traced layers")

    macs: dict[str, int] = {}
    for op in traced:
        for sec in op.enhance_s:
            for module, count in count_macs(ctx.cfg, sec).mac_rows.items():
                macs[module] = macs.get(module, 0) + count
    for module, spans in MAC_SPANS.items():
        busy = sum(row(s)["total_s"] for s in spans)
        layers[f"{module}.gmac_s"] = (macs[module] / 1e9 / busy, "GMAC/s",
                                      f"count_macs['{module}'] / time in {', '.join(spans)}")

    bytes_s = ENHANCE_SECONDS.get(ctx.workload, ITEM_SECONDS[1])
    frames_peak, enhance_peak = allocated_peaks(ctx, bytes_s)
    layers["frontend.gammatone_frames.bytes"] = (frames_peak, "bytes",
                                                 f"computed: peak array bytes, {bytes_s:g} s input")
    layers["pipeline.enhance.bytes"] = (enhance_peak, "bytes",
                                        f"computed: peak array bytes, {bytes_s:g} s input")
    for name in ("params.init_random", "frontend.build_gammatone_bank"):
        r = setup_rows[name]
        layers[f"{name}.self_ms"] = (1e3 * r["self_s"] / r["calls"], "ms", "self time per set-up call")
    layers["frontend.build_gammatone_bank.calls"] = (
        row("frontend.build_gammatone_bank")["calls"] / n_items, "count", "calls per item, after set-up")
    layers["modulator.fourier_basis.hit_ratio"] = (hits / lookups, "frac",
                                                   f"{hits} hits of {lookups} cache lookups")
    layers["modulator.fourier_basis.lookups"] = (lookups / n_items, "count", "cache lookups per item")
    for name in DATASET_SELF:
        layers[f"{name}.self_ms"] = (1e3 * row(name)["self_s"] / n_items, "ms", "self time per item")
    layers["synth.spatialize.calls"] = (row("synth.spatialize")["calls"] / n_items, "count",
                                        "calls per item")
    t = statistics.median(op.wall / op.audio_s for op in traced)
    p = statistics.median(op.wall / op.audio_s for op in plain)
    layers["trace.overhead_frac"] = ((t - p) / p, "frac",
                                     f"traced vs untraced wall per audio second, "
                                     f"{len(traced)} and {len(plain)} ops")
    ctx.tracer.write(ctx.out_dir / f"spans-{ctx.workload}-seed{ctx.seed}.jsonl")


# --- reference check ----------------------------------------------------------

def reference_output(model, cfg, bank) -> np.ndarray:
    """Enhanced output of the fixed check input, shape (2, CHECK_SECONDS * SR)."""
    x = mixture(np.random.default_rng(CHECK_SEED), int(CHECK_SECONDS * SR))
    return pipeline.enhance(Waveform(x, SR), model, cfg, bank=bank).wav_out.samples


def check_reference(ctx: Context):
    try:
        y = reference_output(ctx.model, ctx.cfg, ctx.bank)
        ref = np.load(REFERENCE)
        rel = (float(np.linalg.norm(y - ref) / np.linalg.norm(ref))
               if ref.shape == y.shape else math.inf)
    except Exception as exc:  # a missing or unreadable reference fails the gate
        ctx.phases.record("reference", False, repr(exc))
        return
    ctx.phases.record("reference", rel <= REFERENCE_RTOL,
                      f"relative error {rel:.3g} > {REFERENCE_RTOL:g} against {REFERENCE.name}")
    ctx.notes["reference_rel_err"] = (rel, "frac", f"limit {REFERENCE_RTOL:g}")


def run(ctx: Context, src: Path):
    colds = []
    if ctx.tracer is None:
        setups, colds = probe(ctx, src)
        ctx.samples["setup_s"] = setups
        if setups:
            ctx.end_to_end["setup_s"] = (statistics.median(setups), "s",
                                         f"start to ready, median of {len(setups)} fresh processes")
    setup(ctx)
    measure(ctx, colds)
    check_reference(ctx)
    if ctx.tracer is None:
        ctx.end_to_end["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                         "MB", "measuring process, ru_maxrss")
    for phase, (attempted, failed) in ctx.phases.counts.items():
        ctx.notes[f"failed_frac.{phase}"] = (failed / attempted, "frac", f"{failed} of {attempted}")
