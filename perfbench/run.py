"""binse benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload utt_2s --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, each in a fresh process

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end metrics; with ``--trace 1`` they are the per-layer
metrics from a traced run. The exit code is 0 only if every check passed.
See README.md in this directory for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
WORKLOAD_NAMES = ("utt_2s", "long_8s", "eval_corpus")

# The BLAS thread count is part of the protocol: fixed, at most 2 and at
# most the usable CPUs, and set before numpy loads its BLAS.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)


# (thread count, build config) entry points, by OpenBLAS build flavour
OPENBLAS_API = [(f"{prefix}get_num_threads{suffix}", f"{prefix}get_config{suffix}")
                for prefix in ("scipy_openblas_", "openblas_") for suffix in ("64_", "")]


def blas_record() -> list[dict]:
    """Loaded OpenBLAS libraries with their build config and live thread count."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    libs = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for threads_fn, config_fn in OPENBLAS_API:
            if hasattr(lib, threads_fn) and hasattr(lib, config_fn):
                getattr(lib, config_fn).restype = ctypes.c_char_p
                entry["config"] = getattr(lib, config_fn)().decode()
                entry["threads"] = getattr(lib, threads_fn)()
                break
        libs.append(entry)
    return libs


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads_set": BLAS_THREADS,
        "blas": blas_record(),
        "seed": seed,
    }


def print_rows(title: str, rows: dict):
    print(title)
    for name, (value, unit, note) in rows.items():
        print(f"  {name:<40} {value:>16.6g} {unit:<8} {note}")


def run_all(args) -> int:
    """Run every workload in its own fresh process, one after the other."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd).returncode)
    return worst


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES,
                   help="omit to run every workload, each in a fresh process")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0, help="length of the warm loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "binse" / "__init__.py").is_file():
        print(f"error: no binse sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)

    sys.path.insert(0, str(SRC))
    import binse

    if Path(binse.__file__).resolve().parent != SRC / "binse":
        print(f"error: imported binse from {binse.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    OUT.mkdir(exist_ok=True)
    ctx = workloads.Context(args.workload, args.seed, args.seconds, args.trace, OUT)
    workloads.run(ctx, SRC)

    env = environment(args.seed)
    metrics = ctx.per_layer if args.trace else ctx.end_to_end
    correct = ctx.phases.failed == 0
    print(f"workload {args.workload}: {workloads.WORKLOADS[args.workload]}")
    print(f"  closed loop, one caller; seed {args.seed}; loop {args.seconds:g} s; "
          f"trace {args.trace}")
    print_rows("metrics" if not args.trace else "per-layer metrics (per op)", metrics)
    print_rows("also", ctx.notes)
    for err in ctx.phases.errors:
        print(f"  FAILED {err}")
    print("env " + json.dumps(env))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "correct": correct, "phases": ctx.phases.counts,
              "errors": ctx.phases.errors, "env": env, "samples": ctx.samples,
              "metrics": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in metrics.items()},
              "also": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in ctx.notes.items()}}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, allow_nan=True)
    print(json.dumps({
        "correct": correct,
        "attempted": ctx.phases.attempted,
        "failed": ctx.phases.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
