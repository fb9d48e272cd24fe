"""Smoke test of the benchmark itself. Run from the repository root:

    python3 perfbench/smoke.py

1. A one-second pass of every workload, untraced and traced, exits 0, reports
   ``correct: true`` and emits every metric BENCHMARK.json names, with its unit.
2. In a copy of the tree whose stored reference output is deliberately
   corrupted, the correctness gate trips.
3. In a copy without the binse sources, the benchmark exits non-zero and
   prints no result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--seed", "1", "--seconds", "1",
                           *args], capture_output=True, text=True, timeout=900, cwd=cwd)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc, result


def copy_tree(dest: Path, with_src: bool) -> Path:
    """A fresh copy of BENCHMARK.json and this directory, and of src/ if asked.
    src/ is copied, not linked, because run.py checks where binse resolves."""
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    skip = shutil.ignore_patterns("_out", "__pycache__")
    shutil.copytree(HERE, dest / HERE.name, ignore=skip)
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=skip)
    return dest


def check(label: str, ok: bool, detail: str = "") -> bool:
    print(f"{'PASS' if ok else 'FAIL'}  {label}" + (f"  ({detail})" if detail and not ok else ""),
          flush=True)
    return ok


def emits_every_metric(result, names_units: dict) -> str:
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"bad result line {result!r}"
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        return f"correct {result['correct']}, failed {result['failed']} of {result['attempted']}"
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != names_units:
        return f"metrics differ: missing {set(names_units) - set(got)}, extra {set(got) - set(names_units)}"
    bad = [k for k, v in result["metrics"].items()
           if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"])]
    return f"non-finite values {bad}" if bad else ""


def main() -> int:
    ok = True
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        names_units = {m["name"]: m["unit"] for m in SPEC[key]}
        for w in SPEC["workloads"]:
            proc, result = bench("--workload", w["name"], "--trace", str(trace))
            problem = emits_every_metric(result, names_units) or (
                f"exit {proc.returncode}" if proc.returncode else "")
            ok &= check(f"{w['name']} trace {trace}: every {key} metric with its unit",
                        not problem, problem + proc.stderr[-2000:])

    corrupt = copy_tree(HERE / "_out" / "corrupt", with_src=True)
    ref = corrupt / HERE.name / "reference" / "check_out.npy"
    np.save(ref, np.load(ref) * np.float32(1.001))
    proc, result = bench("--workload", "utt_2s", "--trace", "0", cwd=corrupt)
    ok &= check("corrupted reference trips the correctness gate",
                proc.returncode != 0 and result is not None and result["correct"] is False,
                f"exit {proc.returncode}, result {result}")
    shutil.rmtree(corrupt)

    bare = copy_tree(HERE / "_out" / "bare", with_src=False)
    proc, _ = bench("--workload", "utt_2s", "--trace", "0", cwd=bare)
    ok &= check("without binse sources: non-zero exit and no result",
                proc.returncode != 0 and not proc.stdout.strip(),
                f"exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    shutil.rmtree(bare)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
