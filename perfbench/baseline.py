"""Record baseline numbers: ten seeds per workload untraced, one traced run
each, summarised as median and quartiles. Run from the repository root:

    python3 perfbench/baseline.py [--seeds 0-9] [--out perfbench/baseline.json]

The spread printed per metric is (Q3 - Q1) / median over the seeds, as
``statistics.quantiles(values, n=4)`` gives the quartiles.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode or not result["correct"]:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stdout}{proc.stderr}")
    return result


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    p.add_argument("--out", default=str(HERE / "baseline.json"))
    args = p.parse_args()
    lo, hi = map(int, args.seeds.split("-"))
    seeds = list(range(lo, hi + 1))
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}

    summary = {"run_seconds": SPEC["run_seconds"], "seeds": seeds, "workloads": {}}
    for w in (w["name"] for w in SPEC["workloads"]):
        values: dict[str, list[float]] = {}
        for seed in seeds:
            for name, m in run(w, seed, 0)["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        rows = {}
        for name, v in values.items():
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                          "bound": bounds[name], "values": v}
            print(f"{w:<12} {name:<14} median {med:<12.6g} spread {(q3 - q1) / med:.3f} "
                  f"(bound {bounds[name]})", flush=True)
        traced = run(w, seeds[0], 1)["metrics"]
        summary["workloads"][w] = {
            "end_to_end": rows,
            "per_layer": {k: m["value"] for k, m in traced.items()},
        }
    env_path = HERE / "_out" / f"result-{SPEC['workloads'][0]['name']}-seed{seeds[0]}-trace0.json"
    summary["env"] = json.loads(env_path.read_text())["env"]
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
