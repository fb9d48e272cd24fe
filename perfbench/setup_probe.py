"""Fresh-process probe for set-up and cold-call times.

    python3 setup_probe.py <src dir> [<workload> <seed> <out dir>]

Imports binse as its CLI does, builds the seed-0 model and the gammatone
bank, and prints "ready"; the parent times process start to that line. Given
a workload, it then runs that workload's first operation and prints one JSON
line with its wall time and the outcome of its checks.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, sys.argv[1])

import binse.cli  # noqa: E402,F401  (the import a `binse` invocation makes)
from binse.config import RunConfig  # noqa: E402
from binse.frontend import build_gammatone_bank  # noqa: E402
from binse.params import init_random  # noqa: E402

cfg = RunConfig()
model = init_random(cfg, seed=0)
bank = build_gammatone_bank(cfg.analysis, cfg.n_gammatone, cfg.gammatone_lo_hz,
                            cfg.gammatone_hi_hz, cfg.gammatone_taps)
print("ready", flush=True)

if len(sys.argv) > 2:
    import workloads

    ctx = workloads.Context(sys.argv[2], int(sys.argv[3]), 0, False, Path(sys.argv[4]))
    ctx.model, ctx.bank = model, bank
    op = workloads.cold_op(ctx)
    print(json.dumps({"cold_s": op.wall if op else None,
                      "phases": ctx.phases.counts, "errors": ctx.phases.errors}))
