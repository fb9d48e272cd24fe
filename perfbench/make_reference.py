"""Write the stored output of the fixed check input that every benchmark run
compares against (``reference/check_out.npy``, float32).

Regenerate it only for a change that is meant to alter enhance outputs, and
say so in that change; run from the repository root:

    python3 perfbench/make_reference.py
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from workloads import REFERENCE, Context, reference_output, setup  # noqa: E402

ctx = Context("utt_2s", seed=0, seconds=0, trace=False, out_dir=HERE)
setup(ctx)
np.save(REFERENCE, reference_output(ctx.model, ctx.cfg, ctx.bank).astype(np.float32))
print(f"wrote {REFERENCE}")
