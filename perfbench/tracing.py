"""Span recording around calls into binse's public functions.

The wrappers live here, in the benchmark, not in the library. A function is
traced by replacing every module-global name in the ``binse`` package that is
bound to it. This matters because ``pipeline``, ``cli`` and the other modules
bind names at import (``from .decoder import decode_heads``), and
``complex_ops._lightconv`` looks its kernels up as module globals: patching
only the defining module would miss those call sites.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import sys
import time
from collections import defaultdict

# (span name, defining module, attribute). Several functions may share one
# span name: "losses.cue" is the interaural level plus phase error.
TARGETS = [
    ("pipeline.enhance", "binse.pipeline", "enhance"),
    ("params.init_random", "binse.params", "init_random"),
    ("frontend.build_gammatone_bank", "binse.frontend", "build_gammatone_bank"),
    ("frontend.stft", "binse.frontend", "stft"),
    ("frontend.gammatone_frames", "binse.frontend", "gammatone_frames"),
    ("frontend.istft", "binse.frontend", "istft"),
    ("encoder.encode_stft", "binse.encoder", "encode_stft"),
    ("encoder.encode_gamma", "binse.encoder", "encode_gamma"),
    ("encoder.fuse", "binse.encoder", "fuse"),
    ("encoder.recalibrate", "binse.encoder", "recalibrate"),
    ("modulator.modulator_block", "binse.modulator", "modulator_block"),
    ("decoder.decode_heads", "binse.decoder", "decode_heads"),
    ("decoder.ratf_solve", "binse.decoder", "ratf_solve"),
    ("decoder.refinement_gate", "binse.decoder", "refinement_gate"),
    ("decoder.blend", "binse.decoder", "blend"),
    ("complex_ops.depthwise", "binse.complex_ops", "_depthwise_conv"),
    ("complex_ops.clinear", "binse.complex_ops", "clinear"),
    ("complex_ops.cln", "binse.complex_ops", "cln"),
    ("complex_ops.cprelu", "binse.complex_ops", "cprelu"),
    ("cli.cmd_synth", "binse.cli", "cmd_synth"),
    ("cli.cmd_metrics", "binse.cli", "cmd_metrics"),
    ("synth.load_hrir_dir", "binse.synth", "load_hrir_dir"),
    ("synth.make_diffuse_noise", "binse.synth", "make_diffuse_noise"),
    ("synth.spatialize", "binse.synth", "spatialize"),
    ("synth.mix_at_snr", "binse.synth", "mix_at_snr"),
    ("audio.read_wav", "binse.audio", "read_wav"),
    ("audio.write_wav", "binse.audio", "write_wav"),
    ("losses.snr_loss", "binse.losses", "snr_loss"),
    ("losses.stoi_surrogate", "binse.losses", "stoi_surrogate"),
    ("losses.cue", "binse.losses", "ild_loss"),
    ("losses.cue", "binse.losses", "ipd_loss"),
]


class Tracer:
    """Keeps finished spans in memory as (id, parent, name, start, end, op).

    ``op`` is the identifier of the benchmark operation the span belongs to,
    shared by every span of that operation.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = None
        self._stack: list[int] = []
        self._ids = itertools.count()

    def wrap(self, name, fn):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end, self.op))

        return traced

    @contextlib.contextmanager
    def active(self, op):
        """Trace every function in TARGETS while the block runs, as operation ``op``."""
        originals = [(name, getattr(importlib.import_module(module), attr))
                     for name, module, attr in TARGETS]
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "binse" or n.startswith("binse.")) and m is not None]
        saved = []
        for name, original in originals:
            wrapper = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        saved.append((mod, key, original))
        self.op = op
        try:
            yield
        finally:
            self.op = None
            for mod, key, original in reversed(saved):
                setattr(mod, key, original)

    def write(self, path):
        with open(path, "w") as fh:
            for span_id, parent, name, start, end, op in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end, "op": op}) + "\n")


def aggregate(spans) -> dict[str, dict]:
    """Per span name: calls, total duration and total self time (seconds).

    Calls are synchronous, so child spans nest inside their parent and do not
    overlap one another; self time is the duration minus the children's.
    """
    covered = defaultdict(float)
    for span_id, parent, name, start, end, op in spans:
        if parent is not None:
            covered[parent] += end - start
    out: dict[str, dict] = {}
    for span_id, parent, name, start, end, op in spans:
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - covered[span_id]
    return out
