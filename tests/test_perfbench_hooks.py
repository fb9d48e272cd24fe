"""The benchmark's hooks into binse: the functions ``perfbench/tracing.py``
wraps and the calls ``perfbench/workloads.py`` makes still resolve and bind,
so a rename fails here rather than only in a traced benchmark run."""

import importlib
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from binse import frontend, modulator, pipeline, profiler
from binse.config import RunConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_tracing():
    """perfbench/tracing.py, loaded by path, writing no bytecode beside it."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    with mock.patch.object(sys, "dont_write_bytecode", True):
        spec.loader.exec_module(module)
    return module


def test_every_traced_target_is_a_binse_callable():
    targets = load_tracing().TARGETS
    assert targets
    for name, module, attr in targets:
        assert module.startswith("binse."), name
        assert callable(getattr(importlib.import_module(module), attr, None)), name


def test_the_workloads_calls_still_bind():
    cfg = RunConfig()
    w, model, bank = object(), object(), object()
    inspect.signature(pipeline.enhance).bind(w, model, cfg, bank=bank)
    inspect.signature(frontend.gammatone_frames).bind(w, bank, cfg.analysis)
    info = modulator.fourier_basis.cache_info()
    assert info.hits >= 0 and info.misses >= 0
    rows = profiler.count_macs(cfg, 2.0).mac_rows
    assert rows and all(isinstance(n, int) for n in rows.values())


def test_nothing_under_perfbench_is_modified():
    """Against the checked-out commit: the benchmark changes only in a commit
    of its own."""
    try:
        out = subprocess.run(["git", "-C", str(PERFBENCH.parent), "status", "--porcelain",
                              "--", "perfbench"], capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        out = None
    if out is None or out.returncode != 0:
        pytest.skip("not a git work tree")
    assert out.stdout == ""
