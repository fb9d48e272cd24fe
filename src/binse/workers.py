"""Worker threads for the independent units of the enhancement plan.

``map(fn, items)`` runs units on a pool of at most ``_MAX_WORKERS`` threads
only when it is called inside a running ``plan()``, in the process that
made the pool. Anywhere else it runs them one after the other on the
calling thread: outside any plan, inside a unit (also when that unit opens
a plan of its own), and in a forked child before its own first plan. The
pool is made on a process's first plan: while any plan runs, OpenBLAS is
held to one thread, so the pool, not BLAS, uses the other cores, and BLAS
rounds alike whatever thread count it was configured with.

A plan also holds numpy's ufunc buffer at ``_UFUNC_BUFSIZE`` elements in the
caller's numpy context, which the units inherit. numpy copies the
operands of a broadcast or strided elementwise op through that buffer when
the op's contiguous inner run (rows times frames, in a tile) is at most the
buffer divided by the op's operand count, at about three times the cost
per element: at the default 8192, runs up to 4096 for a unary op and 2730
for a binary one. The buffer changes no output bit, only the speed.

Each unit in flight holds a tile's temporaries (see ``pipeline._TILE_BYTES``),
so the pool size bounds the plan's memory above its utterance-sized arrays.
It is capped at the 2 threads whose memory was measured (peak RSS and the
8 s array peak), whatever the host's core count. The plan cuts its tiles in
a multiple of ``size()``, the threads of the pool that runs them: the pool
is sized once, and later changes to the CPUs a process may use do not
resize it.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import functools
import os
import threading

import numpy as np

_MAX_WORKERS = 2
# numpy's ufunc buffer, in elements, while a plan runs: only inner runs of
# 256 or fewer (170 for a binary op) are copied through it
_UFUNC_BUFSIZE = 512

# (get thread count, set thread count, kernel name) entry points of each
# OpenBLAS build flavour, by symbol name prefix and suffix
_OPENBLAS_API = [tuple(f"{prefix}{name}{suffix}"
                       for name in ("get_num_threads", "set_num_threads", "get_corename"))
                 for prefix in ("scipy_openblas_", "openblas_") for suffix in ("64_", "")]
_M_ARENA_MAX = -8                   # glibc mallopt parameter

# "plan" in a plan's caller, "unit" in the units it runs; unset elsewhere
_role: contextvars.ContextVar[str] = contextvars.ContextVar("binse_workers_role")
_lock = threading.Lock()
_pool = None                        # a ThreadPoolExecutor, made by the first plan
_pool_pid = None                    # a forked child gets _pool but not its threads
_plans_running = 0
_blas_saved: list[tuple] = []


def usable_cpus() -> int:
    """The CPUs this process may use."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_made_here() -> bool:
    """Whether this process's first plan has made its pool (None for one
    thread); a forked child makes its own at its own first plan."""
    return _pool_pid == os.getpid()


def size() -> int:
    """Threads that run the plan's units: those of this process's pool once
    its first plan has made it, however the usable CPUs change after that,
    and before then the pool that plan will make."""
    if _pool_made_here():
        return _pool._max_workers if _pool is not None else 1
    return min(usable_cpus(), _MAX_WORKERS)


@functools.cache
def openblas() -> tuple[tuple, ...]:
    """(get, set, corename) functions of every OpenBLAS loaded here, ordered
    by path: the thread count's getter and setter, and the running kernel's
    name. Found once per process, from the libraries in /proc/self/maps."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return ()
    found = []
    for path in paths:
        with contextlib.suppress(OSError):
            lib = ctypes.CDLL(path)
            names = next((names for names in _OPENBLAS_API
                          if all(hasattr(lib, name) for name in names)), None)
            if names is not None:
                get, set_, corename = (getattr(lib, name) for name in names)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                found.append((get, set_, corename))
    return tuple(found)


def blas_core() -> str | None:
    """The kernel the first OpenBLAS loaded here runs, as it names it (such
    as "SkylakeX"), or None where none is loaded. Output bits are exact
    across tilings and pool sizes on one kernel, not across kernels."""
    return next((corename().decode() for _, _, corename in openblas()), None)


def _start():
    """On a process's first plan: make the pool (none for one thread) after
    capping glibc at one malloc arena, so that the workers' tile temporaries
    reuse the main heap rather than each growing a heap of its own."""
    global _pool, _pool_pid
    with _lock:
        if _pool_made_here():
            return
        n = size()
        if n > 1:
            with contextlib.suppress(OSError, AttributeError):
                mallopt = ctypes.CDLL(None).mallopt
                mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
                mallopt(_M_ARENA_MAX, 1)
        # imported here, as it loads logging: ~8 ms of every process's set-up
        from concurrent.futures import ThreadPoolExecutor

        _pool = ThreadPoolExecutor(n, thread_name_prefix="binse-plan") if n > 1 else None
        _pool_pid = os.getpid()


@contextlib.contextmanager
def plan():
    """Make the pool if this process has none, hold OpenBLAS to one thread
    while any plan runs, and numpy's ufunc buffer at ``_UFUNC_BUFSIZE`` in
    the caller's context while this one runs. Plans nest: one opened inside
    a unit leaves its maps on the unit's thread. The BLAS count from before
    the first of overlapping plans is restored after the last, and the
    caller's buffer size and errstate on exit, also when a plan raises."""
    global _plans_running, _blas_saved
    _start()
    with _lock:
        if _plans_running == 0:
            _blas_saved = [(set_, get()) for get, set_, _ in openblas()]
            for set_, _ in _blas_saved:
                set_(1)
        _plans_running += 1
    role = _role.set("unit" if _role.get(None) == "unit" else "plan")
    try:
        # the buffer size lives in the errstate scope, which restores it
        with np.errstate():
            np.setbufsize(_UFUNC_BUFSIZE)
            yield
    finally:
        _role.reset(role)
        with _lock:
            _plans_running -= 1
            if _plans_running == 0:
                for set_, n in _blas_saved:
                    set_(n)


def _unit(fn, item):
    _role.set("unit")
    return fn(item)


def map(fn, items) -> list:
    """[fn(item) for item in items]. Inside a running plan, in the process
    that made the pool, the items run on the pool, each unit in a copy of
    the caller's context (numpy's errstate lives there); if a unit raises,
    the units not yet started are cancelled and the first failure in item
    order is raised unchanged, once the started units have finished. Called
    anywhere else, by a unit too, the items run in order on the calling
    thread: a unit's items queued behind its caller could wait on workers
    that all wait on them."""
    items = list(items)
    if len(items) < 2 or _role.get(None) != "plan" or not _pool_made_here() or _pool is None:
        return [fn(item) for item in items]
    futures = [_pool.submit(contextvars.copy_context().run, _unit, fn, item) for item in items]
    try:
        return [future.result() for future in futures]
    finally:
        # all cancelled first: a worker freed by one waited on takes the next
        started = [future for future in futures if not future.cancel()]
        for future in started:
            future.exception()          # waits for the unit to finish
