"""Worker threads for the independent units of the enhancement plan.

``map(fn, items)`` runs units on a pool of at most ``_MAX_WORKERS`` threads,
or one after the other when there is no pool or when a unit calls it. The
pool is made on a process's first ``plan()``: while any plan runs, OpenBLAS
is held to one thread, so the pool, not BLAS, uses the other cores, and
BLAS rounds alike whatever thread count it was configured with.

A plan also holds numpy's ufunc buffer at ``_UFUNC_BUFSIZE`` elements in the
caller's numpy context, which the units inherit (numpy 2; numpy 1.x keeps
it per thread, so there only the calling thread gets it). numpy copies the
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
import os
import threading

import numpy as np

_MAX_WORKERS = 2
# numpy's ufunc buffer, in elements, while a plan runs: only inner runs of
# 256 or fewer (170 for a binary op) are copied through it
_UFUNC_BUFSIZE = 512

# (get, set) thread-count entry points, by OpenBLAS build flavour
_OPENBLAS_API = [(f"{prefix}get_num_threads{suffix}", f"{prefix}set_num_threads{suffix}")
                 for prefix in ("scipy_openblas_", "openblas_") for suffix in ("64_", "")]
_M_ARENA_MAX = -8                   # glibc mallopt parameter

_lock = threading.Lock()
_local = threading.local()          # .in_pool is set on the pool's threads
_pool = None                        # a ThreadPoolExecutor, made by the first plan
_pool_pid = None                    # a forked child gets _pool but not its threads
_openblas_threads: list | None = None
_plans_running = 0
_blas_saved: list[tuple] = []


def usable_cpus() -> int:
    """The CPUs this process may use."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def size() -> int:
    """Threads that run the plan's units: those of this process's pool once
    its first plan has made it, however the usable CPUs change after that,
    and before then the pool that plan will make."""
    if _pool_pid == os.getpid():
        return _pool._max_workers if _pool is not None else 1
    return min(usable_cpus(), _MAX_WORKERS)


def openblas() -> list[tuple]:
    """(get, set) thread-count functions of every OpenBLAS loaded here."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get, set_ in _OPENBLAS_API:
            if hasattr(lib, get) and hasattr(lib, set_):
                get, set_ = getattr(lib, get), getattr(lib, set_)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                found.append((get, set_))
                break
    return found


def _start():
    """On the first plan of a process: find OpenBLAS, and make the pool (none
    for one thread) after capping glibc at one malloc arena, so that the
    workers' tile temporaries reuse the main heap rather than each growing a
    heap of its own."""
    global _pool, _pool_pid, _openblas_threads
    with _lock:
        if _openblas_threads is None:
            _openblas_threads = openblas()
        if _pool_pid == os.getpid():
            return
        n = size()
        if n > 1:
            with contextlib.suppress(OSError, AttributeError):
                mallopt = ctypes.CDLL(None).mallopt
                mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
                mallopt(_M_ARENA_MAX, 1)
        # imported here, as it loads logging: ~8 ms of every process's set-up
        from concurrent.futures import ThreadPoolExecutor

        _pool = ThreadPoolExecutor(n, thread_name_prefix="binse-plan",
                                   initializer=_mark_pool_thread) if n > 1 else None
        _pool_pid = os.getpid()


def _mark_pool_thread():
    _local.in_pool = True


@contextlib.contextmanager
def plan():
    """Make the pool if this process has none, hold OpenBLAS to one thread
    while any plan runs, and numpy's ufunc buffer at ``_UFUNC_BUFSIZE`` in
    the caller's context while this one runs. The BLAS count from before
    the first of overlapping plans is restored after the last, and the
    caller's buffer size and errstate on exit, also when a plan raises."""
    global _plans_running, _blas_saved
    _start()
    with _lock:
        if _plans_running == 0:
            _blas_saved = [(set_, get()) for get, set_ in _openblas_threads]
            for set_, _ in _blas_saved:
                set_(1)
        _plans_running += 1
    try:
        # numpy 2 ties the buffer size to the errstate scope; numpy 1.x does
        # not, so it is also set back by hand
        with np.errstate():
            saved = np.setbufsize(_UFUNC_BUFSIZE)
            try:
                yield
            finally:
                np.setbufsize(saved)
    finally:
        with _lock:
            _plans_running -= 1
            if _plans_running == 0:
                for set_, n in _blas_saved:
                    set_(n)


def map(fn, items) -> list:
    """[fn(item) for item in items], run on the pool, each unit in a copy of
    the caller's context (numpy's errstate lives there). If a unit raises,
    the units not yet started are cancelled and the first failure in item
    order is raised unchanged, once the started units have finished. A map
    called by a unit runs its items one after the other on the unit's
    thread: queued behind the caller, they could wait on workers that all
    wait on them."""
    items = list(items)
    if _pool is None or len(items) < 2 or getattr(_local, "in_pool", False):
        return [fn(item) for item in items]
    futures = [_pool.submit(contextvars.copy_context().run, fn, item) for item in items]
    try:
        return [future.result() for future in futures]
    finally:
        # all cancelled first: a worker freed by one waited on takes the next
        started = [future for future in futures if not future.cancel()]
        for future in started:
            future.exception()          # waits for the unit to finish
