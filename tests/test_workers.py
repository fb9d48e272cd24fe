"""numpy's ufunc buffer inside a plan: where ``workers.plan`` holds it, where
it does not reach, and that no output bit depends on it."""

import functools
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binse import workers
from binse.audio import Waveform
from binse.complex_ops import cln, cprelu, lightconv
from binse.config import RunConfig
from binse.decoder import refinement_gate
from binse.encoder import fuse
from binse.errors import InvariantViolation
from binse.modulator import modulator_block
from binse.params import init_random
from binse.pipeline import enhance
from conftest import rand_complex, small_config

NUMPY_BUFSIZE = 8192            # numpy's default ufunc buffer, in elements


def make_wave(rng, n):
    return Waveform(0.2 * rng.standard_normal((2, n)), 16000)


@pytest.fixture(scope="module")
def default():
    cfg = RunConfig()
    return cfg, init_random(cfg, seed=0)


@pytest.fixture
def caller_state():
    """A caller with a buffer size and errstate of its own, both checked
    unchanged after the test."""
    with np.errstate(over="ignore", under="warn", divide="raise", invalid="ignore"):
        np.setbufsize(1024)
        want = np.geterr(), np.getbufsize()
        yield want
        assert (np.geterr(), np.getbufsize()) == want


@pytest.fixture
def units_seen(monkeypatch):
    """The buffer size every ``workers.map`` unit starts with, and its thread."""
    seen, lock, real = [], threading.Lock(), workers.map

    def recording(fn, items):
        def unit(item):
            with lock:
                seen.append((np.getbufsize(), threading.current_thread().name))
            return fn(item)

        return real(unit, items)

    monkeypatch.setattr(workers, "map", recording)
    return seen


def under_buffer(size, fn):
    with np.errstate():
        np.setbufsize(size)
        return fn()


class TestBufferHold:
    def test_every_unit_of_a_plan_runs_under_the_plans_buffer(
            self, default, caller_state, units_seen):
        cfg, model = default
        enhance(make_wave(np.random.default_rng(0), 8000), model, cfg)
        # the gammatone filter groups, the band tiles, both passes' tiles
        # and the two decoder heads
        assert len(units_seen) > 8
        assert {size for size, _ in units_seen} == {workers._UFUNC_BUFSIZE}
        if workers.size() > 1:
            assert any(name.startswith("binse-plan") for _, name in units_seen)

    def test_the_callers_state_is_back_after_a_unit_raises(
            self, default, caller_state, monkeypatch):
        from binse import pipeline

        cfg, model = default
        error = InvariantViolation("raised in a tile")

        def failing(z, p, out=None):
            raise error

        monkeypatch.setattr(pipeline, "modulator_block", failing)
        with pytest.raises(InvariantViolation) as info:
            enhance(make_wave(np.random.default_rng(0), 8000), model, cfg)
        assert info.value is error
        assert (np.geterr(), np.getbufsize()) == caller_state

    def test_nested_plans_restore_the_callers_state(self, default, caller_state):
        """``binse metrics`` runs every item's enhance inside its own plan."""
        cfg, model = default
        with workers.plan():
            assert np.getbufsize() == workers._UFUNC_BUFSIZE
            assert np.geterr() == caller_state[0]
            enhance(make_wave(np.random.default_rng(0), 4000), model, cfg)
            assert np.getbufsize() == workers._UFUNC_BUFSIZE
        assert (np.geterr(), np.getbufsize()) == caller_state

    def test_threads_outside_a_plan_keep_numpys_default(self, default, monkeypatch):
        """A thread started while a plan runs, and the pool's threads once it
        has run, see numpy's own buffer size."""
        from binse import pipeline

        cfg, model = default
        outside, modulate = [], pipeline.modulator_block

        def probing(z, p, out=None):
            th = threading.Thread(target=lambda: outside.append(np.getbufsize()))
            th.start()
            th.join()
            return modulate(z, p, out=out)

        monkeypatch.setattr(pipeline, "modulator_block", probing)
        enhance(make_wave(np.random.default_rng(0), 8000), model, cfg)
        assert outside and set(outside) == {NUMPY_BUFSIZE}
        assert workers.map(lambda _: np.getbufsize(), range(4)) == [NUMPY_BUFSIZE] * 4


@functools.lru_cache(maxsize=None)
def seeded_model(channels):
    return init_random(small_config(channels=channels), seed=0)


@st.composite
def runs(draw):
    """A (C, rows, T) view whose inner run, rows * T elements per channel,
    lies within two of 256 or of 4096 (numpy buffers runs up to half its
    buffer), strided between channels as a tile of a larger tensor is."""
    t = draw(st.sampled_from([1, 2, 62, 128, 249, 257, 999]))
    run = draw(st.sampled_from([256, 4096])) + draw(st.integers(-2, 2))
    return dict(channels=draw(st.sampled_from([8, 80])), t=t, rows=max(1, round(run / t)),
                dtype=draw(st.sampled_from([np.complex64, np.complex128])),
                seed=draw(st.integers(0, 2**31 - 1)))


@settings(max_examples=30, deadline=None)
@given(runs())
def test_kernels_do_not_depend_on_the_buffer_size(case):
    """Each kernel of the plan gives the same bits under numpy's default
    buffer and the plan's, so neither the channel means of ``cln`` nor the
    row sums of the gate and the modulator follow the buffer's chunks."""
    model = seeded_model(case["channels"])
    enc, dec = model.encoder, model.decoder
    rng = np.random.default_rng(case["seed"])
    rows, t = case["rows"], case["t"]
    whole = [rand_complex(rng, (case["channels"], rows + 2, t)).astype(case["dtype"])
             for _ in range(2)]
    x, g = (a[:, 1:-1] for a in whole)

    def fresh():
        """x anew, in the same layout, for a kernel that works in place."""
        return whole[0].copy()[:, 1:-1]

    kernels = {
        "lightconv_1d": lambda: lightconv(x, enc.stft_blocks[1]),
        "lightconv_2d": lambda: lightconv(x, dec.head_s[0]),
        "cln": lambda: cln(fresh(), enc.stft_blocks[1].norm),
        "cprelu": lambda: cprelu(fresh(), 0.25),
        "fuse": lambda: fuse(x, g, enc),
        "modulator_block": lambda: modulator_block(x, model.modulator),
        "refinement_gate": lambda: refinement_gate(x, dec),
    }
    for name, kernel in kernels.items():
        want = under_buffer(NUMPY_BUFSIZE, kernel)
        np.testing.assert_array_equal(under_buffer(workers._UFUNC_BUFSIZE, kernel), want,
                                      err_msg=name)


@pytest.mark.parametrize("seconds", [0.5, 2])
def test_enhance_does_not_depend_on_the_buffer_hold(default, seconds):
    cfg, model = default
    w = make_wave(np.random.default_rng(0), int(seconds * 16000))
    held = enhance(w, model, cfg, collect_stages=True)
    with mock.patch.object(workers, "_UFUNC_BUFSIZE", NUMPY_BUFSIZE):
        plain = enhance(w, model, cfg, collect_stages=True)
    np.testing.assert_array_equal(held.wav_out.samples, plain.wav_out.samples)
    np.testing.assert_array_equal(held.ratfs.w_s, plain.ratfs.w_s)
    np.testing.assert_array_equal(held.ratfs.w_n, plain.ratfs.w_n)
    np.testing.assert_array_equal(held.gate, plain.gate)
    assert held.stages.keys() == plain.stages.keys()
    for name, want in plain.stages.items():
        np.testing.assert_array_equal(held.stages[name], want, err_msg=name)
