"""Every config key is checked against its declared range on every path.

An in-range config, drawn small, runs ``binse bench --rtf`` to a finite RTF;
a config with one key (or one cross-key rule) out of range exits 2 and names
the key at fault.
"""

import dataclasses
import json
import math

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from binse.cli import main
from binse.config import RunConfig

from test_cli import SMALL_CFG

BENCH = ["--rtf", "--repeats", "1", "--seconds", "0.5"]
FIXTURES_PER_EXAMPLE = [HealthCheck.function_scoped_fixture]


def bench(tmp_path, overrides):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(overrides))
    return main(["bench", "--config", str(path), *BENCH])


def odd(lo, hi):
    return st.integers(lo, hi).map(lambda k: k | 1)


@st.composite
def in_range(draw):
    fft_size = draw(st.sampled_from([128, 256]))
    sample_rate = draw(st.integers(2 * fft_size, 16000))     # 0.5 s holds a frame
    channels = draw(st.integers(1, 16))
    gate = draw(st.sampled_from([{}, {"no_drg": True}, {"global_drg": True}]))
    return gate | {
        "analysis": {
            "sample_rate": sample_rate,
            "fft_size": fft_size,
            "hop": draw(st.sampled_from([h for h in (16, 32, 64, 128, 256) if h < fft_size])),
        },
        "channels": channels,
        "n_encoder_blocks": draw(st.integers(1, 2)),
        "n_decoder_blocks": draw(st.integers(1, 2)),
        "n_basis": draw(odd(1, 9)),
        "n_gammatone": draw(st.integers(1, 16)),
        "gammatone_lo_hz": draw(st.floats(1.0, sample_rate / 4)),
        "gammatone_hi_hz": draw(st.floats(sample_rate / 4 + 1.0, sample_rate / 2 - 1.0)),
        "gammatone_taps": draw(st.integers(2, 256)),
        "se_reduction": draw(st.sampled_from([r for r in range(1, channels + 1)
                                              if channels % r == 0])),
        "no_gammatone": draw(st.booleans()),
        "no_gafm": draw(st.booleans()),
    }


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
NOT_A_NUMBER = st.one_of(st.text(max_size=3), st.none(), st.booleans(),
                         st.lists(st.integers(1, 9), max_size=2))
NOT_AN_INT = NOT_A_NUMBER | st.floats(allow_nan=False, allow_infinity=False)
NOT_A_BOOL = st.one_of(st.integers(), st.text(max_size=3), st.none())

# per key of SMALL_CFG, values outside its declared range or type; every
# rule across keys is broken by one value of one of its keys
OUT_OF_RANGE = {
    "channels": st.integers(max_value=0) | st.integers(1, 64).filter(lambda c: c % 4) | NOT_AN_INT,
    "n_encoder_blocks": st.integers(max_value=0) | NOT_AN_INT,
    "n_decoder_blocks": st.integers(max_value=0) | NOT_AN_INT,
    "n_basis": st.integers(max_value=0) | st.integers(1, 20).map(lambda k: 2 * k) | NOT_AN_INT,
    "n_gammatone": st.integers(max_value=0) | NOT_AN_INT,
    "gammatone_lo_hz": st.floats(max_value=0.0) | st.floats(min_value=7800.0) | NON_FINITE
    | NOT_A_NUMBER,
    "gammatone_hi_hz": st.floats(max_value=50.0) | st.floats(min_value=8000.0) | NON_FINITE
    | NOT_A_NUMBER,
    "gammatone_taps": st.integers(max_value=1) | NOT_AN_INT,
    "se_reduction": st.integers(max_value=0) | st.sampled_from([3, 5, 16]) | NOT_AN_INT,
    "no_gammatone": NOT_A_BOOL,
    "no_gafm": NOT_A_BOOL,
    "no_drg": NOT_A_BOOL,
    "global_drg": NOT_A_BOOL,
    "analysis.sample_rate": st.integers(max_value=15600) | NOT_AN_INT,
    "analysis.fft_size": st.integers(max_value=0) | st.integers(1, 4096).filter(lambda n: n % 128)
    | NOT_AN_INT,
    "analysis.hop": st.integers(max_value=0) | st.integers(1, 512).filter(lambda h: 256 % h)
    | st.just(256) | NOT_AN_INT,
}


@st.composite
def out_of_range(draw):
    """(overrides, the keys an error must name): SMALL_CFG with one key out
    of range, or with both gate ablations set."""
    key = draw(st.sampled_from([*OUT_OF_RANGE, "no_drg+global_drg"]))
    if key == "no_drg+global_drg":
        return SMALL_CFG | {"no_drg": True, "global_drg": True}, ["no_drg", "global_drg"]
    value = draw(OUT_OF_RANGE[key])
    if key.startswith("analysis."):
        return SMALL_CFG | {"analysis": {key.split(".")[1]: value}}, [key]
    return SMALL_CFG | {key: value}, [key]


@settings(max_examples=25, deadline=None, suppress_health_check=FIXTURES_PER_EXAMPLE)
@given(overrides=in_range())
def test_an_in_range_config_runs(tmp_path, capsys, overrides):
    assert bench(tmp_path, overrides) == 0
    assert math.isfinite(json.loads(capsys.readouterr().out)["rtf"])


@settings(max_examples=200, deadline=None, suppress_health_check=FIXTURES_PER_EXAMPLE)
@given(case=out_of_range())
@example(case=(SMALL_CFG | {"n_decoder_blocks": -1}, ["n_decoder_blocks"]))
@example(case=(SMALL_CFG | {"n_decoder_blocks": 0}, ["n_decoder_blocks"]))
@example(case=(SMALL_CFG | {"n_decoder_blocks": -5}, ["n_decoder_blocks"]))
@example(case=(SMALL_CFG | {"no_drg": True, "global_drg": True}, ["no_drg", "global_drg"]))
@example(case=(SMALL_CFG | {"analysis": {"sample_rate": 0}}, ["analysis.sample_rate"]))
@example(case=(SMALL_CFG | {"gammatone_lo_hz": 9000.0, "gammatone_hi_hz": 100.0},
               ["gammatone_lo_hz", "gammatone_hi_hz"]))
@example(case=(SMALL_CFG | {"analysis": {"hop": 256}}, ["analysis.hop", "analysis.fft_size"]))
def test_an_out_of_range_key_exits_2_and_is_named(tmp_path, capsys, case):
    overrides, keys = case
    assert bench(tmp_path, overrides) == 2
    err = capsys.readouterr().err
    assert all(key in err for key in keys), err


@pytest.mark.parametrize("overrides, key", [
    ({"n_decoder_blocks": 0}, "n_decoder_blocks"),
    ({"channels": 8.0}, "channels"),
    ({"no_drg": 1}, "no_drg"),
])
def test_direct_construction_is_checked(overrides, key):
    with pytest.raises(ValueError, match=key):
        RunConfig(**overrides)


@pytest.mark.parametrize("key, value", [("kernel_time", 5), ("kernel_2d", (3, 3)),
                                        ("mlp_hidden", 80), ("eps_ratf", 1e-8)],
                         ids=["kernel_time", "kernel_2d", "mlp_hidden", "eps_ratf"])
def test_model_constants_are_not_keys(key, value):
    """The kernel sizes and eps_ratf are class constants, and the context
    MLP is as wide as ``channels``; none can be set."""
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{key}'"):
        RunConfig(**{key: value})


def test_a_checked_config_cannot_change():
    cfg = RunConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.no_drg = True
    assert hash(cfg) == hash(RunConfig())
