from unittest import mock

import numpy as np
import pytest

from binse import workers
from binse.complex_ops import (
    CLayerNormParams,
    CLinearParams,
    CSEParams,
    LightConvParams,
    cse_excitation,
)
from binse.config import AnalysisConfig, RunConfig
from binse.encoder import recalibrate


def rand_complex(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def on_a_fresh_pool(usable_cpus, fn):
    """fn() in a process that has made no pool yet, with ``usable_cpus()``
    in place of the CPUs the process may use."""
    with mock.patch.object(workers, "usable_cpus", usable_cpus), \
            mock.patch.object(workers, "_pool", None), \
            mock.patch.object(workers, "_pool_size", None):
        try:
            return fn()
        finally:
            if workers._pool is not None:
                workers._pool.shutdown()


def make_clinear(rng, c_out, c_in, scale=0.5):
    return CLinearParams(
        weight=rand_complex(rng, (c_out, c_in), scale),
        bias=rand_complex(rng, (c_out,), scale),
    )


def make_norm(rng, c):
    return CLayerNormParams(
        gamma=rand_complex(rng, (c,), 0.5),
        beta=rand_complex(rng, (c,), 0.1),
    )


def make_lightconv(rng, c_in, c_out, kernel, scale=0.3):
    return LightConvParams(
        depthwise=rand_complex(rng, (c_in, *kernel), scale),
        pointwise=make_clinear(rng, c_out, c_in, scale),
        norm=make_norm(rng, c_out),
        prelu_slope=np.float64(0.25),
    )


def make_cse(rng, c, r=2):
    return CSEParams(
        reduce=rng.standard_normal((c // r, c)) * 0.3,
        expand=rng.standard_normal((c, c // r)) * 0.3,
    )


def recalibrate_by_own_squeeze(z, p):
    """Oracle: ``recalibrate`` of the whole tensor z (C, F, T) by the
    excitation of its own squeeze, the mean magnitude per channel."""
    return recalibrate(z, p, cse_excitation(np.mean(np.abs(z), axis=(1, 2)), p.se))


def small_config(**overrides) -> RunConfig:
    """Compact architecture for fast end-to-end tests."""
    defaults = dict(
        channels=8,
        n_gammatone=16,
        gammatone_taps=256,
        n_basis=5,
        se_reduction=4,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def analysis():
    return AnalysisConfig()
