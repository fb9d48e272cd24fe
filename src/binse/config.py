"""Configuration objects: the analysis grid and the run config.

The architecture fingerprint hashes every hyperparameter that changes the
shape of the weight tree, so a weights file can be rejected when loaded
under an incompatible config.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass

@dataclass(frozen=True)
class AnalysisConfig:
    """Time-frequency analysis grid: 256-point FFT, 128-sample hop at 16 kHz."""

    sample_rate: int = 16000
    fft_size: int = 256
    hop: int = 128

    def __post_init__(self):
        if self.fft_size <= 0 or self.hop <= 0:
            raise ValueError("fft_size and hop must be positive")
        if self.fft_size % self.hop != 0:
            raise ValueError("hop must divide fft_size")

    @property
    def n_freq_bins(self) -> int:
        return self.fft_size // 2 + 1


@dataclass
class RunConfig:
    """Full runtime configuration: architecture sizes, numerics, ablations.

    The defaults are the repo's canonical profile; ``channels`` is chosen so
    the total parameter count lands near 129 K (see the profiling module).
    """

    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)

    # architecture
    channels: int = 80            # backbone channel count C
    n_encoder_blocks: int = 2     # M
    n_decoder_blocks: int = 2     # N
    n_basis: int = 9              # K: DC + 4 cos/sin pairs
    n_gammatone: int = 64
    gammatone_lo_hz: float = 50.0
    gammatone_hi_hz: float = 7800.0
    gammatone_taps: int = 1024
    kernel_time: int = 5          # 1D depthwise kernel length
    kernel_2d: tuple[int, int] = (3, 3)   # (freq, time) depthwise kernel
    se_reduction: int = 4
    mlp_hidden: int = 0           # 0 -> same as channels

    # numerics
    eps_ratf: float = 1e-8

    # ablation flags
    no_gammatone: bool = False
    no_gafm: bool = False
    no_drg: bool = False
    global_drg: bool = False

    def __post_init__(self):
        if self.channels <= 0 or self.n_basis <= 0 or self.se_reduction <= 0:
            raise ValueError("channels, n_basis and se_reduction must be positive")
        if self.n_basis % 2 == 0:
            raise ValueError("n_basis must be odd (DC plus cos/sin pairs)")
        if self.channels % self.se_reduction != 0:
            raise ValueError("se_reduction must divide channels")
        if self.kernel_time < 1 or any(k < 1 for k in self.kernel_2d):
            raise ValueError("depthwise kernel lengths must be at least 1")
        if self.kernel_time % 2 == 0 or any(k % 2 == 0 for k in self.kernel_2d):
            raise ValueError("depthwise kernel lengths must be odd")
        if self.n_encoder_blocks < 1:
            raise ValueError("n_encoder_blocks must be at least 1")
        if self.gammatone_taps < 2:   # one tap is t = 0, where the envelope is 0
            raise ValueError("gammatone_taps must be at least 2")
        if self.n_gammatone < 1:
            raise ValueError("n_gammatone must be at least 1")
        if self.mlp_hidden < 0:
            raise ValueError("mlp_hidden must be at least 0")
        # the solve's denominator is |W_s - W_n|^2 + eps_ratf (NaN fails too)
        if not 0 <= self.eps_ratf < math.inf:
            raise ValueError("eps_ratf must be finite and at least 0")

    @property
    def hidden(self) -> int:
        return self.mlp_hidden or self.channels

    def arch_dict(self) -> dict:
        """Hyperparameters that determine the shape of the weight tree."""
        a = self.analysis
        return {
            "sample_rate": a.sample_rate,
            "fft_size": a.fft_size,
            "hop": a.hop,
            "n_freq_bins": a.n_freq_bins,
            "channels": self.channels,
            "n_encoder_blocks": self.n_encoder_blocks,
            "n_decoder_blocks": self.n_decoder_blocks,
            "n_basis": self.n_basis,
            "n_gammatone": self.n_gammatone,
            "kernel_time": self.kernel_time,
            "kernel_2d": list(self.kernel_2d),
            "se_reduction": self.se_reduction,
            "mlp_hidden": self.hidden,
        }

    def fingerprint(self) -> str:
        blob = json.dumps(self.arch_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def _type_error(default, value) -> str | None:
    """None if value may replace a field whose default is default, else the
    type it should have, phrased for an error message."""
    if isinstance(default, tuple):
        if (isinstance(value, (list, tuple)) and len(value) == len(default)
                and not any(_type_error(d, v) for d, v in zip(default, value))):
            return None
        return f"a list of {len(default)} {type(default[0]).__name__} values"
    if isinstance(default, bool) or not isinstance(default, (int, float)):
        ok = isinstance(value, type(default))
    else:   # a float field takes an int; neither takes a bool
        kinds = int if isinstance(default, int) else (int, float)
        ok = isinstance(value, kinds) and not isinstance(value, bool)
    return None if ok else f"of type {type(default).__name__}"


def _checked(cls, d, where: str) -> dict:
    """d as a dict after checking that every key is a field of cls and every
    plain value has the type of that field's default."""
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(d).__name__}")
    by_name = {f.name: f for f in fields(cls)}
    unknown = sorted(d.keys() - by_name.keys())
    if unknown:
        raise ValueError(f"unknown {where} keys: {', '.join(unknown)}")
    for key, value in d.items():
        f = by_name[key]
        default = f.default if f.default is not MISSING else f.default_factory()
        why = None if is_dataclass(default) else _type_error(default, value)
        if why:
            raise ValueError(f"{where} key {key!r} must be {why}, got {value!r}")
    return dict(d)


def config_from_dict(d: dict) -> RunConfig:
    """Build a RunConfig from a plain dict (e.g. parsed JSON overrides).

    Raises ValueError when d is not a dict, names a key that is not a
    RunConfig (or, under "analysis", an AnalysisConfig) field, or gives a
    value whose type differs from that field's default.
    """
    d = _checked(RunConfig, d, "config")
    analysis = AnalysisConfig(**_checked(AnalysisConfig, d.pop("analysis", {}), "analysis"))
    if "kernel_2d" in d:
        d["kernel_2d"] = tuple(d["kernel_2d"])
    return RunConfig(analysis=analysis, **d)
