"""Configuration objects: the analysis grid and the run config.

Each field declares its type, in an annotation that stays evaluated (no
postponed annotations), and its range next to its default; ``_RULES`` ties
keys together. ``_check`` tests both on every construction, naming the key,
and the configs are frozen. The fingerprint hashes every hyperparameter
that shapes the weight tree, to reject mismatched weights.
"""

import hashlib
import json
import math
from dataclasses import dataclass, field, fields

# Declared ranges, (what a value must be, its test); each entry of a tuple
# key must pass. Every float range excludes NaN and the infinities.
_AT_LEAST_1 = ("at least 1", lambda v: v >= 1)
_ODD = ("odd and at least 1", lambda v: v >= 1 and v % 2 == 1)


def _key(default, declared):
    """A field with its default and its declared range."""
    return field(default=default, metadata={"range": declared})


def band_ok(lo_hz, hi_hz, sample_rate) -> bool:
    """Whether gammatone band edges fit the rate: 0 < lo < hi < rate / 2."""
    return 0.0 < lo_hz < hi_hz < sample_rate / 2.0


@dataclass(frozen=True)
class AnalysisConfig:
    """Time-frequency analysis grid: 256-point FFT, 128-sample hop at 16 kHz."""

    sample_rate: int = _key(16000, _AT_LEAST_1)
    fft_size: int = _key(256, _AT_LEAST_1)
    hop: int = _key(128, _AT_LEAST_1)

    def __post_init__(self):
        _check(self, "analysis.")

    @property
    def n_freq_bins(self) -> int:
        return self.fft_size // 2 + 1


@dataclass(frozen=True)
class RunConfig:
    """Full runtime configuration: architecture sizes, numerics, ablations.

    The defaults are the repo's canonical profile; ``channels`` is chosen so
    the total parameter count lands near 129 K (see the profiling module).
    """

    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)

    # architecture
    channels: int = _key(80, _AT_LEAST_1)          # backbone channel count C
    n_encoder_blocks: int = _key(2, _AT_LEAST_1)   # M
    n_decoder_blocks: int = _key(2, _AT_LEAST_1)   # N
    n_basis: int = _key(9, _ODD)                   # K: DC + 4 cos/sin pairs
    n_gammatone: int = _key(64, _AT_LEAST_1)
    gammatone_lo_hz: float = _key(50.0, ("finite", math.isfinite))
    gammatone_hi_hz: float = _key(7800.0, ("finite", math.isfinite))
    gammatone_taps: int = _key(1024, ("at least 2", lambda v: v >= 2))   # tap 0 is 0
    kernel_time: int = _key(5, _ODD)               # 1D depthwise kernel length
    kernel_2d: tuple[int, int] = _key((3, 3), _ODD)   # (freq, time) depthwise kernel
    se_reduction: int = _key(4, _AT_LEAST_1)
    mlp_hidden: int = _key(0, ("at least 0", lambda v: v >= 0))   # 0 -> same as channels

    # numerics: the solve divides by |W_s - W_n|^2 + eps_ratf, in float32 by
    # default, where a smaller eps_ratf rounds to 0 and W_s = W_n gives 0/0
    eps_ratf: float = _key(1e-8, ("finite and at least 1e-38", lambda v: 1e-38 <= v < math.inf))

    # ablation flags: the bool keys, which ``binse --ablate`` sets
    no_gammatone: bool = False
    no_gafm: bool = False
    no_drg: bool = False
    global_drg: bool = False

    def __post_init__(self):
        _check(self, "")

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


# Rules between keys, checked once each key is in range: (class, rule, error).
_RULES = (
    (AnalysisConfig, lambda a: a.fft_size % a.hop == 0,
     "analysis.hop must divide analysis.fft_size, got {hop} and {fft_size}"),
    (AnalysisConfig, lambda a: a.hop < a.fft_size,   # the window is 0 at a frame's first sample
     "analysis.hop must be less than analysis.fft_size, got {hop} and {fft_size}"),
    (RunConfig, lambda c: c.channels % c.se_reduction == 0,
     "se_reduction must divide channels, got {se_reduction} and {channels}"),
    (RunConfig, lambda c: band_ok(c.gammatone_lo_hz, c.gammatone_hi_hz, c.analysis.sample_rate),
     "gammatone_lo_hz and gammatone_hi_hz must satisfy 0 < lo < hi < analysis.sample_rate / 2, "
     "got {gammatone_lo_hz} and {gammatone_hi_hz} at {analysis.sample_rate}"),
    (RunConfig, lambda c: not (c.no_drg and c.global_drg),
     "no_drg and global_drg exclude each other: set at most one"),
)


def _is(kind, value) -> bool:
    if kind in (int, float):    # a float key takes an int; no number key takes a bool
        return isinstance(value, (int, kind)) and not isinstance(value, bool)
    return isinstance(value, kind)


def _check(cfg, prefix: str) -> None:
    """Raise ValueError, naming the key, unless every field of cfg has its
    declared type and range and every rule on cfg's class holds."""
    for f in fields(cfg):
        key, value = prefix + f.name, getattr(cfg, f.name)
        entries = getattr(f.type, "__args__", None)      # a fixed-length tuple
        kinds, values = (entries, value) if entries else ((f.type,), (value,))
        if not (isinstance(values, tuple) and len(values) == len(kinds)
                and all(map(_is, kinds, values))):
            kind = (f"a tuple of {len(kinds)} {kinds[0].__name__} values" if entries
                    else f"of type {f.type.__name__}")
            raise ValueError(f"{key} must be {kind}, got {value!r}")
        if (declared := f.metadata.get("range")) and not all(map(declared[1], values)):
            raise ValueError(f"{'every entry of ' if entries else ''}{key} must be "
                             f"{declared[0]}, got {value!r}")
    for cls, holds, error in _RULES:
        if isinstance(cfg, cls) and not holds(cfg):
            raise ValueError(error.format_map(vars(cfg)))


def _known(cls, d, where: str) -> dict:
    """d as a new dict after checking that every key is a field of cls."""
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(d).__name__}")
    if unknown := sorted(d.keys() - {f.name for f in fields(cls)}):
        raise ValueError(f"unknown {where} keys: {', '.join(unknown)}")
    return dict(d)


def config_from_dict(d: dict) -> RunConfig:
    """Build a RunConfig from a plain dict (e.g. parsed JSON overrides), in
    which "analysis" takes a dict of AnalysisConfig keys and lists become
    tuples. Raises ValueError for a non-dict, an unknown key or a bad value."""
    d = _known(RunConfig, d, "config")
    if "analysis" in d:
        d["analysis"] = AnalysisConfig(**_known(AnalysisConfig, d["analysis"], "analysis"))
    return RunConfig(**{k: tuple(v) if isinstance(v, list) else v for k, v in d.items()})
