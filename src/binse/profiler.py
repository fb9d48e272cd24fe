"""Parameter counting, analytic MAC counting, and real-time-factor timing.

Conventions: a complex parameter counts as 2 reals; one complex
multiply-accumulate counts as 4 real MACs; a real-by-complex product
counts as 2. Only multiplies are counted (magnitudes, sigmoids, and
norms are excluded), and the analysis/synthesis transforms are not part
of the network accounting.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import workers
from .audio import Waveform
from .config import RunConfig
from .frontend import frame_count
from .params import ModelParams
from .pipeline import enhance


@dataclass
class ComplexityReport:
    n_params: int = 0
    macs: int = 0
    audio_seconds: float = 1.0
    rtf: float | None = None
    cpu_s: float | None = None        # process CPU seconds per audio second
    workers: int | None = None        # threads that ran the plan's units
    param_rows: dict[str, int] = field(default_factory=dict)
    mac_rows: dict[str, int] = field(default_factory=dict)

    def check_totals(self):
        assert self.n_params == sum(self.param_rows.values())
        assert self.macs == sum(self.mac_rows.values())


def _tensor_params(arr: np.ndarray) -> int:
    return int(arr.size) * (2 if np.iscomplexobj(arr) else 1)


def count_params(model: ModelParams) -> ComplexityReport:
    """Exact per-tensor parameter accounting, grouped by top-level module."""
    rows: dict[str, int] = {}
    for name, arr in model.tensors.items():
        module = name.split(".", 1)[0]
        rows[module] = rows.get(module, 0) + _tensor_params(arr)
    report = ComplexityReport(n_params=sum(rows.values()), param_rows=rows)
    return report


def count_macs(cfg: RunConfig, audio_seconds: float = 1.0) -> ComplexityReport:
    """Analytic MAC count for processing the given duration of audio."""
    a = cfg.analysis
    t = frame_count(int(round(audio_seconds * a.sample_rate)), a)
    f = a.n_freq_bins
    c = cfg.channels
    ng = cfg.n_gammatone
    k1 = cfg.kernel_time
    kf, kt = cfg.kernel_2d
    k = cfg.n_basis
    h = cfg.hidden
    r = cfg.se_reduction
    rows: dict[str, int] = {}

    def lightconv_macs(c_in, c_out, ksize, positions):
        dw = c_in * ksize * positions * 4           # complex depthwise
        pw = c_in * c_out * positions * 4           # complex pointwise
        return dw + pw

    enc = 0
    for i in range(cfg.n_encoder_blocks):
        c_in = 2 if i == 0 else c
        enc += lightconv_macs(c_in, c, k1, f * t)    # STFT stream
        enc += lightconv_macs(c_in, c, k1, ng * t)   # gammatone stream
    enc += c * f * ng * t * 2                        # real 64->F projection of complex data
    enc += c * c * f * t                             # real fusion conv on magnitudes
    enc += 2 * c * (c // r)                          # SE excitation (per utterance)
    rows["encoder"] = enc

    mod = 0
    if not cfg.no_gafm:
        mod += f * (c * h + h * k)                   # context MLP, all frequencies
        mod += f * t * k                             # basis synthesis Phi . a
        mod += c * f * t * 2                         # real gate x complex features
        mod += c * c * f * t * 4                     # complex projection
    rows["modulator"] = mod

    dec = 0
    for _ in range(2):                               # two parallel heads
        for _ in range(cfg.n_decoder_blocks):
            dec += lightconv_macs(c, c, kf * kt, f * t)
        dec += c * 1 * f * t * 4                     # complex output projection
    dec += c * f                                     # gate conv on pooled magnitudes
    rows["decoder"] = dec

    report = ComplexityReport(
        macs=sum(rows.values()), audio_seconds=audio_seconds, mac_rows=rows
    )
    return report


def _time_enhance(model, cfg, *, seconds, wav=None, repeats, warmup, seed):
    """The input timed (``wav``, or else seeded noise of ``seconds``), the
    wall seconds of each timed call, and the process CPU seconds (every
    thread) over all of them."""
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    if wav is None:
        rng = np.random.default_rng(seed)
        sr = cfg.analysis.sample_rate
        wav = Waveform(0.1 * rng.standard_normal((2, int(round(seconds * sr)))), sr)
    for _ in range(warmup):
        enhance(wav, model, cfg)
    times = []
    cpu = time.process_time()
    for _ in range(repeats):
        t0 = time.perf_counter()
        enhance(wav, model, cfg)
        times.append(time.perf_counter() - t0)
    return wav, times, time.process_time() - cpu


def measure_rtf(
    model: ModelParams,
    cfg: RunConfig,
    wav: Waveform | None = None,
    repeats: int = 20,
    warmup: int = 2,
    seed: int = 0,
) -> float:
    """Median wall-clock processing time divided by audio duration, on
    ``wav`` or else on 2 s of seeded noise."""
    wav, times, _ = _time_enhance(model, cfg, seconds=2.0, wav=wav, repeats=repeats,
                                  warmup=warmup, seed=seed)
    return float(np.median(times) / wav.duration_s)


def full_report(
    model: ModelParams,
    cfg: RunConfig,
    audio_seconds: float = 1.0,
    with_rtf: bool = False,
    repeats: int = 20,
) -> ComplexityReport:
    params = count_params(model)
    macs = count_macs(cfg, audio_seconds)
    report = ComplexityReport(
        n_params=params.n_params,
        macs=macs.macs,
        audio_seconds=audio_seconds,
        param_rows=params.param_rows,
        mac_rows=macs.mac_rows,
    )
    if with_rtf:
        wav, times, cpu = _time_enhance(model, cfg, seconds=audio_seconds, repeats=repeats,
                                        warmup=2, seed=0)
        report.rtf = float(np.median(times) / wav.duration_s)
        report.cpu_s = cpu / (repeats * wav.duration_s)
        report.workers = workers.size()
    report.check_totals()
    return report
