"""Parameter counting, analytic MAC counting, and the one real-time-factor
timer, ``full_report(with_rtf=True)``.

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
from .frontend import frame_count, grid_length
from .params import ModelParams
from .pipeline import enhance


@dataclass
class ComplexityReport:
    n_params: int = 0
    macs: int = 0
    audio_seconds: float | None = None   # of the MAC rows; None counts no audio
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


def count_macs(cfg: RunConfig, audio_seconds: float) -> ComplexityReport:
    """Analytic MAC count for processing the given duration of audio, on the
    frames ``enhance`` runs: those of the input padded to the frame grid.
    ValueError unless the duration is finite and holds at least one sample."""
    a = cfg.analysis
    if not (np.isfinite(audio_seconds) and audio_seconds > 0):
        raise ValueError(f"audio_seconds must be positive and finite, got {audio_seconds}")
    n = int(round(audio_seconds * a.sample_rate))
    if n < 1:
        raise ValueError(f"audio_seconds must hold at least one sample at "
                         f"{a.sample_rate} Hz, got {audio_seconds}")
    t = frame_count(grid_length(n, a), a)
    f = a.n_freq_bins
    c = cfg.channels
    ng = 0 if cfg.no_gammatone else cfg.n_gammatone     # bands the gammatone stream runs
    k1 = cfg.kernel_time
    kf, kt = cfg.kernel_2d
    k = cfg.n_basis
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
    if ng:
        enc += c * c * f * t                         # real fusion conv on magnitudes
    enc += 2 * c * (c // r)                          # SE excitation (per utterance)
    rows["encoder"] = enc

    mod = 0
    if not cfg.no_gafm:
        mod += f * (c * c + c * k)                   # context MLP, all frequencies
        mod += f * t * k                             # basis synthesis Phi . a
        mod += c * f * t * 2                         # real gate x complex features
        mod += c * c * f * t * 4                     # complex projection
    rows["modulator"] = mod

    dec = 0
    for _ in range(2):                               # two parallel heads
        for _ in range(cfg.n_decoder_blocks):
            dec += lightconv_macs(c, c, kf * kt, f * t)
        dec += c * 1 * f * t * 4                     # complex output projection
    if not (cfg.no_drg or cfg.global_drg):
        dec += c * f                                 # gate conv on pooled magnitudes
    rows["decoder"] = dec

    report = ComplexityReport(
        macs=sum(rows.values()), audio_seconds=audio_seconds, mac_rows=rows
    )
    return report


def full_report(
    model: ModelParams,
    cfg: RunConfig,
    audio_seconds: float,
    with_rtf: bool,
    repeats: int,
) -> ComplexityReport:
    """Parameter and MAC rows for ``audio_seconds`` of audio. With
    ``with_rtf``, also the real-time factor: after 2 warm-up calls, the
    median wall time of ``repeats`` ``enhance`` calls on seeded noise of
    that length over its duration, with the process CPU seconds (every
    thread) per audio second and the pool's thread count. ValueError, before
    any timing, for repeats under 1 or a duration ``count_macs`` rejects."""
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
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
        rng = np.random.default_rng(0)
        sr = cfg.analysis.sample_rate
        wav = Waveform(0.1 * rng.standard_normal((2, int(round(audio_seconds * sr)))), sr)
        for _ in range(2):
            enhance(wav, model, cfg)
        times = []
        cpu = time.process_time()
        for _ in range(repeats):
            t0 = time.perf_counter()
            enhance(wav, model, cfg)
            times.append(time.perf_counter() - t0)
        report.rtf = float(np.median(times) / wav.duration_s)
        report.cpu_s = (time.process_time() - cpu) / (repeats * wav.duration_s)
        report.workers = workers.size()
    report.check_totals()
    return report
