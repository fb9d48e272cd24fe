"""Time-frequency frontend: STFT/iSTFT and the gammatone auxiliary path.

Framing convention: no implicit padding. The frame grid starts at sample 0
and the frame count is T = (n - fft_size) // hop + 1, so callers pad if they
need edge coverage. Analysis and synthesis both use a periodic square-root
Hann window, which satisfies constant overlap-add at 50% overlap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import fftconvolve

from .audio import Waveform
from .config import AnalysisConfig
from .errors import InputTooShort, InvalidBand, ShapeMismatch


@dataclass
class Spectrogram:
    """Per-ear complex time-frequency grid, bins shaped (2, F, T)."""

    bins: np.ndarray
    config: AnalysisConfig

    def __post_init__(self):
        self.bins = np.asarray(self.bins)
        if self.bins.ndim != 3 or self.bins.shape[:2] != (2, self.config.n_freq_bins):
            raise ShapeMismatch(
                f"expected bins (2, {self.config.n_freq_bins}, T), got {self.bins.shape}"
            )


def sqrt_hann(n: int) -> np.ndarray:
    """Periodic square-root Hann window: sin(pi k / n), k = 0..n-1."""
    return np.sin(np.pi * np.arange(n) / n)


def frame_count(n_samples: int, cfg: AnalysisConfig) -> int:
    if n_samples < cfg.fft_size:
        raise InputTooShort(
            f"{n_samples} samples < one frame of {cfg.fft_size}"
        )
    return (n_samples - cfg.fft_size) // cfg.hop + 1


def _frames(x: np.ndarray, cfg: AnalysisConfig) -> np.ndarray:
    """View leading-axis signals (..., n) as frames (..., T, fft_size)."""
    t = frame_count(x.shape[-1], cfg)
    idx = np.arange(cfg.fft_size)[None, :] + cfg.hop * np.arange(t)[:, None]
    return x[..., idx]


def stft(w: Waveform, cfg: AnalysisConfig) -> Spectrogram:
    """Windowed one-sided STFT of a stereo waveform, bins (2, F, T)."""
    if w.sample_rate != cfg.sample_rate:
        raise ShapeMismatch(
            f"waveform rate {w.sample_rate} != config rate {cfg.sample_rate}"
        )
    frames = _frames(w.samples, cfg) * sqrt_hann(cfg.fft_size)
    spec = np.fft.rfft(frames, axis=-1)          # (2, T, F)
    return Spectrogram(spec.transpose(0, 2, 1), cfg)


def istft(s: Spectrogram) -> Waveform:
    """Overlap-add inverse STFT with window-square compensation.

    Output length is (T - 1) * hop + fft_size. Reconstruction is exact
    wherever the accumulated squared window is non-negligible; with the
    sqrt-Hann window only sample 0 falls outside that region.
    """
    cfg = s.config
    win = sqrt_hann(cfg.fft_size)
    frames = np.fft.irfft(s.bins.transpose(0, 2, 1), n=cfg.fft_size, axis=-1)
    frames = frames * win
    t = frames.shape[1]
    n = (t - 1) * cfg.hop + cfg.fft_size
    out = np.zeros((2, n))
    wsum = np.zeros(n)
    for m in range(t):
        sl = slice(m * cfg.hop, m * cfg.hop + cfg.fft_size)
        out[:, sl] += frames[:, m, :]
        wsum[sl] += win * win
    good = wsum > 1e-12
    out[:, good] /= wsum[good]
    out[:, ~good] = 0.0
    return Waveform(out, cfg.sample_rate)


# --- gammatone filterbank -------------------------------------------------

def erb_bandwidth(f_hz):
    """Equivalent rectangular bandwidth at frequency f (Glasberg & Moore)."""
    return 24.7 * (4.37 * f_hz / 1000.0 + 1.0)


def hz_to_erbscale(f_hz):
    return 21.4 * np.log10(4.37 * f_hz / 1000.0 + 1.0)


def erbscale_to_hz(e):
    return (10.0 ** (e / 21.4) - 1.0) * 1000.0 / 4.37


def erb_space(f_lo: float, f_hi: float, n: int) -> np.ndarray:
    """n center frequencies equally spaced on the ERB-rate scale.

    For n == 1 the single center sits at the ERB-scale midpoint of the band.
    """
    lo, hi = hz_to_erbscale(f_lo), hz_to_erbscale(f_hi)
    if n == 1:
        return erbscale_to_hz(np.array([(lo + hi) / 2.0]))
    return erbscale_to_hz(np.linspace(lo, hi, n))


@dataclass
class GammatoneBank:
    """FIR gammatone filterbank; impulse_responses shaped (n_channels, taps)."""

    center_freqs: np.ndarray
    impulse_responses: np.ndarray
    sample_rate: int
    order: int = 4

    @property
    def n_channels(self) -> int:
        return self.center_freqs.shape[0]


def build_gammatone_bank(
    cfg: AnalysisConfig,
    n_channels: int = 64,
    f_lo: float = 50.0,
    f_hi: float = 7800.0,
    n_taps: int = 1024,
) -> GammatoneBank:
    """4th-order gammatone FIR prototypes at ERB-spaced centers.

    Each filter is a truncated analytic gammatone envelope
    t^3 exp(-2 pi b t) cos(2 pi fc t) with b = 1.019 ERB(fc), normalized to
    unit peak magnitude response.
    """
    sr = cfg.sample_rate
    if not (0.0 < f_lo < f_hi < sr / 2.0):
        raise InvalidBand(f"band edges ({f_lo}, {f_hi}) invalid for rate {sr}")
    centers = erb_space(f_lo, f_hi, n_channels)
    t = np.arange(n_taps) / sr
    irs = np.empty((n_channels, n_taps))
    # 16x zero-padded grid for peak normalization, fine relative to the
    # narrowest bandwidth
    n_fft = 16 * n_taps
    for k, fc in enumerate(centers):
        b = 1.019 * erb_bandwidth(fc)
        ir = t ** 3 * np.exp(-2.0 * np.pi * b * t) * np.cos(2.0 * np.pi * fc * t)
        mag = np.abs(np.fft.rfft(ir, n=n_fft))
        irs[k] = ir / mag.max()
    return GammatoneBank(centers, irs, sr)


def gammatone_frames(w: Waveform, bank: GammatoneBank, cfg: AnalysisConfig) -> np.ndarray:
    """Per-ear log frame energies of the gammatone-filtered signal.

    Output is complex with zero imaginary part, shaped (2, n_channels, T)
    with the same T as stft on the same waveform, so downstream encoders
    treat both feature streams uniformly.
    """
    if w.sample_rate != cfg.sample_rate:
        raise ShapeMismatch(
            f"waveform rate {w.sample_rate} != config rate {cfg.sample_rate}"
        )
    n = w.n_samples
    t = frame_count(n, cfg)
    per_frame = cfg.fft_size // cfg.hop            # hop blocks per frame
    n_blocks = t - 1 + per_frame
    # causal FIR filtering, truncated to the samples the frame grid covers
    filtered = fftconvolve(
        w.samples[np.newaxis, :, :],
        bank.impulse_responses[:, np.newaxis, :],
        axes=-1,
    )[..., : n_blocks * cfg.hop]                   # (n_ch, 2, n_blocks * hop)
    # frame energy = sum of the energies of the hop blocks it spans
    blocks = filtered.reshape(*filtered.shape[:-1], n_blocks, cfg.hop)
    block_energy = np.square(blocks, out=blocks).sum(axis=-1)
    energy = sliding_window_view(block_energy, per_frame, axis=-1).sum(axis=-1)
    feats = np.log1p(energy).transpose(1, 0, 2)    # (2, n_ch, T)
    return feats.astype(np.complex128)
