"""Time-frequency frontend: STFT/iSTFT and the gammatone auxiliary path.

Framing convention: no implicit padding. The frame grid starts at sample 0
and the frame count is T = (n - fft_size) // hop + 1, so callers pad if they
need edge coverage. Analysis and synthesis both use a periodic square-root
Hann window, which satisfies constant overlap-add at 50% overlap.

The gammatone path filters by float64 overlap-save block convolution
(Oppenheim & Schafer, Discrete-Time Signal Processing, sec. 8.7). The bank
stores each filter's spectrum on one block of ``block_len`` points, the
smallest power of two holding twice (taps - 1 + hop); every block yields a
run of ``block_len - taps + 1`` samples rounded down to whole hops (3072 of
4096 at RunConfig's defaults). Hop-block energies are summed over a few
blocks of a small channel group at a time, so the whole (channels, 2, n)
filtered signal never exists. All FFTs are ``numpy.fft``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import workers
from .audio import Waveform
from .config import AnalysisConfig, band_ok
from .errors import InputTooShort, InvalidBand, ShapeMismatch


@dataclass
class Spectrogram:
    """Per-ear complex time-frequency grid, bins shaped (2, F, T)."""

    bins: np.ndarray
    config: AnalysisConfig

    def __post_init__(self):
        self.bins = np.asarray(self.bins)
        f = self.config.n_freq_bins
        if self.bins.ndim != 3 or self.bins.shape[:2] != (2, f):
            raise ShapeMismatch(f"expected bins (2, {f}, T), got {self.bins.shape}")


def sqrt_hann(n: int) -> np.ndarray:
    """Periodic square-root Hann window: sin(pi k / n), k = 0..n-1."""
    return np.sin(np.pi * np.arange(n) / n)


def frame_count(n_samples: int, cfg: AnalysisConfig) -> int:
    if n_samples < cfg.fft_size:
        raise InputTooShort(
            f"{n_samples} samples < one frame of {cfg.fft_size}"
        )
    return (n_samples - cfg.fft_size) // cfg.hop + 1


def grid_length(n_samples: int, cfg: AnalysisConfig) -> int:
    """The length n_samples is zero-padded to so that the frame grid covers
    every sample: at least one frame, and a whole number of hops after it."""
    if n_samples < cfg.fft_size:
        return cfg.fft_size
    return n_samples + -(n_samples - cfg.fft_size) % cfg.hop


def _frames(x: np.ndarray, cfg: AnalysisConfig) -> np.ndarray:
    """View leading-axis signals (..., n) as frames (..., T, fft_size)."""
    frame_count(x.shape[-1], cfg)                  # raises InputTooShort
    return sliding_window_view(x, cfg.fft_size, axis=-1)[..., :: cfg.hop, :]


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
    wherever the accumulated squared window is non-negligible. The
    sqrt-Hann window is zero at sample 0 of every frame, so output sample 0
    has no window weight and is always zero; a 1-sample input therefore
    enhances to silence.
    """
    cfg = s.config
    win = sqrt_hann(cfg.fft_size)
    frames = np.fft.irfft(s.bins.transpose(0, 2, 1), n=cfg.fft_size, axis=-1)
    frames = frames * win
    t, hop = frames.shape[1], cfg.hop
    per_frame = cfg.fft_size // hop
    # overlap-add hop block by hop block: sub-block k of frame m lands on
    # output block m + k. Adding k in descending order adds the frames of
    # each output sample in ascending frame order, as a frame loop would.
    out = np.zeros((2, t - 1 + per_frame, hop))
    wsum = np.zeros((t - 1 + per_frame, hop))
    sub = frames.reshape(2, t, per_frame, hop)
    win2 = (win * win).reshape(per_frame, hop)
    for k in reversed(range(per_frame)):
        out[:, k : k + t] += sub[:, :, k]
        wsum[k : k + t] += win2[k]
    out = out.reshape(2, -1)
    wsum = wsum.reshape(-1)
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


# Gammatone filtering runs on a few channels and a few blocks at a time,
# about _FILTER_BYTES of filtered samples per step. Such steps reuse
# cache-warm memory; on a 2-core Xeon they ran ~25% faster than steps over
# every block of a 4-channel group at 8 s.
_GAMMATONE_GROUP = 4
_FILTER_BYTES = 1 << 20


def _block_len(n_taps: int, hop: int) -> int:
    """Overlap-save block: the smallest power of two >= 2 (taps - 1 + hop)."""
    return 1 << (2 * (n_taps - 1 + hop) - 1).bit_length()


@dataclass
class GammatoneBank:
    """FIR gammatone filterbank.

    impulse_responses is (n_channels, taps). spectra is (n_channels,
    block_len // 2 + 1): the rfft of each response zero-padded to one
    overlap-save block, computed once when the bank is built, so filtering
    costs one forward FFT per input block and one inverse FFT per block and
    channel.
    """

    center_freqs: np.ndarray
    impulse_responses: np.ndarray
    spectra: np.ndarray
    sample_rate: int

    @property
    def n_channels(self) -> int:
        return self.center_freqs.shape[0]

    @property
    def block_len(self) -> int:
        return 2 * (self.spectra.shape[1] - 1)


def build_gammatone_bank(
    cfg: AnalysisConfig, n_channels: int, f_lo: float, f_hi: float, n_taps: int
) -> GammatoneBank:
    """4th-order gammatone FIR prototypes at ERB-spaced centers; the
    pipeline passes ``RunConfig``'s ``n_gammatone``, ``gammatone_lo_hz``,
    ``gammatone_hi_hz`` and ``gammatone_taps``.

    Each filter is a truncated analytic gammatone envelope
    t^3 exp(-2 pi b t) cos(2 pi fc t) with b = 1.019 ERB(fc), normalized to
    unit peak magnitude response. The block length of the stored spectra
    follows from n_taps and cfg.hop.
    """
    sr = cfg.sample_rate
    if not band_ok(f_lo, f_hi, sr):
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
    spectra = np.fft.rfft(irs, n=_block_len(n_taps, cfg.hop), axis=-1)
    return GammatoneBank(centers, irs, spectra, sr)


def gammatone_frames(w: Waveform, bank: GammatoneBank, cfg: AnalysisConfig) -> np.ndarray:
    """Per-ear log frame energies of the gammatone-filtered signal.

    Output is complex with zero imaginary part, shaped (2, n_channels, T)
    with the same T as stft on the same waveform, so downstream encoders
    treat both feature streams uniformly. The channel groups are filtered as
    independent units on the worker pool (``workers.map``).
    """
    for what, rate in (("waveform", w.sample_rate), ("bank", bank.sample_rate)):
        if rate != cfg.sample_rate:
            raise ShapeMismatch(f"{what} rate {rate} != config rate {cfg.sample_rate}")
    t = frame_count(w.n_samples, cfg)
    hop = cfg.hop
    per_frame = cfg.fft_size // hop                # hop blocks per frame
    n_blocks = t - 1 + per_frame
    n_keep = n_blocks * hop                        # filtered samples the frames cover
    taps, size = bank.impulse_responses.shape[1], bank.block_len
    run = (size - taps + 1) // hop * hop           # whole hops of output per block
    if run == 0:
        raise ShapeMismatch(
            f"gammatone blocks of {size} points with {taps} taps cannot hold a hop "
            f"of {hop}; build the bank with this analysis config"
        )
    # overlap-save: block j reads taps - 1 samples of history before output
    # sample j * run, zeros before the signal starts and after it ends
    n_runs = -(-n_keep // run)
    padded = np.zeros((2, (n_runs - 1) * run + size))
    padded[:, taps - 1 : taps - 1 + n_keep] = w.samples[:, :n_keep]
    blocks = sliding_window_view(padded, size, axis=-1)[:, ::run]
    spec = np.fft.rfft(blocks, axis=-1).reshape(2 * n_runs, -1)   # rows: (ear, block)
    # causal FIR filtering of a few blocks of one small channel group at a
    # time; a frame's energy is the sum of the energies of its hop blocks
    hops = run // hop
    energy = np.empty((bank.n_channels, 2 * n_runs, hops))
    rows = max(1, _FILTER_BYTES // (_GAMMATONE_GROUP * size * 8))

    def filter_group(c0):
        h = bank.spectra[c0 : c0 + _GAMMATONE_GROUP, np.newaxis, :]
        for r0 in range(0, 2 * n_runs, rows):
            filtered = np.fft.irfft(spec[r0 : r0 + rows] * h, n=size, axis=-1)
            kept = filtered[..., taps - 1 : taps - 1 + run].reshape(*filtered.shape[:2], hops, hop)
            energy[c0 : c0 + _GAMMATONE_GROUP, r0 : r0 + rows] = np.einsum(
                "...i,...i->...", kept, kept)

    workers.map(filter_group, range(0, bank.n_channels, _GAMMATONE_GROUP))
    energy = energy.reshape(bank.n_channels, 2, n_runs * hops)[..., :n_blocks]
    energy = sliding_window_view(energy, per_frame, axis=-1).sum(axis=-1)
    feats = np.log1p(energy).transpose(1, 0, 2)    # (2, n_ch, T)
    return feats.astype(np.complex128)
