"""Objective terms and binaural-cue metrics.

Everything here is evaluated as a metric over finished signals; no
gradients are computed. The terms are a clamped negative SNR, an
intelligibility surrogate, masked interaural level/phase errors, and three
regularizers on the refinement gate.
"""

from __future__ import annotations

import shlex
import subprocess
from dataclasses import dataclass

import numpy as np

from . import workers
from .audio import Waveform
from .errors import DegenerateReference, EmptyMask, InputTooShort, ShapeMismatch
from .frontend import Spectrogram

_LOG_CLAMP = 1e-12


@dataclass
class CueMaps:
    """Interaural level (dB) and phase (rad) difference maps with an
    activity mask marking bins where both ears carry usable energy."""

    ild: np.ndarray
    ipd: np.ndarray
    active_mask: np.ndarray


def _check_pair(s_hat: Waveform, s: Waveform) -> None:
    """ShapeMismatch unless the estimate has the reference's rate and length."""
    if s_hat.sample_rate != s.sample_rate:
        raise ShapeMismatch(f"sample rates differ: estimate {s_hat.sample_rate} Hz, "
                            f"reference {s.sample_rate} Hz")
    if s_hat.n_samples != s.n_samples:
        raise ShapeMismatch("waveform lengths differ")


def snr_loss(s_hat: Waveform, s: Waveform) -> float:
    """Negative SNR in dB averaged over ears, clamped to +-60 dB."""
    _check_pair(s_hat, s)
    ref_pow = np.sum(s.samples ** 2, axis=1)
    if np.any(ref_pow == 0.0):
        raise DegenerateReference("reference ear has zero energy")
    err_pow = np.sum((s_hat.samples - s.samples) ** 2, axis=1)
    with np.errstate(divide="ignore"):
        snr_db = 10.0 * np.log10(ref_pow / np.maximum(err_pow, 0.0))
    snr_db = np.clip(snr_db, -60.0, 60.0)
    return float(-np.mean(snr_db))


def _third_octave_bands(sr: int):
    """Edges (lo, hi) in Hz of 15 one-third-octave bands from 150 Hz, capped below Nyquist."""
    centers = 150.0 * 2.0 ** (np.arange(15) / 3.0)
    lo = centers * 2.0 ** (-1.0 / 6.0)
    hi = np.minimum(centers * 2.0 ** (1.0 / 6.0), sr / 2.0)
    return list(zip(lo, hi))


@workers.plan()
def stoi_surrogate(s_hat: Waveform, s: Waveform) -> float:
    """Sign-sensitive short-time band-correlation intelligibility proxy.

    The signals are decomposed into one-third-octave bands (FFT masking),
    cut into non-overlapping 384 ms segments, and the mean Pearson
    correlation between clean and estimated band segments is computed per
    ear. The result is 1 - mean correlation: 0 for a perfect estimate, 2
    for a sign-flipped one, ~1 for independent signals.

    The call is a plan of its own (``workers.plan``): after one forward FFT
    of the four rows (clean left and right, then the estimate's), its units
    are the 15 bands, each one inverse FFT of the four masked rows. All 16
    FFTs run at the signal's own length: at a length with a large prime
    factor they are several times slower than at a 5-smooth one, but
    padding would change the circular band filter. Each segment is centred
    by its own mean and scored with BLAS dot products, as a loop over
    segments would, and the correlations are joined in (band, ear, segment)
    order, so the score does not depend on the pool.
    """
    _check_pair(s_hat, s)
    sr = s.sample_rate
    seg = int(round(0.384 * sr))
    n = s.n_samples
    if seg == 0:
        raise InputTooShort(f"a 384 ms segment holds no sample at {sr} Hz")
    if n < seg:
        raise InputTooShort(f"need at least {seg} samples (384 ms)")
    freqs = np.fft.rfftfreq(n, d=1.0 / sr)
    spec = np.fft.rfft(np.concatenate([s.samples, s_hat.samples]), axis=-1)
    n_seg = n // seg

    def band_corrs(band) -> np.ndarray:
        lo, hi = band
        mask = (freqs >= lo) & (freqs < hi)     # empty above Nyquist: every norm is 0
        # a (clean or estimate, ear, segment, sample) view of the band's rows
        x = np.fft.irfft(spec * mask, n=n, axis=-1)[:, : n_seg * seg].reshape(2, 2, n_seg, seg)
        x -= x.mean(axis=-1, keepdims=True)
        norm_ref, norm_est = np.sqrt(np.vecdot(x, x))
        keep = (norm_ref >= _LOG_CLAMP) & (norm_est >= _LOG_CLAMP)
        return np.vecdot(x[0], x[1])[keep] / (norm_ref[keep] * norm_est[keep])

    corrs = np.concatenate(workers.map(band_corrs, _third_octave_bands(sr)))
    if not corrs.size:
        raise DegenerateReference("no band segment carries energy")
    return float(1.0 - np.mean(corrs))


def cue_maps(s: Spectrogram) -> CueMaps:
    """ILD/IPD maps of a binaural spectrogram.

    ILD is computed as a difference of per-ear log magnitudes so that ear
    swap negates it exactly. The mask is true where the weaker ear's power
    stays within 40 dB of the utterance's loudest bin.
    """
    l, r = s.bins[0], s.bins[1]
    mag_l, mag_r = np.abs(l), np.abs(r)
    ild = 20.0 * (np.log10(mag_l + _LOG_CLAMP) - np.log10(mag_r + _LOG_CLAMP))
    ipd = np.angle(l * np.conj(r))
    ipd = np.where(ipd <= -np.pi, np.pi, ipd)
    pow_min = np.minimum(mag_l, mag_r) ** 2
    pow_max = max(float(np.max(mag_l) ** 2), float(np.max(mag_r) ** 2))
    mask = pow_min > pow_max * 1e-4
    return CueMaps(ild=ild, ipd=ipd, active_mask=mask)


def _cue_error(clean: Spectrogram, est: Spectrogram, cue: str) -> np.ndarray:
    """est's ``cue`` map ("ild" or "ipd") less clean's, on clean's active mask."""
    if clean.config != est.config:
        raise ShapeMismatch(f"analysis grids differ: clean {clean.config}, estimate {est.config}")
    if clean.bins.shape != est.bins.shape:
        raise ShapeMismatch("spectrogram shapes differ")
    c = cue_maps(clean)
    e = cue_maps(est)
    mask = c.active_mask
    if not np.any(mask):
        raise EmptyMask("no active bins in the clean reference")
    return getattr(e, cue)[mask] - getattr(c, cue)[mask]


def ild_loss(clean: Spectrogram, est: Spectrogram) -> float:
    """Mean absolute ILD difference (dB) over the clean-signal active mask."""
    return float(np.mean(np.abs(_cue_error(clean, est, "ild"))))


def ipd_loss(clean: Spectrogram, est: Spectrogram) -> float:
    """Mean absolute wrapped IPD difference (rad) over the active mask."""
    d = np.angle(np.exp(1j * _cue_error(clean, est, "ipd")))   # in [-pi, pi]
    return float(np.mean(np.abs(d)))    # |-pi| = |pi|: no fold, unlike cue_maps


def reg_terms(g: np.ndarray) -> tuple[float, float, float]:
    """Gate regularizers: (L1 sparsity, negative entropy, total variation).

    The entropy term is mean[g log g + (1-g) log(1-g)] with logs clamped at
    1e-12, so g in {0, 1} contributes exactly 0. TV runs along frequency.
    """
    g = np.asarray(g, dtype=np.float64)
    r_sparse = float(np.mean(np.abs(g)))
    gc = np.clip(g, _LOG_CLAMP, 1.0)
    gi = np.clip(1.0 - g, _LOG_CLAMP, 1.0)
    r_entropy = float(np.mean(g * np.log(gc) + (1.0 - g) * np.log(gi)))
    diffs = np.diff(g, axis=-1)
    r_tv = float(np.mean(np.abs(diffs))) if diffs.size else 0.0
    return r_sparse, r_entropy, r_tv


def external_score(command: str, ref_wav_path: str, est_wav_path: str) -> float:
    """Run a user-provided scorer (e.g. MBSTOI or PESQ reference tools).

    ``command`` is a shell-style template; occurrences of {ref} and {est}
    are replaced with the WAV paths. The scorer must print a single finite
    float on stdout (last token of the last non-empty line is parsed);
    ValueError otherwise, as JSON has no NaN or infinity.
    """
    argv = [
        part.replace("{ref}", str(ref_wav_path)).replace("{est}", str(est_wav_path))
        for part in shlex.split(command)
    ]
    out = subprocess.run(argv, capture_output=True, text=True, check=True).stdout
    lines = [ln for ln in out.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"scorer {argv[0]} produced no output")
    score = float(lines[-1].split()[-1])
    if not np.isfinite(score):
        raise ValueError(f"scorer {argv[0]} printed a non-finite score: {score}")
    return score
