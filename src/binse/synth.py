"""Binaural dataset construction: HRIR spatialization of mono speech,
diffuse isotropic noise synthesis, and SNR-controlled mixing.

Speech and diffuse noise share one serial FFT convolution (``_convolve_sum``).
All randomness flows from explicit per-item seeds; the same manifest
produces byte-identical WAV output on every run.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .audio import Waveform, read_mono, read_wav, write_wav
from .errors import (
    AzimuthUnavailable,
    DegenerateMix,
    NoiseSourceTooShort,
    ShapeMismatch,
    UnsupportedFormat,
)

SAMPLE_RATE = 16000     # of every source synthesis reads and every file it writes


@dataclass
class HrirSet:
    """Azimuth-indexed stereo impulse responses on the horizontal plane."""

    entries: dict[float, np.ndarray]   # azimuth degrees -> (2, taps)
    sample_rate: int

    def __post_init__(self):
        lengths = {ir.shape for ir in self.entries.values()}
        if not self.entries:
            raise ValueError("HrirSet needs at least one azimuth")
        if len(lengths) != 1:
            raise ValueError("all impulse responses must share one shape")
        (shape,) = lengths
        if len(shape) != 2 or shape[0] != 2:
            raise ValueError("impulse responses must be shaped (2, taps)")
        for az in self.entries:
            if not -180.0 <= az < 180.0:
                raise ValueError(f"azimuth {az} outside [-180, 180)")

    @property
    def azimuths(self) -> list[float]:
        return sorted(self.entries)

    def nearest(self, azimuth: float) -> float:
        best = min(self.azimuths, key=lambda a: abs(a - azimuth))
        if abs(best - azimuth) > 1.0:
            raise AzimuthUnavailable(f"no impulse response within 1.0 deg of {azimuth}")
        return best


def load_hrir_dir(path, expected_rate: int) -> HrirSet:
    """Load a directory of per-azimuth stereo WAVs named '<azimuth>.wav', one per azimuth."""
    entries, files = {}, {}
    for wav in sorted(Path(path).glob("*.wav")):
        try:
            az = float(wav.stem)
        except ValueError:
            continue
        if az in files:
            raise UnsupportedFormat(f"{files[az]} and {wav} both name azimuth {az}")
        files[az] = wav
        x = read_wav(wav, expected_rate)
        if x.shape[0] != 2:
            raise UnsupportedFormat(f"{wav}: HRIR must be stereo")
        entries[az] = x
    if not entries:
        raise UnsupportedFormat(f"{path}: no azimuth-named WAV files found")
    return HrirSet(entries, expected_rate)


def _next_fast_len(n: int) -> int:
    """Smallest 5-smooth length 2**a * 3**b * 5**c >= n, the real FFT sizes
    pocketfft runs fastest (``scipy.fft.next_fast_len(n, True)``)."""
    best = 1 << (n - 1).bit_length()
    f5 = 1
    while f5 < best:
        f35 = f5
        while f35 < best:
            # the least power-of-two multiple of f35 that reaches n
            best = min(best, f35 << (-(-n // f35) - 1).bit_length())
            f35 *= 3
        f5 *= 5
    return best


def _convolve_sum(pairs, n_out: int) -> np.ndarray:
    """Sum over (x, h) pairs of mono x (n,) convolved with stereo h (2, taps),
    truncated to (2, n_out); all pairs share n and taps. The products are
    added as spectra on one fast real FFT length, as fftconvolve picks it,
    and take one inverse FFT; its output is C-ordered, so later sums over it
    (mix_at_snr) run in one order."""
    x0, h0 = pairs[0]
    n = _next_fast_len(x0.shape[0] + h0.shape[1] - 1)
    spec = sum(np.fft.rfft(x[np.newaxis, :], n, axis=-1)
               * np.fft.rfft(np.ascontiguousarray(h), n, axis=-1) for x, h in pairs)
    return np.fft.irfft(spec, n, axis=-1)[:, :n_out]


def spatialize(mono: np.ndarray, h: HrirSet, azimuth: float) -> Waveform:
    """Convolve a mono signal with the stereo pair at the nearest azimuth,
    truncated to the input length."""
    mono = np.asarray(mono, dtype=np.float64)
    if mono.ndim != 1:
        raise ShapeMismatch("spatialize expects a 1-D mono signal")
    ir = h.entries[h.nearest(azimuth)]
    n_in = mono.shape[0]
    if min(n_in, ir.shape[1]) == 1:
        # a one-sample factor makes the convolution a plain product
        return Waveform((mono * ir)[:, :n_in], h.sample_rate)
    return Waveform(_convolve_sum([(mono, ir)], n_in), h.sample_rate)


def make_diffuse_noise(
    noise_src: np.ndarray, h: HrirSet, duration_s: float, seed: int
) -> Waveform:
    """Diffuse isotropic noise: non-overlapping source segments, one per
    available azimuth, each convolved and summed; normalized to unit RMS.

    The seed picks the starting offset into the source so different items
    draw different material deterministically. The field is linear in its
    segments, so they are summed as spectra, in azimuth order, with one
    inverse FFT (``_convolve_sum``): within rounding of a ``spatialize`` sum.
    """
    noise_src = np.asarray(noise_src, dtype=np.float64)
    n = int(round(duration_s * h.sample_rate))
    if n < 1:
        raise ValueError(f"duration {duration_s} s is under one sample")
    azimuths = h.azimuths
    needed = n * len(azimuths)
    if noise_src.shape[0] < needed:
        raise NoiseSourceTooShort(
            f"need {needed} samples for {len(azimuths)} segments, have {noise_src.shape[0]}"
        )
    rng = np.random.default_rng(seed)
    start = int(rng.integers(0, noise_src.shape[0] - needed + 1))
    segments = noise_src[start : start + needed].reshape(len(azimuths), n)
    acc = _convolve_sum([(seg, h.entries[az]) for seg, az in zip(segments, azimuths)], n)
    rms = np.sqrt(np.mean(acc ** 2))
    if rms == 0.0:
        raise DegenerateMix("diffuse noise field is silent")
    return Waveform(acc / rms, h.sample_rate)


def mix_at_snr(
    speech: Waveform, noise: Waveform, snr_db: float
) -> tuple[Waveform, dict]:
    """Scale the noise so the speech-to-noise power ratio (summed over both
    ears) hits snr_db, then add. Returns the mixture and a scale report."""
    if speech.sample_rate != noise.sample_rate:
        raise ShapeMismatch(f"sample rates differ: speech {speech.sample_rate} Hz, "
                            f"noise {noise.sample_rate} Hz")
    if speech.n_samples != noise.n_samples:
        raise ShapeMismatch("speech and noise lengths differ")
    p_s = float(np.sum(speech.samples ** 2))
    p_n = float(np.sum(noise.samples ** 2))
    if p_s == 0.0 or p_n == 0.0:
        raise DegenerateMix("speech or noise is silent")
    scale = np.sqrt(p_s / (p_n * 10.0 ** (snr_db / 10.0)))
    scaled = noise.samples * scale
    mix = Waveform(speech.samples + scaled, speech.sample_rate)
    measured = 10.0 * np.log10(p_s / float(np.sum(scaled ** 2)))
    report = {"noise_scale": float(scale), "measured_snr_db": float(measured)}
    return mix, report


def check_item_id(item_id) -> None:
    """ValueError if ``item_id``, which names an item's files, holds a path separator."""
    if any(sep and sep in str(item_id) for sep in ("/", os.sep, os.altsep)):
        raise ValueError(f"item_id {item_id!r} holds a path separator")


@dataclass
class MixSpec:
    """One dataset item: which sources, where, how loud, which seed."""

    item_id: str
    speech: str
    noise: str
    hrir_dir: str
    azimuth: float
    snr_db: float
    seed: int
    duration_s: float = 2.0

    def __post_init__(self):
        check_item_id(self.item_id)
        if not -90.0 <= self.azimuth <= 90.0:
            raise ValueError("target azimuth must lie in the frontal span [-90, 90]")
        if not (np.isfinite(self.duration_s) and self.duration_s > 0):
            raise ValueError(f"duration_s must be positive and finite, got {self.duration_s}")
        if not np.isfinite(self.snr_db):
            raise ValueError(f"snr_db must be finite, got {self.snr_db}")


def read_items(path):
    """Yield ("path:line", object) per non-blank line of a JSON-lines file
    of items. A line that is not a JSON object, or whose item_id is missing,
    holds a path separator or repeats an earlier line's (it names the
    item's files), raises UnsupportedFormat."""
    first = {}
    with open(path) as fh:
        for n, line in enumerate(fh, 1):
            if not line.strip():
                continue
            where = f"{path}:{n}"
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise UnsupportedFormat(f"{where}: {exc}") from None
            if not isinstance(rec, dict):
                raise UnsupportedFormat(f"{where}: not a JSON object")
            if "item_id" not in rec:
                raise UnsupportedFormat(f"{where}: no item_id")
            item_id = rec["item_id"]
            try:
                check_item_id(item_id)
            except ValueError as exc:
                raise UnsupportedFormat(f"{where}: {exc}") from None
            name = str(item_id)         # as it names the item's files
            if name in first:
                raise UnsupportedFormat(f"{where}: item_id {item_id!r} repeats {first[name]}")
            first[name] = where
            yield where, rec


def read_manifest(path) -> list[MixSpec]:
    """Read a JSON-lines manifest of MixSpec records (``read_items``); a bad
    line raises UnsupportedFormat."""
    specs = []
    for where, rec in read_items(path):
        try:
            specs.append(MixSpec(**rec))
        except (TypeError, ValueError) as exc:
            raise UnsupportedFormat(f"{where}: {exc}") from None
    return specs


def _sources(spec: MixSpec) -> list[tuple]:
    """(loader, path) of each file an item reads."""
    return [(load_hrir_dir, spec.hrir_dir), (read_mono, spec.speech), (read_mono, spec.noise)]


def synthesize_item(spec: MixSpec, loaded: dict):
    """Build (clean, noise, mixture, report) for one manifest item, at SAMPLE_RATE.

    ``loaded`` maps (loader, path) to what an earlier item loaded; a file
    not in it is loaded and added. A load that fails adds nothing."""
    for key in _sources(spec):
        if key not in loaded:
            load, path = key
            loaded[key] = load(path, expected_rate=SAMPLE_RATE)
    hrirs, speech_src, noise_src = (loaded[key] for key in _sources(spec))
    # noise first: a source too short for the duration is refused before allocating
    noise = make_diffuse_noise(noise_src, hrirs, spec.duration_s, spec.seed)
    n = int(round(spec.duration_s * SAMPLE_RATE))
    if speech_src.shape[0] < n:
        speech_src = np.pad(speech_src, (0, n - speech_src.shape[0]))
    clean = spatialize(speech_src[:n], hrirs, spec.azimuth)
    mixture, report = mix_at_snr(clean, noise, spec.snr_db)
    return clean, noise, mixture, report


def generate_dataset(specs: list[MixSpec], out_dir) -> dict:
    """Render every manifest item to disk: clean/noise/mix WAVs plus a
    metadata record per item. Per-item failures are collected, not fatal.

    Each HRIR directory and source WAV is loaded once, and kept only until
    the last item that reads it."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    last_use = {key: i for i, spec in enumerate(specs) for key in _sources(spec)}
    loaded = {}
    records, failures = [], []
    for i, spec in enumerate(specs):
        try:
            clean, noise, mixture, report = synthesize_item(spec, loaded)
        except Exception as exc:  # surface per-item, keep going
            failures.append({"item_id": spec.item_id, "error": str(exc)})
            continue
        finally:
            for key in _sources(spec):
                if last_use[key] == i:
                    loaded.pop(key, None)
        write_wav(out / f"{spec.item_id}_clean.wav", clean.samples, SAMPLE_RATE)
        write_wav(out / f"{spec.item_id}_noise.wav", noise.samples, SAMPLE_RATE)
        write_wav(out / f"{spec.item_id}_mix.wav", mixture.samples, SAMPLE_RATE)
        rec = asdict(spec) | report
        records.append(rec)
    meta_path = out / "metadata.jsonl"
    with open(meta_path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return {"n_ok": len(records), "failures": failures, "metadata": str(meta_path)}
