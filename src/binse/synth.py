"""Binaural dataset construction: HRIR spatialization of mono speech,
diffuse isotropic noise synthesis, and SNR-controlled mixing.

All randomness flows from explicit per-item seeds; the same manifest
produces byte-identical WAV output on every run.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import workers
from .audio import Waveform, read_mono, read_wav, write_wav
from .errors import (
    AzimuthUnavailable,
    DegenerateMix,
    NoiseSourceTooShort,
    ShapeMismatch,
    UnsupportedFormat,
)


# azimuths rendered per workers.map: two per worker; all 36 at once held
# 28 MB of rendered 3 s segments and raised the corpus benchmark's peak RSS
_AZIMUTHS_PER_MAP = 4


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

    def nearest(self, azimuth: float, tolerance: float = 1.0) -> float:
        best = min(self.azimuths, key=lambda a: abs(a - azimuth))
        if abs(best - azimuth) > tolerance:
            raise AzimuthUnavailable(
                f"no impulse response within {tolerance} deg of {azimuth}"
            )
        return best


def load_hrir_dir(path, expected_rate: int = 16000) -> HrirSet:
    """Load a directory of per-azimuth stereo WAVs named '<azimuth>.wav'."""
    entries = {}
    for wav in sorted(Path(path).glob("*.wav")):
        try:
            az = float(wav.stem)
        except ValueError:
            continue
        x, _ = read_wav(wav, expected_rate=expected_rate)
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
    # full linear convolution on a fast real FFT length, as fftconvolve does;
    # numpy.fft lays its output out like its input, and a C-ordered output
    # keeps later sums over it (mix_at_snr) in one summation order
    n = _next_fast_len(n_in + ir.shape[1] - 1)
    spec = (np.fft.rfft(mono[np.newaxis, :], n, axis=-1)
            * np.fft.rfft(np.ascontiguousarray(ir), n, axis=-1))
    out = np.fft.irfft(spec, n, axis=-1)[:, :n_in]
    return Waveform(out, h.sample_rate)


def make_diffuse_noise(
    noise_src: np.ndarray, h: HrirSet, duration_s: float, seed: int
) -> Waveform:
    """Diffuse isotropic noise: non-overlapping source segments, one per
    available azimuth, each spatialized and summed; normalized to unit RMS.

    The seed picks the starting offset into the source so different items
    draw different material deterministically. Each azimuth's
    ``spatialize`` is one unit on the worker pool (``workers.map``), run
    ``_AZIMUTHS_PER_MAP`` at a time so that only that many rendered segments
    are held at once; they are summed in azimuth order, as one after the
    other.
    """
    noise_src = np.asarray(noise_src, dtype=np.float64)
    n = int(round(duration_s * h.sample_rate))
    azimuths = h.azimuths
    needed = n * len(azimuths)
    if noise_src.shape[0] < needed:
        raise NoiseSourceTooShort(
            f"need {needed} samples for {len(azimuths)} segments, have {noise_src.shape[0]}"
        )
    rng = np.random.default_rng(seed)
    start = int(rng.integers(0, noise_src.shape[0] - needed + 1))

    def render(k: int) -> np.ndarray:
        seg = noise_src[start + k * n : start + (k + 1) * n]
        return spatialize(seg, h, azimuths[k]).samples

    acc = np.zeros((2, n))
    ks = range(len(azimuths))
    for k0 in ks[::_AZIMUTHS_PER_MAP]:
        for part in workers.map(render, ks[k0 : k0 + _AZIMUTHS_PER_MAP]):
            acc += part
    rms = np.sqrt(np.mean(acc ** 2))
    if rms == 0.0:
        raise DegenerateMix("diffuse noise field is silent")
    return Waveform(acc / rms, h.sample_rate)


def mix_at_snr(
    speech: Waveform, noise: Waveform, snr_db: float
) -> tuple[Waveform, dict]:
    """Scale the noise so the speech-to-noise power ratio (summed over both
    ears) hits snr_db, then add. Returns the mixture and a scale report."""
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
        if not -90.0 <= self.azimuth <= 90.0:
            raise ValueError("target azimuth must lie in the frontal span [-90, 90]")


def read_jsonl(path):
    """Yield ("path:line", object) per non-blank line; a non-object raises UnsupportedFormat."""
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
            yield where, rec


def read_manifest(path) -> list[MixSpec]:
    """Read a JSON-lines manifest of MixSpec records; a bad line raises UnsupportedFormat."""
    specs = []
    for where, rec in read_jsonl(path):
        try:
            specs.append(MixSpec(**rec))
        except (TypeError, ValueError) as exc:
            raise UnsupportedFormat(f"{where}: {exc}") from None
    return specs


def _sources(spec: MixSpec) -> list[tuple]:
    """(loader, path) of each file an item reads."""
    return [(load_hrir_dir, spec.hrir_dir), (read_mono, spec.speech), (read_mono, spec.noise)]


def synthesize_item(spec: MixSpec, sample_rate: int = 16000, loaded: dict | None = None):
    """Build (clean, noise, mixture, report) for one manifest item.

    ``loaded`` maps (loader, path) to what an earlier item loaded; a file
    not in it is loaded and added. A load that fails adds nothing."""
    loaded = {} if loaded is None else loaded
    for key in _sources(spec):
        if key not in loaded:
            load, path = key
            loaded[key] = load(path, expected_rate=sample_rate)
    hrirs, speech_src, noise_src = (loaded[key] for key in _sources(spec))
    n = int(round(spec.duration_s * sample_rate))
    if speech_src.shape[0] < n:
        speech_src = np.pad(speech_src, (0, n - speech_src.shape[0]))
    clean = spatialize(speech_src[:n], hrirs, spec.azimuth)
    noise = make_diffuse_noise(noise_src, hrirs, spec.duration_s, spec.seed)
    mixture, report = mix_at_snr(clean, noise, spec.snr_db)
    return clean, noise, mixture, report


def generate_dataset(specs: list[MixSpec], out_dir, sample_rate: int = 16000) -> dict:
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
            clean, noise, mixture, report = synthesize_item(spec, sample_rate, loaded)
        except Exception as exc:  # surface per-item, keep going
            failures.append({"item_id": spec.item_id, "error": str(exc)})
            continue
        finally:
            for key in _sources(spec):
                if last_use[key] == i:
                    loaded.pop(key, None)
        write_wav(out / f"{spec.item_id}_clean.wav", clean.samples, sample_rate)
        write_wav(out / f"{spec.item_id}_noise.wav", noise.samples, sample_rate)
        write_wav(out / f"{spec.item_id}_mix.wav", mixture.samples, sample_rate)
        rec = asdict(spec) | report
        records.append(rec)
    meta_path = out / "metadata.jsonl"
    with open(meta_path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return {"n_ok": len(records), "failures": failures, "metadata": str(meta_path)}
