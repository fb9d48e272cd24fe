"""Seeded benchmark inputs: binaural mixtures and an on-disk evaluation corpus.

Inputs are made with numpy and scipy only, so binse sees nothing but the
finished arrays and files. The same seed gives the same inputs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from scipy.io import wavfile

SR = 16000
HRIR_TAPS = 64
AZIMUTHS = range(-180, 180, 10)          # 36 directions for the diffuse field
TARGET_AZIMUTHS = range(-90, 91, 10)     # frontal span accepted by MixSpec
ITEM_SECONDS = (0.5, 3.0)


def speech_like(rng: np.random.Generator, n: int) -> np.ndarray:
    """Voiced, syllable-modulated harmonic tone with unit RMS, shape (n,)."""
    t = np.arange(n) / SR
    f0 = rng.uniform(100.0, 220.0) * (
        1.0 + 0.08 * np.sin(2 * np.pi * rng.uniform(0.5, 2.0) * t + rng.uniform(0, 2 * np.pi)))
    phase = 2 * np.pi * np.cumsum(f0) / SR
    h = np.arange(1, 21)[:, None]
    voiced = np.sum(np.sin(h * phase[None, :] + rng.uniform(0, 2 * np.pi, (20, 1))) / h, axis=0)
    syllables = 0.5 * (1.0 - np.cos(2 * np.pi * rng.uniform(3.0, 5.0) * t + rng.uniform(0, 2 * np.pi)))
    x = voiced * syllables ** 2 + 0.05 * rng.standard_normal(n)
    return x / np.sqrt(np.mean(x ** 2))


def mixture(rng: np.random.Generator, n: int) -> np.ndarray:
    """Binaural speech-in-noise mixture at -5..10 dB SNR, shape (2, n)."""
    s = speech_like(rng, n)
    itd = int(rng.integers(-8, 9))
    gain = 10.0 ** (rng.uniform(-6.0, 6.0) / 40.0)
    speech = np.stack([np.roll(s, max(itd, 0)) * gain, np.roll(s, max(-itd, 0)) / gain])
    common = rng.standard_normal(n)
    noise = 0.6 * common + 0.8 * rng.standard_normal((2, n))
    snr_db = rng.uniform(-5.0, 10.0)
    scale = np.sqrt(np.sum(speech ** 2) / (np.sum(noise ** 2) * 10.0 ** (snr_db / 10.0)))
    mix = speech + scale * noise
    return 0.3 * mix / np.max(np.abs(mix))


def _hrir(rng: np.random.Generator, azimuth_deg: float) -> np.ndarray:
    """Toy head-related impulse response pair: delayed, level-shaded direct
    path plus a short decaying tail, shape (2, HRIR_TAPS)."""
    lateral = np.sin(np.deg2rad(azimuth_deg))
    itd = 0.00066 * lateral * SR
    ir = np.zeros((2, HRIR_TAPS))
    for ear, sign in ((0, 1.0), (1, -1.0)):
        delay = 12.0 + max(sign * itd, 0.0)
        k = np.arange(HRIR_TAPS)
        ir[ear] = np.sinc(k - delay) * np.hanning(HRIR_TAPS) * (1.0 + 0.3 * sign * lateral)
        ir[ear] += 0.05 * rng.standard_normal(HRIR_TAPS) * np.exp(-k / 12.0)
    return ir


def write_sources(root: Path, rng: np.random.Generator) -> dict:
    """Write the mono speech source, a long noise source and a 36-direction
    HRIR directory under ``root``; return their paths."""
    root.mkdir(parents=True, exist_ok=True)
    n_max = int(ITEM_SECONDS[1] * SR)
    speech = root / "speech.wav"
    wavfile.write(speech, SR, (0.1 * speech_like(rng, n_max + SR)).astype(np.float32))
    noise = root / "noise.wav"
    n_noise = n_max * len(AZIMUTHS) + SR
    wavfile.write(noise, SR, (0.1 * rng.standard_normal(n_noise)).astype(np.float32))
    hrir_dir = root / "hrir"
    hrir_dir.mkdir(exist_ok=True)
    for az in AZIMUTHS:
        wavfile.write(hrir_dir / f"{az}.wav", SR, _hrir(rng, az).T.astype(np.float32))
    return {"speech": str(speech), "noise": str(noise), "hrir_dir": str(hrir_dir)}


def write_manifest(path: Path, sources: dict, rng: np.random.Generator,
                   n_items: int, prefix: str, fixed_lengths: bool = False) -> list[dict]:
    """Write a JSONL manifest of ``n_items`` (even) mix specs and return them.

    Lengths are stratified over ITEM_SECONDS: one item per equal-width
    stratum, in shuffled order. Neighbouring strata take antithetic offsets
    (u and 1 - u), so the total audio of a round is the same for every seed
    while each length is new, and so is its frame count. With
    ``fixed_lengths`` every item takes the top of its stratum instead, so
    the lengths, and with them the cold time and the peak memory of a
    process that renders this round first, do not depend on the seed.
    """
    lo, hi = ITEM_SECONDS
    width = (hi - lo) / n_items
    if fixed_lengths:
        u = np.ones(n_items)
    else:
        u = rng.uniform(0.0, 1.0, n_items)
        u[1::2] = 1.0 - u[0::2]
    specs = []
    for k in rng.permutation(n_items):
        n = int(SR * (lo + width * (k + u[k])))
        specs.append({
            "item_id": f"{prefix}_{len(specs)}",
            "speech": sources["speech"],
            "noise": sources["noise"],
            "hrir_dir": sources["hrir_dir"],
            "azimuth": float(rng.choice(list(TARGET_AZIMUTHS))),
            "snr_db": round(float(rng.uniform(-5.0, 10.0)), 2),
            "seed": int(rng.integers(0, 2 ** 31)),
            "duration_s": n / SR,
        })
    with open(path, "w") as fh:
        for spec in specs:
            fh.write(json.dumps(spec) + "\n")
    return specs
