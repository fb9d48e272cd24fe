"""End-to-end enhancement pipeline.

stft + gammatone -> encode/fuse/recalibrate -> modulator backbone ->
decoder heads -> closed-form solve -> refinement gate -> blend -> istft.

Ablation flags bypass exactly one stage each; a debug gate override is
available for verification. The network runs in complex64 by default
(parameters are stored in f32 anyway); the analysis/synthesis transforms
and the final blend stay in float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import Waveform
from .config import RunConfig
from .decoder import blend, decode_heads, global_gate, ratf_solve, refinement_gate
from .encoder import encode_gamma, encode_stft, fuse, recalibrate
from .errors import InvariantViolation, ShapeMismatch
from .frontend import (
    GammatoneBank,
    Spectrogram,
    build_gammatone_bank,
    gammatone_frames,
    istft,
    stft,
)
from .modulator import modulator_block
from .params import ModelParams


@dataclass
class EnhanceResult:
    wav_out: Waveform
    gate: np.ndarray                  # (F,)
    ratfs: object                     # RatfPair
    stages: dict[str, np.ndarray]     # intermediate dumps (optional)


def pad_to_frame_grid(w: Waveform, cfg: RunConfig) -> Waveform:
    """Zero-pad so every sample is covered by the no-padding frame grid."""
    a = cfg.analysis
    n = w.n_samples
    if n < a.fft_size:
        target = a.fft_size
    else:
        rem = (n - a.fft_size) % a.hop
        target = n if rem == 0 else n + (a.hop - rem)
    if target == n:
        return w
    return Waveform(np.pad(w.samples, ((0, 0), (0, target - n))), w.sample_rate)


def gammatone_bank(cfg: RunConfig) -> GammatoneBank | None:
    """The gammatone filterbank the configured pipeline uses; None when the
    gammatone stream is ablated."""
    if cfg.no_gammatone:
        return None
    return build_gammatone_bank(
        cfg.analysis,
        cfg.n_gammatone,
        cfg.gammatone_lo_hz,
        cfg.gammatone_hi_hz,
        cfg.gammatone_taps,
    )


def enhance(
    wav_in: Waveform,
    model: ModelParams,
    cfg: RunConfig,
    bank: GammatoneBank | None = None,
    gate_override: np.ndarray | None = None,
    collect_stages: bool = False,
    dtype=np.complex64,
) -> EnhanceResult:
    """Enhance a stereo 16 kHz waveform; output length equals input length."""
    if wav_in.sample_rate != cfg.analysis.sample_rate:
        raise ShapeMismatch(
            f"input rate {wav_in.sample_rate} != configured {cfg.analysis.sample_rate}"
        )
    if model.fingerprint != cfg.fingerprint():
        raise InvariantViolation("model weights do not match the active config")
    n_in = wav_in.n_samples
    w = pad_to_frame_grid(wav_in, cfg)
    y = stft(w, cfg.analysis)
    stages: dict[str, np.ndarray] = {}

    def keep(**arrays):
        if collect_stages:
            stages.update(arrays)

    # Each whole-utterance encoder tensor is dropped as soon as the next
    # stage has consumed it, unless the stage dump holds it.
    z_gamma = None
    if not cfg.no_gammatone:
        if bank is None:
            bank = gammatone_bank(cfg)
        g_feats = gammatone_frames(w, bank, cfg.analysis).astype(dtype)
        z_gamma = encode_gamma(g_feats, model.encoder)
        keep(z_gamma=z_gamma)

    z_stft = encode_stft(Spectrogram(y.bins.astype(dtype), y.config), model.encoder)
    keep(z_stft=z_stft)
    z_att = fuse(z_stft, z_gamma, model.encoder, no_gammatone=cfg.no_gammatone)
    del z_gamma, z_stft
    keep(z_attended=z_att)
    z_bb = recalibrate(z_att, model.encoder)
    del z_att
    keep(z_backbone=z_bb)
    if cfg.no_gafm:
        z_out = z_bb
    else:
        z_out = modulator_block(z_bb, model.modulator)
    del z_bb

    ratfs = decode_heads(z_out, model.decoder)
    s_hat = ratf_solve(y, ratfs, eps=cfg.eps_ratf, literal_square=cfg.literal_ratf_square)

    if gate_override is not None:
        g = np.broadcast_to(np.asarray(gate_override, dtype=np.float64),
                            (cfg.analysis.n_freq_bins,)).copy()
    elif cfg.no_drg:
        g = np.ones(cfg.analysis.n_freq_bins)
    elif cfg.global_drg:
        g = global_gate(model.decoder).astype(np.float64)
    else:
        g = refinement_gate(z_out, model.decoder)[0].astype(np.float64)

    s_final = blend(s_hat, y, g)
    out = istft(s_final)
    samples = out.samples[:, :n_in]
    if not np.all(np.isfinite(samples)):
        raise InvariantViolation("non-finite samples in enhanced output")

    keep(
        noisy_spec=y.bins,
        z_out=z_out,
        ratf_s=ratfs.w_s,
        ratf_n=ratfs.w_n,
        s_hat=s_hat.bins,
        gate=g,
        s_final=s_final.bins,
    )
    return EnhanceResult(
        wav_out=Waveform(samples, wav_in.sample_rate),
        gate=g,
        ratfs=ratfs,
        stages=stages,
    )
