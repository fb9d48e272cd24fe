"""End-to-end enhancement pipeline.

stft + gammatone -> encode/fuse/recalibrate -> modulator backbone ->
decoder heads -> closed-form solve -> refinement gate -> blend -> istft.

The network runs as one plan over tiles of the F frequency rows, so only two
network tensors are utterance-sized: the fused encoding ``z_att``, which
pass B turns into ``z_out`` in place, and the encoded gammatone bands.
Nearly every stage acts on each frequency row alone. The exceptions are the
gammatone projection, which reads every band, the SE squeeze, a mean over
all rows, and the decoder's 2-D blocks, which read k_f // 2 rows on either
side.

Pass A. ``encode_gamma`` runs the gammatone blocks over tiles of bands into
one (1, C, n_gammatone, T) buffer and projects it onto the F rows. The
projection is written into the array that becomes ``z_att``: per tile of
rows, the STFT blocks run and ``fuse`` overwrites the tile's projected rows
with the fused ones, and the SE squeeze sums add up. The SE excitation is
computed once after the last tile.

Pass B walks the same tiles. Per tile it scales the rows of ``z_att`` by the
excitation, runs the modulator on them and writes its output back into the
same rows, so that after the last tile ``z_att`` holds ``z_out``; the
refinement gate is taken from each tile's rows. ``decode_heads`` then runs
its blocks over the same tiles in one call, on a lagged schedule that keeps
only a few rows of each block's output (see there). The closed-form solve
and the blend run once, on the whole (2, F, T) spectrum, which is small
next to the network tensors. Tiles hold about ``complex_ops._TILE_BYTES``
of one (1, C, rows, T) tensor.

The stage dump (``collect_stages``) runs the same plan with one tile of all
F rows, so every dumped array is whole. Ablation flags bypass exactly one
stage each; a debug gate override is available for verification. The
network runs in complex64 by default (parameters are stored in f32 anyway);
the analysis/synthesis transforms and the final blend stay in float64.
Output sample 0 is always zero (see ``frontend.istft``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import Waveform
from .complex_ops import _TILE_BYTES, cse_excitation
from .config import RunConfig
from .decoder import (
    blend,
    decode_heads,
    global_gate,
    ratf_solve,
    refinement_gate,
)
from .encoder import encode_gamma, encode_stft, fuse, recalibrate
from .errors import InvariantViolation, ShapeMismatch
from .frontend import (
    GammatoneBank,
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


def _tiles(f: int, t: int, cfg: RunConfig, dtype, whole: bool) -> list[tuple[int, int]]:
    """The plan's tiles of frequency rows, (lo, hi) in ascending order."""
    step = f if whole else max(1, _TILE_BYTES // (cfg.channels * t * np.dtype(dtype).itemsize))
    return [(lo, min(lo + step, f)) for lo in range(0, f, step)]


def _encode(w, y, tiles, model, cfg, bank, dtype, keep):
    """Pass A: the whole fused encoding z_att and the SE excitation (1, C)."""
    enc = model.encoder
    f, t = y.bins.shape[1:]
    if cfg.no_gammatone:
        z_att = np.empty((1, cfg.channels, f, t), dtype)
    else:
        if bank is None:
            bank = gammatone_bank(cfg)
        # z_gamma, which fuse turns into z_att in place, tile by tile
        z_att = encode_gamma(gammatone_frames(w, bank, cfg.analysis).astype(dtype), enc)
        keep(z_gamma=z_att)
    bins = y.bins.astype(dtype)
    squeeze = np.zeros((1, cfg.channels))
    for lo, hi in tiles:
        z_stft = encode_stft(bins[:, lo:hi], enc)
        rows = z_att[:, :, lo:hi]
        fuse(z_stft, None if cfg.no_gammatone else rows, enc,
             no_gammatone=cfg.no_gammatone, out=rows)
        # rows summed alone, then in float64: the same sums for any tiling
        squeeze += np.abs(rows).sum(axis=3).sum(axis=2, dtype=np.float64)
        keep(z_stft=z_stft)
    keep(z_attended=z_att)
    # kept in float64, so that tiles whose sums differ in the last bits
    # cannot round a channel's scale apart
    excitation = cse_excitation(squeeze / (f * t), enc.se)
    return z_att, excitation


def _decode(z_att, excitation, y, tiles, model, cfg, gate_override, keep):
    """Pass B: turns z_att into z_out in place; returns the RATFs, the gate
    (F,) and the blended spectrum."""
    enc, dec = model.encoder, model.decoder
    f = y.bins.shape[1]
    net_gate = gate_override is None and not (cfg.no_drg or cfg.global_drg)
    if gate_override is not None:
        g = np.broadcast_to(np.asarray(gate_override, dtype=np.float64), (f,)).copy()
    elif cfg.no_drg:
        g = np.ones(f)
    elif cfg.global_drg:
        g = global_gate(dec).astype(np.float64)
    else:
        g = np.empty(f)
    for lo, hi in tiles:
        rows = z_att[:, :, lo:hi]
        z = recalibrate(rows, enc, excitation)
        keep(z_backbone=z)
        if cfg.no_gafm:
            rows[...] = z
        else:
            modulator_block(z, model.modulator, out=rows)
        if net_gate:
            g[lo:hi] = refinement_gate(rows, dec)[0]
    z_out = z_att                   # every row of it now overwritten
    keep(z_out=z_out)
    ratfs = decode_heads(z_out, dec, tiles)
    s_hat = ratf_solve(y, ratfs, eps=cfg.eps_ratf, literal_square=cfg.literal_ratf_square)
    s_final = blend(s_hat, y, g)
    keep(ratf_s=ratfs.w_s, ratf_n=ratfs.w_n, s_hat=s_hat.bins, gate=g, s_final=s_final.bins)
    return ratfs, g, s_final


def enhance(
    wav_in: Waveform,
    model: ModelParams,
    cfg: RunConfig,
    bank: GammatoneBank | None = None,
    gate_override: np.ndarray | None = None,
    collect_stages: bool = False,
    dtype=np.complex64,
) -> EnhanceResult:
    """Enhance a stereo 16 kHz waveform; output length equals input length.

    Output sample 0 is always zero, as the synthesis window has no weight
    there (see ``frontend.istft``), so a 1-sample input returns silence.
    """
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
        # copies, as the plan later overwrites some buffers in place
        if collect_stages:
            stages.update((k, v.copy()) for k, v in arrays.items())

    tiles = _tiles(*y.bins.shape[1:], cfg, dtype, collect_stages)
    z_att, excitation = _encode(w, y, tiles, model, cfg, bank, dtype, keep)
    ratfs, g, s_final = _decode(z_att, excitation, y, tiles, model, cfg, gate_override, keep)
    out = istft(s_final)
    samples = out.samples[:, :n_in]
    if not np.all(np.isfinite(samples)):
        raise InvariantViolation("non-finite samples in enhanced output")

    keep(noisy_spec=y.bins)
    return EnhanceResult(
        wav_out=Waveform(samples, wav_in.sample_rate),
        gate=g,
        ratfs=ratfs,
        stages=stages,
    )
