"""End-to-end enhancement pipeline.

stft + gammatone -> encode/fuse/recalibrate -> modulator backbone ->
decoder heads -> closed-form solve -> refinement gate -> blend -> istft.

The network runs as one plan over tiles of the F frequency rows, so only two
network tensors are utterance-sized: the fused encoding ``z_att`` and the
encoded gammatone bands. Nearly every stage acts on each frequency row
alone. The exceptions are the gammatone projection, which reads every band,
the SE squeeze, a mean over all rows, and the decoder's 2-D blocks, which
read k_f // 2 rows on either side.

Pass A. ``encode_gamma`` runs the gammatone blocks over tiles of bands into
one (1, C, n_gammatone, T) buffer and projects it onto the F rows. The
projection is written into the array that becomes ``z_att``: per tile of
rows, the STFT blocks run and ``fuse`` overwrites the tile's projected rows
with the fused ones, and the SE squeeze sums add up. The SE excitation is
computed once after the last tile.

Pass B walks the same tiles in ascending order. Per tile it scales the rows
of ``z_att`` by the excitation, runs the modulator and the refinement gate
on them, and hands the resulting ``z_out`` rows to ``decode_heads``. Each
2-D block of a head needs k_f // 2 rows beyond its output on either side,
so the decoder runs on a lagged schedule: block l of each head makes its
rows up to l * (k_f // 2) rows behind the end of the ``z_out`` rows seen so
far, and keeps the few rows of its input that the next tile still reads.
No row is computed twice. The RATF rows that come out go through the
solve and the blend into the whole (2, F, T) spectrum; the last tile
completes every row. Tiles hold about ``complex_ops._TILE_BYTES`` of one
(1, C, rows, T) tensor.

The stage dump (``collect_stages``) and the ablations run the same plan
with one tile of all F rows, so every dumped array is whole. Ablation flags
bypass exactly one stage each; a debug gate override is available for
verification. The network runs in complex64 by default (parameters are
stored in f32 anyway); the analysis/synthesis transforms and the final blend
stay in float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import Waveform
from .complex_ops import _TILE_BYTES, cse_excitation
from .config import RunConfig
from .decoder import (
    HeadStream,
    RatfPair,
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
    y_net = Spectrogram(y.bins.astype(dtype), y.config)
    squeeze = np.zeros((1, cfg.channels))
    for lo, hi in tiles:
        z_stft = encode_stft(y_net.band(lo, hi), enc)
        tile = z_att[:, :, lo:hi]
        fuse(z_stft, None if cfg.no_gammatone else tile, enc,
             no_gammatone=cfg.no_gammatone, out=tile)
        # rows summed alone, then in float64: the same sums for any tiling
        squeeze += np.abs(tile).sum(axis=3).sum(axis=2, dtype=np.float64)
        keep(z_stft=z_stft)
    keep(z_attended=z_att)
    # kept in float64, so that tiles whose sums differ in the last bits
    # cannot round a channel's scale apart
    excitation = cse_excitation(squeeze / (f * t), enc.se)
    return z_att, excitation


def _decode(z_att, excitation, y, tiles, model, cfg, gate_override, keep):
    """Pass B: the RATFs, the gate (F,) and the blended spectrum, all whole."""
    enc, dec = model.encoder, model.decoder
    f, t = y.bins.shape[1:]
    net_gate = gate_override is None and not (cfg.no_drg or cfg.global_drg)
    if gate_override is not None:
        g = np.broadcast_to(np.asarray(gate_override, dtype=np.float64), (f,)).copy()
    elif cfg.no_drg:
        g = np.ones(f)
    elif cfg.global_drg:
        g = global_gate(dec).astype(np.float64)
    else:
        g = np.empty(f)
    w_s, w_n = (np.empty((1, f, t), z_att.dtype) for _ in range(2))
    s_final = np.empty_like(y.bins)
    stream = HeadStream(f)
    done = 0                        # RATF rows made so far; they lag z_out's
    for lo, hi in tiles:
        z = recalibrate(z_att[:, :, lo:hi], enc, excitation)
        keep(z_backbone=z)
        if not cfg.no_gafm:
            z = modulator_block(z, model.modulator)
        keep(z_out=z)
        if net_gate:
            g[lo:hi] = refinement_gate(z, dec)[0]
        r = decode_heads(z, dec, stream)
        a, done = done, done + r.w_s.shape[1]
        w_s[:, a:done], w_n[:, a:done] = r.w_s, r.w_n
        y_rows = y.band(a, done)
        s_hat = ratf_solve(y_rows, r, eps=cfg.eps_ratf, literal_square=cfg.literal_ratf_square)
        s_final[:, a:done] = blend(s_hat, y_rows, g).bins
        keep(s_hat=s_hat.bins)
    keep(ratf_s=w_s, ratf_n=w_n, gate=g, s_final=s_final)
    return RatfPair(w_s, w_n), g, s_final


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
        # copies, as the plan later overwrites some buffers in place
        if collect_stages:
            stages.update((k, v.copy()) for k, v in arrays.items())

    whole = collect_stages or cfg.no_gammatone or cfg.no_gafm or cfg.no_drg or cfg.global_drg
    tiles = _tiles(*y.bins.shape[1:], cfg, dtype, whole)
    z_att, excitation = _encode(w, y, tiles, model, cfg, bank, dtype, keep)
    ratfs, g, s_final = _decode(z_att, excitation, y, tiles, model, cfg, gate_override, keep)
    out = istft(Spectrogram(s_final, y.config))
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
