"""End-to-end enhancement pipeline.

stft + gammatone -> encode/fuse/recalibrate -> modulator backbone ->
decoder heads -> closed-form solve -> refinement gate -> blend -> istft.

The network runs as one plan over tiles of the F frequency rows, so only one
network tensor is utterance-sized: the buffer ``encode_gamma`` encodes the
gammatone bands into and projects them in place, whose first F rows are
``z_att``; ``fuse`` makes it the fused encoding and pass B turns it into
``z_out``, both in place. Nearly every stage acts on each frequency row
alone. The exceptions are the gammatone projection, which reads every band,
the SE squeeze, a mean over all rows, and the decoder's 2-D blocks, which
read k_f // 2 rows on either side.

Pass A. ``encode_gamma`` runs the gammatone blocks over tiles of bands into
the first n_gammatone rows of one (C, max(F, n_gammatone), T) buffer,
then projects them onto the F rows channel by channel in the same buffer;
its first F rows become ``z_att`` (a strided view when n_gammatone > F).
Per tile of rows, the STFT blocks run, ``fuse`` overwrites the tile's
projected rows with the fused ones, and each row's magnitude sums for the
SE squeeze are written out. The SE excitation is computed once after the
last tile, from those sums reduced over every row at once.

Pass B walks the same tiles. Per tile it scales the rows of ``z_att`` by the
excitation, runs the modulator on them and writes its output back into the
same rows, so that after the last tile ``z_att`` holds ``z_out``; the
refinement gate is taken from each tile's rows. ``decode_heads`` then runs
each head's blocks over the same tiles, on a lagged schedule that keeps
only a few rows of each block's output (see there). The closed-form solve
and the blend run once, on the whole (2, F, T) spectrum, which is small
next to the network tensors. ``_tiles`` cuts the rows, and the bands, into
tiles of equal size (within one row), each at most ``_TILE_BYTES`` of one
(C, rows, T) tensor or ``_TILE_MIN_ROWS`` rows, whichever is more, in a
count that is a multiple of the pool size, so every worker gets an equal
share of every pass at every length. Every stage
computes exactly the rows it is handed.

The independent units of the plan run on the worker pool of ``workers``:
the channel groups of the gammatone filter, the tiles of gammatone bands,
the tiles of pass A and of pass B, and the two decoder heads. Each unit
computes what it computes run alone, so the output does not depend on the
pool. Nor does it depend on the tiling: every product and sum runs per
frequency row, in an order set by the row alone (see ``complex_ops.clinear``
and ``complex_ops.cln``), so the tile size is a pure speed setting. While a
plan runs, OpenBLAS is held to one thread and numpy's ufunc buffer to a
small size (``workers.plan``), neither of which changes an output bit.

A stage dump (``collect_stages``) is a plain dict that the same plan fills:
pass A's tiles write their STFT encodings into one preallocated whole
array, ``z_backbone`` is scaled from the whole ``z_att`` once after pass A,
and only the buffers the plan later overwrites are copied. Ablation flags
bypass exactly one stage each; a debug gate override is available for
verification. The network runs in complex64 by default (parameters are
stored in f32 anyway); the analysis/synthesis transforms and the final
blend stay in float64. Output sample 0 is always zero (see
``frontend.istft``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import workers
from .audio import Waveform
from .complex_ops import cse_excitation
from .config import RunConfig
from .decoder import (
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
    build_gammatone_bank,
    gammatone_frames,
    grid_length,
    istft,
    stft,
)
from .modulator import modulator_block
from .params import ModelParams

# Bytes of one (C, rows, T) tensor a plan tile may hold, and the fewest rows
# a tile's budget counts whatever T: speed constants only, as no output bit
# depends on the tiling. A light-conv block keeps a pair of such tensors live
# (three at times), and at 1 MB the pair fits a core's 2 MB L2. The floor
# keeps long inputs off 1-row tiles, which ran 8-13% slower at 8 s (T = 999),
# where three rows are what 2 MB held. The tiles are equal, in the smallest
# multiple of the pool size that keeps each within the budget, so some are
# smaller (5-6 rows at 2 s, 6 in budget; 2-3 at 8 s, 3 in budget). Tiles
# this small rely on ``workers.plan``'s small ufunc buffer: under numpy's
# default one, their elementwise ops run about three times slower.
_TILE_BYTES = 1 << 20
_TILE_MIN_ROWS = 3


@dataclass
class EnhanceResult:
    wav_out: Waveform
    gate: np.ndarray                  # (F,)
    ratfs: RatfPair                   # (F, T) each
    stages: dict[str, np.ndarray]     # intermediate dumps (optional)


def pad_to_frame_grid(w: Waveform, cfg: RunConfig) -> Waveform:
    """Zero-pad so every sample is covered by the no-padding frame grid."""
    n = w.n_samples
    target = grid_length(n, cfg.analysis)
    if target == n:
        return w
    return Waveform(np.pad(w.samples, ((0, 0), (0, target - n))), w.sample_rate)


@lru_cache(maxsize=8)
def gammatone_bank(cfg: RunConfig) -> GammatoneBank | None:
    """The gammatone filterbank the configured pipeline uses, built once per
    config and read-only; None when the gammatone stream is ablated."""
    if cfg.no_gammatone:
        return None
    bank = build_gammatone_bank(cfg.analysis, cfg.n_gammatone, cfg.gammatone_lo_hz,
                                cfg.gammatone_hi_hz, cfg.gammatone_taps)
    for arr in (bank.center_freqs, bank.impulse_responses, bank.spectra):
        arr.setflags(write=False)
    return bank


def _tiles(f: int, t: int, cfg: RunConfig, dtype) -> list[tuple[int, int]]:
    """The plan's tiles of f frequency rows or bands, (lo, hi) ascending.

    Their count is the smallest multiple of the pool size that keeps each
    tile within ``_TILE_BYTES``, or within ``_TILE_MIN_ROWS`` rows where
    that budget holds fewer, capped at f, and their sizes differ by at most
    one row, so every worker gets an equal share of every pass."""
    rows = max(_TILE_MIN_ROWS, _TILE_BYTES // (cfg.channels * t * np.dtype(dtype).itemsize))
    need, pool = -(-f // rows), workers.size()
    n = min(f, -(-need // pool) * pool)
    size, extra = divmod(f, n)
    bounds = [i * size + min(i, extra) for i in range(n + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def _encode(w, y, tiles, model, cfg, bank, dtype, stages):
    """Pass A: the whole fused encoding z_att (C, F, T) and the SE excitation (C,)."""
    enc = model.encoder
    f, t = y.bins.shape[1:]
    if cfg.no_gammatone:
        z_att = np.empty((cfg.channels, f, t), dtype)
    else:
        # z_gamma, which fuse turns into z_att in place, tile by tile
        g = gammatone_frames(w, bank or gammatone_bank(cfg), cfg.analysis).astype(dtype)
        z_att = encode_gamma(g, enc, _tiles(cfg.n_gammatone, t, cfg, dtype))
        if stages is not None:
            stages["z_gamma"] = z_att.copy()
    bins = y.bins.astype(dtype)
    if stages is not None:
        stages["z_stft"] = np.empty_like(z_att)     # each tile writes its own rows
    row_sums = np.empty((cfg.channels, f))      # the SE squeeze's sums, per row

    def encode_tile(tile):
        lo, hi = tile
        z_stft = encode_stft(bins[:, lo:hi], enc)
        rows = z_att[:, lo:hi]
        fuse(z_stft, None if cfg.no_gammatone else rows, enc, out=rows)
        if stages is not None:
            stages["z_stft"][:, lo:hi] = z_stft
        row_sums[:, lo:hi] = np.abs(rows).sum(axis=2)

    workers.map(encode_tile, tiles)
    excitation = cse_excitation(row_sums.sum(axis=1) / (f * t), enc.se)
    if stages is not None:
        stages["z_attended"] = z_att.copy()
        # an elementwise scale, so the same values as pass B's tiles
        stages["z_backbone"] = recalibrate(z_att, enc, excitation)
    return z_att, excitation


def _decode(z_att, excitation, y, tiles, model, cfg, gate_override, stages):
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

    def modulate_tile(tile):
        lo, hi = tile
        rows = z_att[:, lo:hi]
        z = recalibrate(rows, enc, excitation)
        if cfg.no_gafm:
            rows[...] = z
        else:
            modulator_block(z, model.modulator, out=rows)
        if net_gate:
            g[lo:hi] = refinement_gate(rows, dec)

    workers.map(modulate_tile, tiles)
    z_out = z_att                   # every row of it now overwritten
    ratfs = decode_heads(z_out, dec, tiles)
    s_hat = ratf_solve(y, ratfs, eps=cfg.eps_ratf)
    s_final = blend(s_hat, y, g)
    if stages is not None:
        stages.update(z_out=z_out, ratf_s=ratfs.w_s, ratf_n=ratfs.w_n, s_hat=s_hat.bins,
                      gate=g, s_final=s_final.bins, noisy_spec=y.bins)
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
    if np.dtype(dtype).kind != "c":
        raise ValueError(f"dtype must be complex, got {np.dtype(dtype)}")
    with workers.plan():
        n_in = wav_in.n_samples
        w = pad_to_frame_grid(wav_in, cfg)
        y = stft(w, cfg.analysis)
        stages = {} if collect_stages else None
        tiles = _tiles(*y.bins.shape[1:], cfg, dtype)
        z_att, excitation = _encode(w, y, tiles, model, cfg, bank, dtype, stages)
        ratfs, g, s_final = _decode(z_att, excitation, y, tiles, model, cfg, gate_override, stages)
        # checked here, as istft's Waveform rejects non-finite samples as bad input
        if not np.all(np.isfinite(s_final.bins)):
            raise InvariantViolation("non-finite values in the enhanced spectrum")
        samples = istft(s_final).samples[:, :n_in]
        return EnhanceResult(
            wav_out=Waveform(samples, wav_in.sample_rate),
            gate=g,
            ratfs=ratfs,
            stages=stages or {},
        )
