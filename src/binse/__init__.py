"""Binaural speech enhancement: complex-valued inference engine, dataset
synthesis, binaural-cue metrics, and complexity profiling."""

from .audio import Waveform, read_stereo, read_mono, read_wav, write_wav
from .config import AnalysisConfig, RunConfig, config_from_dict
from .frontend import (
    GammatoneBank,
    Spectrogram,
    build_gammatone_bank,
    frame_count,
    gammatone_frames,
    istft,
    stft,
)
from .params import ModelParams, init_random, load_weights, save_weights
from .pipeline import EnhanceResult, enhance

__all__ = [
    "AnalysisConfig",
    "EnhanceResult",
    "GammatoneBank",
    "ModelParams",
    "RunConfig",
    "Spectrogram",
    "Waveform",
    "build_gammatone_bank",
    "config_from_dict",
    "enhance",
    "frame_count",
    "gammatone_frames",
    "init_random",
    "istft",
    "load_weights",
    "read_mono",
    "read_stereo",
    "read_wav",
    "save_weights",
    "stft",
    "write_wav",
]

__version__ = "0.1.0"
