"""Every reader is total: any bytes give a value or the one documented error.

Byte mutations (overwrites, deletions, insertions, truncations) of small valid
seed files are fed to each reader. A reader may return a value or raise the
``BinseError`` subclass whose exit code the README states; any other
exception, and any warning (pytest turns warnings into errors), fails.
"""

import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from binse.audio import read_wav
from binse.cli import main
from binse.errors import ConfigMismatch, FormatError, UnsupportedFormat
from binse.params import init_random, load_arrays, load_weights, save_arrays, save_weights
from conftest import small_config
from test_audio import SR, _chunk, _fmt, _riff
from test_params_io import one_tensor_header

CFG = small_config()


def file_bytes(write) -> bytes:
    """The bytes write(path) leaves at a fresh path."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "seed"
        write(path)
        return path.read_bytes()


SEED_TENSORS = file_bytes(lambda p: save_arrays(p, {
    "spec": np.arange(6, dtype=np.complex64).reshape(2, 3),
    "gate": np.linspace(0, 1, 4, dtype=np.float32)}, "seed"))
SEED_WEIGHTS = file_bytes(lambda p: save_weights(init_random(CFG, seed=0), p))
SEED_WAV = _riff(_fmt(0x0003, 2, 32),
                 _chunk(b"data", np.linspace(-0.5, 0.5, 8, dtype="<f4").tobytes()))

# the tag "seed" starts at byte 10, the first name "spec" at byte 20
NON_ASCII_TAG = SEED_TENSORS[:11] + b"\xe9" + SEED_TENSORS[12:]
NON_UTF8_NAME = SEED_TENSORS[:20] + b"\xff" + SEED_TENSORS[21:]
# a zero dimension makes the count 0, beside dimensions too big for numpy
ZERO_BESIDE_HUGE = one_tensor_header((0, 2**32 - 1, 2**32 - 1))
OVER_64_DIMS = one_tensor_header((1,) * 65) + b"\0" * 4
NAN_SAMPLE = SEED_WAV[:-4] + struct.pack("<I", 0x7FA00000)      # a signalling NaN


@st.composite
def mutated(draw, seed: bytes) -> bytes:
    blob = bytearray(seed)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(blob)))
        chunk = draw(st.binary(min_size=1, max_size=8))
        kind = draw(st.sampled_from(["overwrite", "delete", "insert", "truncate"]))
        if kind == "overwrite":
            blob[at:at + len(chunk)] = chunk
        elif kind == "delete":
            del blob[at:at + len(chunk)]
        elif kind == "insert":
            blob[at:at] = chunk
        else:
            del blob[at:]
    return bytes(blob)


def value_or(errors, read, blob: bytes) -> None:
    """read(path) of a file holding blob returns, or raises one of errors."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file"
        path.write_bytes(blob)
        try:
            read(path)
        except errors:
            pass


@settings(max_examples=300, deadline=None)
@given(blob=mutated(SEED_TENSORS))
@example(blob=NON_ASCII_TAG)
@example(blob=NON_UTF8_NAME)
@example(blob=ZERO_BESIDE_HUGE)
@example(blob=OVER_64_DIMS)
def test_tensor_file_reader_is_total(blob):
    value_or(FormatError, load_arrays, blob)


@settings(max_examples=200, deadline=None)
@given(blob=mutated(SEED_WEIGHTS))
@example(blob=SEED_WEIGHTS[:11] + b"\x80" + SEED_WEIGHTS[12:])
def test_weights_reader_is_total(blob):
    value_or((FormatError, ConfigMismatch), lambda path: load_weights(path, CFG), blob)


@settings(max_examples=300, deadline=None)
@given(blob=mutated(SEED_WAV))
@example(blob=NAN_SAMPLE)
def test_wav_reader_is_total(blob):
    value_or(UnsupportedFormat, lambda path: read_wav(path, SR), blob)


@pytest.mark.parametrize("command, blob, code", [
    ("bench", NON_ASCII_TAG, 3),
    ("bench", ZERO_BESIDE_HUGE, 3),
    ("enhance", NAN_SAMPLE, 2),
], ids=["non_ascii_tag", "zero_beside_huge", "signalling_nan_sample"])
def test_cli_exits_with_the_documented_code(tmp_path, capsys, command, blob, code):
    """A weights-format error exits 3 and an unreadable WAV 2, as the README
    states, whatever exception the reader's failure began as."""
    path = tmp_path / "file"
    path.write_bytes(blob)
    if command == "bench":
        argv = ["bench", "--model", str(path)]
    else:
        argv = ["enhance", "--input", str(path), "--output", str(tmp_path / "out.wav")]
    assert main(argv) == code
    assert capsys.readouterr().err.startswith("error: ")
