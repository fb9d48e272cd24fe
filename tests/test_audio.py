import struct
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from binse.audio import Waveform, read_mono, read_stereo, read_wav, write_wav
from binse.config import AnalysisConfig, RunConfig, config_from_dict
from binse.errors import UnsupportedFormat
from conftest import small_config

SR = 16000


class TestWaveform:
    def test_requires_two_channels(self):
        with pytest.raises(ValueError):
            Waveform(np.zeros(100), SR)
        with pytest.raises(ValueError):
            Waveform(np.zeros((3, 100)), SR)

    def test_rejects_non_finite(self):
        x = np.zeros((2, 10))
        x[0, 3] = np.nan
        with pytest.raises(ValueError):
            Waveform(x, SR)

    @pytest.mark.parametrize("rate", [0, -5, 16000.5, True], ids=["0", "-5", "16000.5", "True"])
    def test_rejects_a_rate_that_is_not_a_positive_integer(self, rate):
        with pytest.raises(ValueError, match=f"sample rate of at least 1 Hz, got {rate!r}"):
            Waveform(np.zeros((2, 10)), rate)

    @pytest.mark.parametrize("rate", [1, np.int64(SR), np.uint16(8000)])
    def test_accepts_a_positive_integer_rate(self, rate):
        assert Waveform(np.zeros((2, 10)), rate).sample_rate == rate

    def test_properties(self):
        w = Waveform(np.zeros((2, 8000)), SR)
        assert w.n_samples == 8000
        assert w.duration_s == 0.5


class TestWavIo:
    def test_float32_round_trip_is_exact(self, tmp_path, rng):
        x = (0.3 * rng.standard_normal((2, 500))).astype(np.float32).astype(np.float64)
        path = tmp_path / "f.wav"
        write_wav(path, x, SR)
        np.testing.assert_array_equal(read_wav(path, SR), x)

    def test_pcm16_file_reads_scaled_by_two_to_the_fifteen(self, tmp_path, rng):
        x = rng.integers(-32768, 32767, (500, 2), endpoint=True).astype(np.int16)
        path = tmp_path / "p.wav"
        wavfile.write(path, SR, x)
        np.testing.assert_array_equal(read_wav(path, SR), x.T / 32768.0)

    def test_mono_round_trip(self, tmp_path, rng):
        x = (0.1 * rng.standard_normal(300)).astype(np.float32).astype(np.float64)
        path = tmp_path / "m.wav"
        write_wav(path, x, SR)
        np.testing.assert_array_equal(read_mono(path, SR), x)

    def test_rate_check(self, tmp_path, rng):
        path = tmp_path / "r.wav"
        write_wav(path, rng.standard_normal((2, 100)) * 0.1, 8000)
        with pytest.raises(UnsupportedFormat):
            read_stereo(path, expected_rate=SR)

    def test_channel_count_checks(self, tmp_path, rng):
        mono = tmp_path / "mono.wav"
        write_wav(mono, rng.standard_normal(100) * 0.1, SR)
        with pytest.raises(UnsupportedFormat):
            read_stereo(mono, SR)
        stereo = tmp_path / "st.wav"
        write_wav(stereo, rng.standard_normal((2, 100)) * 0.1, SR)
        with pytest.raises(UnsupportedFormat):
            read_mono(stereo, SR)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "g.wav"
        path.write_bytes(b"not a wav at all")
        with pytest.raises(UnsupportedFormat):
            read_wav(path, SR)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("channels", [1, 2], ids=["mono_source", "stereo_input"])
    def test_non_finite_float_payload_rejected(self, tmp_path, value, channels):
        x = np.zeros((100, channels), dtype=np.float32)
        x[37, channels - 1] = value
        path = tmp_path / "bad.wav"
        wavfile.write(path, SR, x[:, 0] if channels == 1 else x)
        read = read_mono if channels == 1 else read_stereo
        with pytest.raises(UnsupportedFormat, match=f"{path}: non-finite samples"):
            read(path, SR)

    @pytest.mark.parametrize("shape", [(), (2, 10, 2), (0, 10), (1 << 16, 1)],
                             ids=["scalar", "3d", "no_channels", "too_many_channels"])
    def test_write_rejects_other_shapes(self, tmp_path, shape):
        path = tmp_path / "x.wav"
        with pytest.raises(ValueError, match="expected \\(n,\\) or \\(channels, n\\)"):
            write_wav(path, np.zeros(shape), SR)
        assert not path.exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e39],
                             ids=["nan", "inf", "-inf", "beyond_float32"])
    def test_write_rejects_samples_not_finite_in_float32(self, tmp_path, value):
        x = np.zeros((2, 10))
        x[1, 4] = value
        path = tmp_path / "x.wav"
        with pytest.raises(ValueError, match="not finite"):
            write_wav(path, x, SR)
        assert not path.exists()

    @pytest.mark.parametrize("rate", [0, -1, 1 << 29, 1 << 32, 16000.0, True],
                             ids=["0", "-1", "2**29", "2**32", "float", "bool"])
    def test_write_rejects_a_rate_its_header_cannot_hold(self, tmp_path, rate):
        """A stereo float-32 frame is 8 bytes, so the u32 byte rate caps the
        rate at 2**29 - 1; the error comes before the file is opened."""
        path = tmp_path / "x.wav"
        with pytest.raises(ValueError, match=f"sample rate {rate!r}: .* 1 to 536870911 Hz"):
            write_wav(path, np.zeros((2, 10)), rate)
        assert not path.exists()

    @pytest.mark.parametrize("channels, rate", [(2, (1 << 29) - 1), (1, (1 << 30) - 1),
                                                (2, np.uint16(8000)), (2, 1)])
    def test_write_takes_every_rate_its_header_holds(self, tmp_path, channels, rate):
        x = np.ones((channels, 10)) * 0.5
        path = tmp_path / "x.wav"
        write_wav(path, x, rate)
        np.testing.assert_array_equal(read_wav(path, int(rate)), x)


def _chunk(chunk_id: bytes, body: bytes, order: str = "<") -> bytes:
    pad = b"\x00" if len(body) % 2 else b""
    return chunk_id + struct.pack(order + "I", len(body)) + body + pad


def _fmt(tag: int, channels: int, bits: int, order: str = "<",
         extensible: bool = False) -> bytes:
    align = channels * bits // 8
    body = struct.pack(order + "HHIIHH", 0xFFFE if extensible else tag, channels,
                       SR, SR * align, align, bits)
    if extensible:
        # KSDATAFORMAT_SUBTYPE GUID {tag-0000-0010-8000-00AA00389B71}
        guid = (struct.pack(order + "IHH", tag, 0x0000, 0x0010)
                + b"\x80\x00\x00\xaa\x00\x38\x9b\x71")
        body += struct.pack(order + "HHI", 22, bits, 0) + guid
    return _chunk(b"fmt ", body, order)


def _riff(*chunks: bytes, order: str = "<") -> bytes:
    body = b"WAVE" + b"".join(chunks)
    return (b"RIFF" if order == "<" else b"RIFX") + struct.pack(order + "I", len(body)) + body


def _samples(dtype: str, channels: int, n: int = 37) -> np.ndarray:
    rng = np.random.default_rng(n)
    if np.dtype(dtype).kind == "f":
        return (0.3 * rng.standard_normal((n, channels))).astype(dtype)
    info = np.iinfo(dtype)
    return rng.integers(info.min, info.max, (n, channels), endpoint=True).astype(dtype)


def _scipy_read(path) -> tuple[np.ndarray, int]:
    """The oracle: scipy's reader, scaled and shaped as read_wav returns."""
    rate, data = wavfile.read(path)
    x = data.astype(np.float64) / (32768.0 if data.dtype.kind == "i" else 1.0)
    return (x if x.ndim == 2 else x[:, np.newaxis]).T, rate


class TestWavCodec:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(0, 3000), channels=st.sampled_from([1, 2]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_write_is_byte_identical_to_scipy_and_reads_back(self, tmp_path_factory, n,
                                                             channels, seed):
        tmp = tmp_path_factory.mktemp("codec")
        x = 0.4 * np.random.default_rng(seed).standard_normal((channels, n))
        if channels == 1:
            x = x[0]
        ours, theirs = tmp / "ours.wav", tmp / "scipy.wav"
        write_wav(ours, x, SR)
        wavfile.write(theirs, SR, x.T.astype(np.float32))
        assert ours.read_bytes() == theirs.read_bytes()
        y = read_wav(ours, SR)
        expected, expected_rate = _scipy_read(theirs)
        assert expected_rate == SR
        assert y.shape == (channels, n)
        np.testing.assert_array_equal(y, expected)

    @pytest.mark.filterwarnings("ignore:Chunk .* not understood")
    @pytest.mark.parametrize("case", [
        "extensible_pcm16", "extensible_float32", "list_before_data",
        "odd_chunk_with_pad", "rifx_pcm16", "rifx_float32",
    ])
    def test_hand_built_file_reads_as_scipy_does(self, tmp_path, case):
        order = ">" if case.startswith("rifx") else "<"
        dtype = "f4" if case.endswith("float32") else "i2"
        tag = 3 if dtype == "f4" else 1
        data = _samples(order + dtype, 2)
        chunks = [_fmt(tag, 2, 8 * data.itemsize, order, case.startswith("extensible"))]
        if case == "list_before_data":
            chunks.append(_chunk(b"LIST", b"INFOISFT" + struct.pack("<I", 6) + b"binse\x00"))
        if case == "odd_chunk_with_pad":
            chunks.append(_chunk(b"junk", b"abc"))
        chunks.append(_chunk(b"data", data.tobytes(), order))
        path = tmp_path / f"{case}.wav"
        path.write_bytes(_riff(*chunks, order=order))
        y = read_wav(path, SR)
        expected, expected_rate = _scipy_read(path)
        assert expected_rate == SR
        assert y.shape == (2, 37)
        np.testing.assert_array_equal(y, expected)

    @pytest.mark.parametrize("tag, dtype", [(1, "u1"), (1, "V3"), (1, "i4"), (3, "f8")],
                             ids=["pcm8", "pcm24", "pcm32", "float64"])
    def test_other_sample_formats_rejected(self, tmp_path, tag, dtype):
        width = np.dtype(dtype).itemsize
        path = tmp_path / "x.wav"
        path.write_bytes(_riff(_fmt(tag, 2, 8 * width), _chunk(b"data", bytes(40 * width))))
        with pytest.raises(UnsupportedFormat, match="PCM-16 or float-32 only"):
            read_wav(path, SR)

    def test_rf64_rejected(self, tmp_path):
        data = _samples("<i2", 2).tobytes()
        ds64 = _chunk(b"ds64", struct.pack("<QQQI", 0, len(data), 37, 0))
        body = b"WAVE" + ds64 + _fmt(1, 2, 16) + b"data" + b"\xff" * 4 + data
        path = tmp_path / "x.wav"
        path.write_bytes(b"RF64" + b"\xff" * 4 + body)
        with pytest.raises(UnsupportedFormat, match="RF64"):
            read_wav(path, SR)

    @pytest.mark.parametrize("layout, missing", [
        ("data", "fmt"), ("data,fmt", "fmt"), ("fmt,LIST", "data")],
        ids=["no_fmt", "fmt_after_data", "no_data"])
    def test_missing_chunk_rejected(self, tmp_path, layout, missing):
        chunks = {"fmt": _fmt(1, 2, 16), "LIST": _chunk(b"LIST", b""),
                  "data": _chunk(b"data", _samples("<i2", 2).tobytes())}
        path = tmp_path / "x.wav"
        path.write_bytes(_riff(*(chunks[c] for c in layout.split(","))))
        with pytest.raises(UnsupportedFormat, match=f"no {missing} chunk"):
            read_wav(path, SR)


class TestConfig:
    def test_analysis_defaults(self):
        a = AnalysisConfig()
        assert (a.sample_rate, a.fft_size, a.hop) == (16000, 256, 128)
        assert a.n_freq_bins == 129

    def test_run_defaults(self):
        cfg = RunConfig()
        assert cfg.channels == 80
        assert cfg.n_basis == 9
        assert cfg.n_gammatone == 64
        assert (cfg.gammatone_lo_hz, cfg.gammatone_hi_hz) == (50.0, 7800.0)
        # the model constants, read the same way as keys
        assert (cfg.kernel_time, cfg.kernel_2d) == (5, (3, 3))
        assert cfg.eps_ratf == 1e-8

    @pytest.mark.parametrize("cfg, fingerprint", [
        (RunConfig(), "1221878544dc13854bde456be391865e2b00959f90b9244888618eb14054a40f"),
        (small_config(), "c0c86011ef1a3ae5a8b8cf82eb391b65c0c9c73e53c844957024cd2bbb64e775"),
        (small_config(channels=16),
         "98b1ce874d089140b953d088448b43c45827f24a96c7b1ea6e4011775826939a"),
    ], ids=["default", "small", "small-16"])
    def test_arch_dict_and_fingerprint_are_pinned(self, cfg, fingerprint):
        """Saved weights carry the fingerprint, so neither may move; the
        model constants and the MLP width stay in the hashed dict."""
        c = cfg.channels
        assert cfg.arch_dict() == {
            "sample_rate": 16000, "fft_size": 256, "hop": 128, "n_freq_bins": 129,
            "channels": c, "n_encoder_blocks": 2, "n_decoder_blocks": 2,
            "n_basis": cfg.n_basis, "n_gammatone": cfg.n_gammatone, "kernel_time": 5,
            "kernel_2d": [3, 3], "se_reduction": 4, "mlp_hidden": c,
        }
        assert cfg.fingerprint() == fingerprint

    def test_fingerprint_is_stable_and_structural(self):
        assert RunConfig().fingerprint() == RunConfig().fingerprint()
        assert RunConfig().fingerprint() != RunConfig(channels=64).fingerprint()
        assert len(RunConfig().fingerprint()) == 64

    def test_config_from_dict_round_trip(self):
        cfg = config_from_dict({"channels": 24, "n_basis": 7})
        assert cfg.channels == 24 and cfg.n_basis == 7
        with pytest.raises((TypeError, ValueError)):
            config_from_dict({"not_a_field": 1})

    def test_settable_keys_are_pinned(self):
        # every knob a --config file can set; a new one must be added here too
        run = {f.name for f in fields(RunConfig)} - {"analysis"}
        analysis = {f.name for f in fields(AnalysisConfig)}
        assert analysis == {"sample_rate", "fft_size", "hop"}
        assert run == {
            "channels", "n_encoder_blocks", "n_decoder_blocks", "n_basis",
            "n_gammatone", "gammatone_lo_hz", "gammatone_hi_hz", "gammatone_taps",
            "se_reduction", "no_gammatone", "no_gafm", "no_drg", "global_drg",
        }
        assert len(run) + len(analysis) == 16

    def test_frozen_analysis(self):
        a = AnalysisConfig()
        with pytest.raises(Exception):
            a.hop = 64
