import hashlib
import struct
import tracemalloc
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from binse.audio import Waveform
from binse.config import RunConfig
from binse.errors import ConfigMismatch, FormatError
from binse.params import (
    init_random,
    load_arrays,
    load_weights,
    save_arrays,
    save_weights,
)
from binse.pipeline import enhance
from conftest import small_config

# sha256 of save_weights(init_random(RunConfig(), seed=0)): the seeded default
# weights, byte for byte
DEFAULT_SEED0_SHA256 = "4b17f4528738b06fa2e77fac04e1b4f852751ee8a32fac31978ebcc4440dd712"


def one_tensor_header(dims, size=0) -> bytes:
    """A tensor file whose one real tensor "x" declares dims but holds no
    payload, zero-padded to size bytes."""
    head = (b"BSE1" + struct.pack("<IH", 1, 3) + b"tag" + struct.pack("<IH", 1, 1) + b"x"
            + struct.pack(f"<BB{len(dims)}I", 0, len(dims), *dims))
    return head.ljust(size, b"\0")


def traced_peak(fn):
    """(fn(), the peak bytes traced while it ran)."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _arrays(obj):
    """Every array held by a parameter dataclass, its lists and sub-dataclasses."""
    if is_dataclass(obj):
        for f in fields(obj):
            yield from _arrays(getattr(obj, f.name))
    elif isinstance(obj, list):
        for item in obj:
            yield from _arrays(item)
    elif isinstance(obj, (np.ndarray, np.generic)):
        yield obj


class TestInitRandom:
    def test_deterministic_in_seed(self):
        cfg = small_config()
        a = init_random(cfg, seed=7)
        b = init_random(cfg, seed=7)
        assert a.tensors.keys() == b.tensors.keys()
        for name in a.tensors:
            np.testing.assert_array_equal(a.tensors[name], b.tensors[name])

    def test_different_seeds_differ(self):
        cfg = small_config()
        a = init_random(cfg, seed=1)
        b = init_random(cfg, seed=2)
        assert np.any(a.tensors["modulator.proj.weight"] != b.tensors["modulator.proj.weight"])

    def test_storage_dtypes_are_single_precision(self):
        model = init_random(small_config(), seed=0)
        for name, arr in model.tensors.items():
            assert arr.dtype in (np.float32, np.complex64), name

    def test_complex_weight_scale_matches_fan_in(self):
        # RMS magnitude of a complex weight should approximate fan_in^{-1/2}
        cfg = small_config(channels=64)
        model = init_random(cfg, seed=0)
        w = model.tensors["modulator.proj.weight"]   # (64, 64), fan_in 64
        rms = np.sqrt(np.mean(np.abs(w) ** 2))
        assert rms == pytest.approx(1.0 / np.sqrt(64), rel=0.05)

    def test_biases_zero_norms_identity(self):
        model = init_random(small_config(), seed=3)
        assert np.all(model.tensors["modulator.proj.bias"] == 0)
        assert np.all(model.tensors["modulator.norm.gamma"] == 1)
        assert np.all(model.tensors["modulator.norm.beta"] == 0)
        assert float(model.tensors["modulator.tau"]) == 1.0
        assert float(model.tensors["modulator.mlp.prelu"]) == 0.25

    def test_fingerprint_tracks_architecture(self):
        a = init_random(small_config(), seed=0)
        b = init_random(small_config(channels=16), seed=0)
        assert a.fingerprint != b.fingerprint
        assert a.fingerprint == small_config().fingerprint()

    def test_tensor_directory_covers_every_parameter(self, tmp_path):
        cfg = small_config()
        seeded = init_random(cfg, seed=0)
        save_weights(seeded, tmp_path / "w.bin")
        for model in (seeded, load_weights(tmp_path / "w.bin", cfg)):
            # spot-check that directory entries alias the live parameter arrays
            assert model.tensors["encoder.gamma_proj"] is model.encoder.gamma_proj
            assert model.tensors["decoder.drg_global"] is model.decoder.drg_global
            assert (
                model.tensors["encoder.stft.0.depthwise"]
                is model.encoder.stft_blocks[0].depthwise
            )
            # and that the directory is exactly the tree's arrays, scalars included
            assert all(type(a) is np.ndarray for a in model.tensors.values())
            leaves = [a for part in (model.encoder, model.modulator, model.decoder)
                      for a in _arrays(part)]
            assert len(leaves) == len(model.tensors)
            assert {id(a) for a in leaves} == {id(a) for a in model.tensors.values()}


class TestWeightsRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path):
        cfg = small_config()
        model = init_random(cfg, seed=11)
        path = tmp_path / "w.bin"
        save_weights(model, path)
        loaded = load_weights(path, cfg)
        assert loaded.tensors.keys() == model.tensors.keys()
        for name in model.tensors:
            a, b = model.tensors[name], loaded.tensors[name]
            assert a.dtype == b.dtype, name
            np.testing.assert_array_equal(a, b, err_msg=name)

    def test_round_trip_preserves_fingerprint(self, tmp_path):
        cfg = small_config()
        model = init_random(cfg, seed=0)
        path = tmp_path / "w.bin"
        save_weights(model, path)
        assert load_weights(path, cfg).fingerprint == model.fingerprint

    def test_config_mismatch_rejected(self, tmp_path):
        cfg = small_config()
        path = tmp_path / "w.bin"
        save_weights(init_random(cfg, seed=0), path)
        with pytest.raises(ConfigMismatch):
            load_weights(path, small_config(channels=16))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(FormatError):
            load_weights(path, small_config())

    def test_bad_version_rejected(self, tmp_path):
        cfg = small_config()
        path = tmp_path / "w.bin"
        save_weights(init_random(cfg, seed=0), path)
        data = bytearray(path.read_bytes())
        data[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            load_weights(path, cfg)

    def test_truncated_file_reports_offset(self, tmp_path):
        cfg = small_config()
        path = tmp_path / "w.bin"
        save_weights(init_random(cfg, seed=0), path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(FormatError, match="offset"):
            load_weights(path, cfg)

    def test_trailing_garbage_rejected(self, tmp_path):
        cfg = small_config()
        path = tmp_path / "w.bin"
        save_weights(init_random(cfg, seed=0), path)
        path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
        with pytest.raises(FormatError, match="trailing"):
            load_weights(path, cfg)

    def test_corrupt_payload_nan_rejected(self, tmp_path):
        cfg = small_config()
        path = tmp_path / "w.bin"
        save_weights(init_random(cfg, seed=0), path)
        data = bytearray(path.read_bytes())
        # overwrite the last 4 payload bytes with a NaN bit pattern
        data[-4:] = struct.pack("<f", float("nan"))
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="non-finite"):
            load_weights(path, cfg)

    def test_unused_extra_tensor_rejected(self, tmp_path):
        cfg = small_config()
        model = init_random(cfg, seed=0)
        extra = dict(model.tensors)
        extra["rogue.tensor"] = np.zeros(3, dtype=np.float32)
        path = tmp_path / "w.bin"
        save_arrays(path, extra, model.fingerprint)
        with pytest.raises(FormatError, match="unexpected"):
            load_weights(path, cfg)

    def test_shape_mismatch_inside_file_rejected(self, tmp_path):
        cfg = small_config()
        model = init_random(cfg, seed=0)
        bad = dict(model.tensors)
        bad["modulator.mlp.b1"] = np.zeros(
            bad["modulator.mlp.b1"].shape[0] + 1, dtype=np.float32
        )
        path = tmp_path / "w.bin"
        save_arrays(path, bad, model.fingerprint)
        with pytest.raises(FormatError):
            load_weights(path, cfg)

    def test_real_tensor_where_complex_expected_rejected(self, tmp_path):
        cfg = small_config()
        model = init_random(cfg, seed=0)
        bad = dict(model.tensors)
        bad["modulator.proj.weight"] = bad["modulator.proj.weight"].real.copy()
        path = tmp_path / "w.bin"
        save_arrays(path, bad, model.fingerprint)
        with pytest.raises(FormatError, match="tensor 'modulator.proj.weight': "
                                              "stored float32.*expected complex64"):
            load_weights(path, cfg)

    def test_missing_tensor_rejected(self, tmp_path):
        cfg = small_config()
        model = init_random(cfg, seed=0)
        partial = dict(model.tensors)
        del partial["decoder.drg.bias"]
        path = tmp_path / "w.bin"
        save_arrays(path, partial, model.fingerprint)
        with pytest.raises(FormatError, match="missing tensor 'decoder.drg.bias'"):
            load_weights(path, cfg)

    def test_unknown_kind_byte_rejected(self, tmp_path):
        path = tmp_path / "dump.bin"
        save_arrays(path, {"x": np.ones(2, dtype=np.float32)}, "dump")
        data = bytearray(path.read_bytes())
        kind_at = data.index(b"\x01\x00x") + 3        # after the name "x"
        assert data[kind_at] == 0
        data[kind_at] = 7
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="unknown tensor kind 7"):
            load_arrays(path)

    def test_duplicate_tensor_name_rejected(self, tmp_path):
        path = tmp_path / "dump.bin"
        save_arrays(path, {"a": np.ones(2, np.float32), "b": np.zeros(2, np.float32)}, "tag")
        data = bytearray(path.read_bytes())
        name_at = data.index(b"\x01\x00b") + 2       # the second name, "b"
        data[name_at] = ord("a")
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="duplicate tensor name 'a'"):
            load_arrays(path)

    def test_default_seed0_weights_bytes_are_pinned(self, tmp_path):
        cfg = RunConfig()
        path, again = tmp_path / "w.bin", tmp_path / "w2.bin"
        save_weights(init_random(cfg, seed=0), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == DEFAULT_SEED0_SHA256
        save_weights(load_weights(path, cfg), again)
        assert again.read_bytes() == path.read_bytes()


class TestWeightsFromTheFile:
    def test_every_tensor_of_a_seeded_or_loaded_tree_is_read_only(self, tmp_path):
        cfg = small_config()
        seeded = init_random(cfg, seed=0)
        save_weights(seeded, tmp_path / "w.bin")
        for model in (seeded, load_weights(tmp_path / "w.bin", cfg)):
            for name, arr in model.tensors.items():
                with pytest.raises(ValueError, match="read-only"):
                    arr[...] = 0

    def test_stage_dumps_load_writable(self, tmp_path):
        save_arrays(tmp_path / "dump.bin", {"x": np.ones(3, np.float32)}, "dump")
        _, arrays = load_arrays(tmp_path / "dump.bin")
        assert arrays["x"].flags.writeable

    def test_load_draws_nothing(self, tmp_path, monkeypatch):
        cfg = RunConfig()
        path = tmp_path / "w.bin"
        seeded = init_random(cfg, seed=0)
        save_weights(seeded, path)

        def refuse(*args, **kwargs):
            raise AssertionError("loading drew a random generator")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        loaded = load_weights(path, cfg)
        for name, arr in seeded.tensors.items():
            np.testing.assert_array_equal(loaded.tensors[name], arr, err_msg=name)

    def test_load_holds_each_weight_once(self, tmp_path):
        """The default tree is 0.51 MB, and loading it peaks at 0.54 MB: the
        file's arrays are the tree."""
        cfg = RunConfig()
        path = tmp_path / "w.bin"
        save_weights(init_random(cfg, seed=0), path)
        model, peak = traced_peak(lambda: load_weights(path, cfg))
        assert peak <= 1.25 * sum(a.nbytes for a in model.tensors.values())


class TestArrayDumps:
    def test_round_trip_mixed_real_complex(self, tmp_path, rng):
        arrays = {
            "spec": (rng.standard_normal((2, 5, 7)) + 1j * rng.standard_normal((2, 5, 7))).astype(np.complex64),
            "gate": rng.random(9).astype(np.float32),
            "scalar": np.float32(3.5) * np.ones((), dtype=np.float32),
        }
        path = tmp_path / "dump.bin"
        save_arrays(path, arrays, tag="stages")
        tag, loaded = load_arrays(path)
        assert tag == "stages"
        assert loaded.keys() == arrays.keys()
        for name in arrays:
            np.testing.assert_array_equal(loaded[name], arrays[name], err_msg=name)
            assert loaded[name].dtype == arrays[name].dtype

    def test_largest_finite_complex_values_round_trip(self, tmp_path):
        big = np.float32(3e38)
        arrays = {"z": np.array([big + 1j * big, -big - 1j * big], dtype=np.complex64)}
        path = tmp_path / "dump.bin"
        save_arrays(path, arrays, "dump")
        _, loaded = load_arrays(path)
        np.testing.assert_array_equal(loaded["z"], arrays["z"])

    def test_non_finite_imaginary_part_rejected(self, tmp_path):
        path = tmp_path / "dump.bin"
        save_arrays(path, {"z": np.array([1.0 + 1j * np.inf], dtype=np.complex64)}, "dump")
        with pytest.raises(FormatError, match="non-finite"):
            load_arrays(path)

    def test_float64_input_is_stored_as_f32(self, tmp_path, rng):
        x = rng.standard_normal(100)
        path = tmp_path / "dump.bin"
        save_arrays(path, {"x": x}, "dump")
        _, loaded = load_arrays(path)
        np.testing.assert_array_equal(loaded["x"], x.astype(np.float32))

    def test_weights_file_readable_as_arrays(self, tmp_path):
        cfg = small_config()
        model = init_random(cfg, seed=0)
        path = tmp_path / "w.bin"
        save_weights(model, path)
        tag, tensors = load_arrays(path)
        assert tag == model.fingerprint
        assert tensors.keys() == model.tensors.keys()


class TestDeclaredSizes:
    @pytest.mark.parametrize("dims", [(2**32 - 1, 2**32 - 1), (2**31, 2**31), (1024, 1024)],
                             ids=["count_overflows_int64", "2_to_62_values", "4_MB"])
    def test_payload_beyond_the_file_is_truncation_before_allocation(self, tmp_path, dims):
        path = tmp_path / "bad.bin"
        path.write_bytes(one_tensor_header(dims, size=100))

        def load():
            with pytest.raises(FormatError, match="truncated file at offset 30 "):
                load_arrays(path)

        _, peak = traced_peak(load)
        assert peak < 1 << 20            # not even the 4 MB of (1024, 1024) is made

    def test_load_holds_each_tensor_once(self, tmp_path, rng):
        arrays = {f"t{i}": rng.standard_normal((64, 1024)).astype(np.float32)
                  for i in range(4)}
        arrays["z"] = (arrays["t0"] + 1j * arrays["t1"]).astype(np.complex64)
        path = tmp_path / "dump.bin"
        save_arrays(path, arrays, "dump")
        (_, loaded), peak = traced_peak(lambda: load_arrays(path))
        sizes = [a.nbytes for a in loaded.values()]
        assert peak <= sum(sizes) + max(sizes)

    def test_writing_a_stage_dump_makes_no_copy(self, tmp_path):
        cfg = RunConfig()
        noise = 0.1 * np.random.default_rng(0).standard_normal((2, 2 * 16000))
        stages = enhance(Waveform(noise, 16000), init_random(cfg, seed=0), cfg,
                         collect_stages=True).stages
        assert sum(a.nbytes for a in stages.values()) > 100e6
        _, peak = traced_peak(lambda: save_arrays(tmp_path / "dump.bin", stages, "stage-dump"))
        assert peak < 5e6
