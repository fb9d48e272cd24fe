import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

from binse import cli, pipeline, workers
from binse.audio import read_stereo, write_wav
from binse.cli import main
from binse.config import config_from_dict
from binse.errors import InvariantViolation
from binse.params import init_random, load_arrays
from test_params_io import one_tensor_header
from test_synth import write_corpus

SR = 16000

SMALL_CFG = {
    "channels": 8,
    "n_gammatone": 16,
    "gammatone_taps": 256,
    "n_basis": 5,
    "se_reduction": 4,
}


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CFG))
    return str(path)


@pytest.fixture
def input_wav(tmp_path, rng):
    path = tmp_path / "in.wav"
    write_wav(path, 0.2 * rng.standard_normal((2, 6000)), SR)
    return str(path)


class TestEnhanceCommand:
    def test_happy_path(self, tmp_path, cfg_file, input_wav, capsys):
        out = tmp_path / "out.wav"
        rc = main(["enhance", "--config", cfg_file, "--input", input_wav,
                   "--output", str(out)])
        assert rc == 0
        enhanced = read_stereo(out, SR)
        assert enhanced.samples.shape == (2, 6000)
        assert "wrote" in capsys.readouterr().out

    def test_stage_dump_is_readable(self, tmp_path, cfg_file, input_wav):
        out, dump = tmp_path / "out.wav", tmp_path / "stages.bin"
        rc = main(["enhance", "--config", cfg_file, "--input", input_wav,
                   "--output", str(out), "--dump", str(dump)])
        assert rc == 0
        tag, arrays = load_arrays(dump)
        assert tag == "stage-dump"
        assert {"noisy_spec", "z_out", "s_hat", "gate", "s_final"} <= set(arrays)

    def test_dump_does_not_change_the_output(self, tmp_path, cfg_file, input_wav,
                                             monkeypatch):
        monkeypatch.setattr(pipeline, "_TILE_BYTES", 1)      # one row per tile,
        monkeypatch.setattr(pipeline, "_TILE_MIN_ROWS", 1)   # below the plan's floor
        plain, dumped = tmp_path / "plain.wav", tmp_path / "dumped.wav"
        args = ["enhance", "--config", cfg_file, "--input", input_wav]
        assert main(args + ["--output", str(plain)]) == 0
        assert main(args + ["--output", str(dumped), "--dump", str(tmp_path / "s.bin")]) == 0
        assert dumped.read_bytes() == plain.read_bytes()

    def test_invariant_violation_in_a_worker_exits_4(self, tmp_path, cfg_file, input_wav,
                                                     monkeypatch, capsys):
        monkeypatch.setattr(pipeline, "_TILE_BYTES", 1)      # one row per tile,
        monkeypatch.setattr(pipeline, "_TILE_MIN_ROWS", 1)   # below the plan's floor

        def broken(z, p, out=None):
            raise InvariantViolation("non-finite modulator output")

        monkeypatch.setattr(pipeline, "modulator_block", broken)
        rc = main(["enhance", "--config", cfg_file, "--input", input_wav,
                   "--output", str(tmp_path / "out.wav")])
        assert rc == 4
        assert "non-finite modulator output" in capsys.readouterr().err

    def test_saved_model_reproduces_output(self, tmp_path, cfg_file, input_wav):
        out1, out2 = tmp_path / "o1.wav", tmp_path / "o2.wav"
        weights = tmp_path / "w.bin"
        assert main(["enhance", "--config", cfg_file, "--input", input_wav,
                     "--output", str(out1), "--save-model", str(weights)]) == 0
        assert main(["enhance", "--config", cfg_file, "--model", str(weights),
                     "--input", input_wav, "--output", str(out2)]) == 0
        a, b = read_stereo(out1, SR), read_stereo(out2, SR)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_missing_input_exits_2(self, tmp_path, cfg_file):
        rc = main(["enhance", "--config", cfg_file,
                   "--input", str(tmp_path / "nope.wav"),
                   "--output", str(tmp_path / "o.wav")])
        assert rc == 2

    @pytest.mark.parametrize("peak", [1e20, 1e30, 3e38])
    def test_overflowing_input_exits_4(self, tmp_path, cfg_file, rng, capsys, peak):
        # finite float-32 samples that overflow the complex64 network: a layer
        # norm's variance from 1e20, the spectrum itself at 3e38
        x = rng.standard_normal((2, 6000))
        path = tmp_path / "loud.wav"
        write_wav(path, peak * x / np.max(np.abs(x)), SR)
        with np.errstate(all="ignore"):
            rc = main(["enhance", "--config", cfg_file, "--input", str(path),
                       "--output", str(tmp_path / "o.wav")])
        assert rc == 4
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("peak", [1e20, 3e38])
    def test_overflowing_input_raises_no_numpy_warning(self, tmp_path, cfg_file, rng, capsys,
                                                       peak):
        """With the caller's default errstate, whose warnings pytest turns into
        errors, an overflow inside the network surfaces only as InvariantViolation."""
        x = rng.standard_normal((2, 6000))
        path = tmp_path / "loud.wav"
        write_wav(path, peak * x / np.max(np.abs(x)), SR)
        cfg = config_from_dict(SMALL_CFG)
        with pytest.raises(InvariantViolation, match="non-finite"):
            pipeline.enhance(read_stereo(path, SR), init_random(cfg, seed=0), cfg)
        rc = main(["enhance", "--config", cfg_file, "--input", str(path),
                   "--output", str(tmp_path / "o.wav")])
        assert rc == 4
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["empty", "fmt_prefix", "partial_frame", "whole_frames"])
    def test_truncated_wav_exits_2(self, tmp_path, cfg_file, input_wav, capsys, damage):
        wav = Path(input_wav).read_bytes()
        if damage == "empty":
            wav = b""
        elif damage == "fmt_prefix":
            wav = wav[:30]               # ends inside the 18-byte float fmt chunk
        elif damage == "whole_frames":
            wav = wav[:-800]             # 100 stereo frames short of the declared size
        else:
            # a data chunk two bytes short of a whole 8-byte stereo frame
            at = wav.index(b"data") + 4
            size = int.from_bytes(wav[at : at + 4], "little") - 2
            wav = (wav[:4] + (len(wav) - 10).to_bytes(4, "little") + wav[8:at]
                   + size.to_bytes(4, "little") + wav[at + 4 : -2])
        bad = tmp_path / "bad.wav"
        bad.write_bytes(wav)
        rc = main(["enhance", "--config", cfg_file, "--input", str(bad),
                   "--output", str(tmp_path / "o.wav")])
        assert rc == 2
        assert "cannot parse WAV" in capsys.readouterr().err

    def test_non_finite_input_exits_2(self, tmp_path, cfg_file, capsys):
        x = np.zeros((6000, 2), dtype=np.float32)
        x[100, 1] = np.nan
        bad = tmp_path / "nan.wav"
        wavfile.write(bad, SR, x)
        rc = main(["enhance", "--config", cfg_file, "--input", str(bad),
                   "--output", str(tmp_path / "o.wav")])
        assert rc == 2
        assert f"{bad}: non-finite samples" in capsys.readouterr().err
        assert not (tmp_path / "o.wav").exists()

    def test_corrupt_weights_exit_3(self, tmp_path, cfg_file, input_wav):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"JUNKJUNKJUNK")
        rc = main(["enhance", "--config", cfg_file, "--model", str(bad),
                   "--input", input_wav, "--output", str(tmp_path / "o.wav")])
        assert rc == 3

    def test_config_mismatch_exit_3(self, tmp_path, cfg_file, input_wav):
        weights = tmp_path / "w.bin"
        assert main(["enhance", "--config", cfg_file, "--input", input_wav,
                     "--output", str(tmp_path / "o.wav"),
                     "--save-model", str(weights)]) == 0
        other = tmp_path / "other.json"
        other.write_text(json.dumps(SMALL_CFG | {"channels": 16}))
        rc = main(["enhance", "--config", str(other), "--model", str(weights),
                   "--input", input_wav, "--output", str(tmp_path / "o2.wav")])
        assert rc == 3

    def test_unknown_ablation_flag_exits_2(self, tmp_path, cfg_file, input_wav):
        rc = main(["enhance", "--config", cfg_file, "--ablate", "bogus",
                   "--input", input_wav, "--output", str(tmp_path / "o.wav")])
        assert rc == 2

    def test_exclusive_gate_ablations_exit_2(self, tmp_path, cfg_file, input_wav, capsys):
        rc = main(["enhance", "--config", cfg_file, "--ablate", "no_drg",
                   "--ablate", "global_drg", "--input", input_wav,
                   "--output", str(tmp_path / "o.wav")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "no_drg" in err and "global_drg" in err
        assert not (tmp_path / "o.wav").exists()

    def test_ablation_flag_changes_the_output(self, tmp_path, cfg_file, input_wav):
        out1, out2 = tmp_path / "o1.wav", tmp_path / "o2.wav"
        assert main(["enhance", "--config", cfg_file, "--input", input_wav,
                     "--output", str(out1)]) == 0
        assert main(["enhance", "--config", cfg_file, "--ablate", "no_drg",
                     "--input", input_wav, "--output", str(out2)]) == 0
        a, b = read_stereo(out1, SR), read_stereo(out2, SR)
        assert np.max(np.abs(a.samples - b.samples)) > 1e-9


class TestSynthCommand:
    def test_renders_dataset(self, tmp_path, rng, capsys):
        _, manifest = write_corpus(tmp_path, rng, n_items=2)
        out = tmp_path / "data"
        rc = main(["synth", "--manifest", str(manifest), "--out", str(out)])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_ok"] == 2 and not summary["failures"]
        assert (out / "metadata.jsonl").exists()
        for i in range(2):
            for kind in ("clean", "noise", "mix"):
                assert (out / f"item{i:03d}_{kind}.wav").exists()

    def test_missing_manifest_exits_2(self, tmp_path):
        rc = main(["synth", "--manifest", str(tmp_path / "nope.jsonl"),
                   "--out", str(tmp_path / "d")])
        assert rc == 2

    @pytest.mark.parametrize("damage", ["not_an_object", "missing_key", "unknown_key",
                                        "zero_duration", "negative_duration", "nan_snr",
                                        "duplicate_id", "path_id"])
    def test_malformed_manifest_line_exits_2(self, tmp_path, rng, capsys, damage):
        _, manifest = write_corpus(tmp_path, rng, n_items=2)
        lines = manifest.read_text().splitlines()
        rec = json.loads(lines[1])
        if damage == "not_an_object":
            rec = [rec]
        elif damage == "missing_key":
            del rec["seed"]
        elif damage == "unknown_key":
            rec["gain_db"] = 3.0
        elif damage == "zero_duration":
            rec["duration_s"] = 0.0
        elif damage == "negative_duration":
            rec["duration_s"] = -0.5
        elif damage == "duplicate_id":
            rec["item_id"] = json.loads(lines[0])["item_id"]    # would overwrite its WAVs
        elif damage == "path_id":
            rec["item_id"] = "../x"                             # would write outside --out
        else:
            rec["snr_db"] = float("nan")
        manifest.write_text(lines[0] + "\n" + json.dumps(rec) + "\n")
        rc = main(["synth", "--manifest", str(manifest), "--out", str(tmp_path / "d")])
        assert rc == 2
        (err,) = capsys.readouterr().err.splitlines()
        assert f"{manifest}:2:" in err

    def test_partial_failure_exits_2(self, tmp_path, rng, capsys):
        specs, manifest = write_corpus(tmp_path, rng, n_items=2)
        lines = manifest.read_text().splitlines()
        rec = json.loads(lines[0])
        rec["speech"] = str(tmp_path / "missing.wav")
        manifest.write_text(json.dumps(rec) + "\n" + lines[1] + "\n")
        rc = main(["synth", "--manifest", str(manifest), "--out", str(tmp_path / "d")])
        assert rc == 2
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_ok"] == 1 and len(summary["failures"]) == 1


class TestMetricsCommand:
    @pytest.mark.parametrize("row", ['["item001"]', '{"snr_db": 0.0}', '{"item_id": "../x"}',
                                     '{"item_id": "item000"}'],
                             ids=["not_an_object", "no_item_id", "path_id", "repeated_id"])
    def test_malformed_metadata_row_exits_2(self, tmp_path, cfg_file, capsys, row):
        meta = tmp_path / "metadata.jsonl"
        meta.write_text('{"item_id": "item000"}\n' + row + "\n")
        rc = main(["metrics", "--config", cfg_file, "--dataset", str(tmp_path)])
        assert rc == 2
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith(f"error: {meta}:2:")

    def test_path_id_reads_and_writes_nothing_outside(self, tmp_path, rng, cfg_file, capsys):
        """A row naming ../item000 exits 2 before scoring: the item's files
        one directory up are not read and no enhanced file is written there."""
        _, manifest = write_corpus(tmp_path, rng, n_items=1, duration=0.5)
        data = tmp_path / "data"
        assert main(["synth", "--manifest", str(manifest), "--out", str(data)]) == 0
        dataset = data / "sub"
        dataset.mkdir()
        (dataset / "metadata.jsonl").write_text('{"item_id": "../item000"}\n')
        marker = tmp_path / "scored"
        scorer = tmp_path / "scorer.sh"
        scorer.write_text(f"#!/bin/sh\ntouch {marker}\necho 0.5\n")
        scorer.chmod(0o755)
        capsys.readouterr()
        rc = main(["metrics", "--config", cfg_file, "--dataset", str(dataset),
                   "--report", str(dataset / "report.jsonl"),
                   "--mbstoi-cmd", f"{scorer} {{ref}} {{est}}"])
        assert rc == 2
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith(f"error: {dataset / 'metadata.jsonl'}:1:")
        assert not marker.exists()
        assert not (data / "item000_enhanced.wav").exists()

    def test_jsonl_rows_with_expected_columns(self, tmp_path, rng, cfg_file):
        _, manifest = write_corpus(tmp_path, rng, n_items=2, duration=0.5)
        data = tmp_path / "data"
        assert main(["synth", "--manifest", str(manifest), "--out", str(data)]) == 0
        report = tmp_path / "report.jsonl"
        rc = main(["metrics", "--config", cfg_file, "--dataset", str(data),
                   "--report", str(report)])
        assert rc == 0
        rows = [json.loads(l) for l in report.read_text().splitlines()]
        assert len(rows) == 2
        expected = {
            "item_id", "snr_in", "snr_out", "stoi_surrogate", "ild_err",
            "ipd_err", "mbstoi", "delta_pesq", "gate_mean", "gate_min", "gate_max",
        }
        for row in rows:
            assert set(row) == expected
            assert np.isfinite(row["snr_in"]) and np.isfinite(row["snr_out"])
            assert 0.0 < row["gate_min"] <= row["gate_mean"] <= row["gate_max"] < 1.0
            assert row["mbstoi"] is None and row["delta_pesq"] is None

    def test_external_scorer_hook(self, tmp_path, rng, cfg_file):
        _, manifest = write_corpus(tmp_path, rng, n_items=1, duration=0.5)
        data = tmp_path / "data"
        assert main(["synth", "--manifest", str(manifest), "--out", str(data)]) == 0
        scorer = tmp_path / "scorer.sh"
        scorer.write_text("#!/bin/sh\necho 0.875\n")
        scorer.chmod(0o755)
        report = tmp_path / "report.jsonl"
        rc = main(["metrics", "--config", cfg_file, "--dataset", str(data),
                   "--report", str(report),
                   "--mbstoi-cmd", f"{scorer} {{ref}} {{est}}"])
        assert rc == 0
        row = json.loads(report.read_text().splitlines()[0])
        assert row["mbstoi"] == 0.875

    def test_non_finite_external_score_is_an_item_error(self, tmp_path, rng, cfg_file, capsys):
        _, manifest = write_corpus(tmp_path, rng, n_items=1, duration=0.5)
        data = tmp_path / "data"
        assert main(["synth", "--manifest", str(manifest), "--out", str(data)]) == 0
        scorer = tmp_path / "scorer.sh"
        scorer.write_text("#!/bin/sh\necho nan\n")
        scorer.chmod(0o755)
        capsys.readouterr()
        report = tmp_path / "report.jsonl"
        rc = main(["metrics", "--config", cfg_file, "--dataset", str(data),
                   "--report", str(report), "--mbstoi-cmd", f"{scorer} {{ref}} {{est}}"])
        assert rc == 2
        assert report.read_text() == ""
        (failure,) = [json.loads(l) for l in capsys.readouterr().err.splitlines()]
        assert failure["item_id"] == "item000"
        assert "non-finite score" in failure["error"]

    def test_builds_one_gammatone_bank_per_run(self, tmp_path, rng, cfg_file, monkeypatch):
        _, manifest = write_corpus(tmp_path, rng, n_items=3, duration=0.5)
        data = tmp_path / "data"
        assert main(["synth", "--manifest", str(manifest), "--out", str(data)]) == 0
        pipeline.gammatone_bank.cache_clear()
        calls = []
        build = pipeline.build_gammatone_bank

        def counting(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(pipeline, "build_gammatone_bank", counting)
        report = tmp_path / "report.jsonl"
        rc = main(["metrics", "--config", cfg_file, "--dataset", str(data),
                   "--report", str(report)])
        assert rc == 0
        assert len(report.read_text().splitlines()) == 3
        assert len(calls) == 1

    def test_bad_item_is_reported_and_skipped(self, tmp_path, rng, cfg_file, capsys):
        _, manifest = write_corpus(tmp_path, rng, n_items=3, duration=0.5)
        data = tmp_path / "data"
        assert main(["synth", "--manifest", str(manifest), "--out", str(data)]) == 0
        (data / "item001_mix.wav").write_bytes(b"RIFF\x00\x00")
        capsys.readouterr()
        report = tmp_path / "report.jsonl"
        rc = main(["metrics", "--config", cfg_file, "--dataset", str(data),
                   "--report", str(report)])
        assert rc == 2
        rows = [json.loads(l) for l in report.read_text().splitlines()]
        assert [r["item_id"] for r in rows] == ["item000", "item002"]
        (failure,) = [json.loads(l) for l in capsys.readouterr().err.splitlines()]
        assert failure["item_id"] == "item001"
        assert "cannot parse WAV" in failure["error"]

    def test_mix_and_clean_of_different_lengths_are_an_item_error(
            self, tmp_path, rng, cfg_file, capsys, monkeypatch):
        _, manifest = write_corpus(tmp_path, rng, n_items=2, duration=0.5)
        data = tmp_path / "data"
        assert main(["synth", "--manifest", str(manifest), "--out", str(data)]) == 0
        clean = read_stereo(data / "item001_clean.wav", SR)
        write_wav(data / "item001_clean.wav", clean.samples[:, :-100], clean.sample_rate)
        capsys.readouterr()
        calls, enhance = [], cli.enhance

        def counted(*args, **kwargs):
            calls.append(1)
            return enhance(*args, **kwargs)

        monkeypatch.setattr(cli, "enhance", counted)
        report = tmp_path / "report.jsonl"
        rc = main(["metrics", "--config", cfg_file, "--dataset", str(data),
                   "--report", str(report)])
        assert rc == 2
        assert len(calls) == 1      # the mismatched item never reaches the network
        rows = [json.loads(l) for l in report.read_text().splitlines()]
        assert [r["item_id"] for r in rows] == ["item000"]
        (failure,) = [json.loads(l) for l in capsys.readouterr().err.splitlines()]
        assert failure["item_id"] == "item001"
        assert "lengths differ" in failure["error"]

    def test_failing_scorer_is_a_per_item_failure(self, tmp_path, rng, cfg_file, capsys):
        _, manifest = write_corpus(tmp_path, rng, n_items=2, duration=0.5)
        data = tmp_path / "data"
        assert main(["synth", "--manifest", str(manifest), "--out", str(data)]) == 0
        scorer = tmp_path / "scorer.sh"
        scorer.write_text('#!/bin/sh\ncase "$2" in *item001*) echo bad >&2; exit 3;; esac\n'
                          "echo 0.5\n")
        scorer.chmod(0o755)
        capsys.readouterr()
        report = tmp_path / "report.jsonl"
        rc = main(["metrics", "--config", cfg_file, "--dataset", str(data),
                   "--report", str(report), "--mbstoi-cmd", f"{scorer} {{ref}} {{est}}"])
        assert rc == 2
        rows = [json.loads(l) for l in report.read_text().splitlines()]
        assert [(r["item_id"], r["mbstoi"]) for r in rows] == [("item000", 0.5)]
        (failure,) = [json.loads(l) for l in capsys.readouterr().err.splitlines()]
        assert failure["item_id"] == "item001"
        assert "exit status 3" in failure["error"]

    def test_invariant_violation_still_aborts(self, tmp_path, rng, cfg_file, monkeypatch):
        _, manifest = write_corpus(tmp_path, rng, n_items=2, duration=0.5)
        data = tmp_path / "data"
        assert main(["synth", "--manifest", str(manifest), "--out", str(data)]) == 0

        def broken(*args, **kwargs):
            raise InvariantViolation("non-finite output")

        monkeypatch.setattr(cli, "enhance", broken)
        rc = main(["metrics", "--config", cfg_file, "--dataset", str(data),
                   "--report", str(tmp_path / "report.jsonl")])
        assert rc == 4

    def test_missing_dataset_exits_2(self, tmp_path, cfg_file):
        rc = main(["metrics", "--config", cfg_file,
                   "--dataset", str(tmp_path / "nope")])
        assert rc == 2


class TestBenchCommand:
    def test_json_payload(self, cfg_file, capsys):
        rc = main(["bench", "--config", cfg_file, "--seconds", "1.0"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_params"] > 0 and payload["macs"] > 0
        assert payload["rtf"] is None
        assert set(payload["param_rows"]) == {"encoder", "modulator", "decoder"}
        assert payload["blas_core"] == workers.blas_core()     # the kernel sets the bits

    def test_input_shorter_than_a_frame(self, cfg_file, capsys):
        """enhance pads it to one frame, and bench counts that frame."""
        assert main(["bench", "--config", cfg_file, "--seconds", "0.01"]) == 0
        assert json.loads(capsys.readouterr().out)["macs"] > 0

    def test_overflowing_tensor_shape_exits_3(self, tmp_path, cfg_file, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(one_tensor_header((2**32 - 1, 2**32 - 1)))
        assert main(["bench", "--config", cfg_file, "--model", str(bad)]) == 3
        assert "truncated file at offset 30" in capsys.readouterr().err

    def test_table_and_rtf(self, cfg_file, capsys):
        rc = main(["bench", "--config", cfg_file, "--rtf", "--repeats", "2",
                   "--table"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "total" in out and "RTF" in out
        payload = json.loads(out.splitlines()[0])
        assert payload["rtf"] > 0
        assert payload["cpu_s"] > 0
        assert payload["workers"] == workers.size()

    def test_rtf_times_inputs_of_the_requested_length(self, cfg_file, capsys, monkeypatch):
        from binse import profiler

        lengths, enhance = [], profiler.enhance

        def recorded(wav, *args, **kwargs):
            lengths.append(wav.duration_s)
            return enhance(wav, *args, **kwargs)

        monkeypatch.setattr(profiler, "enhance", recorded)
        assert main(["bench", "--config", cfg_file, "--seconds", "8", "--rtf",
                     "--repeats", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["audio_seconds"] == 8.0
        assert lengths and set(lengths) == {8.0}

    @pytest.mark.parametrize("repeats, rtf", [
        pytest.param("0", ["--rtf"], id="0"), pytest.param("-1", ["--rtf"], id="-1"),
        pytest.param("0", [], id="0-no-rtf"), pytest.param("-1", [], id="-1-no-rtf"),
    ])
    def test_repeats_below_one_exit_2(self, cfg_file, capsys, repeats, rtf):
        assert main(["bench", "--config", cfg_file, *rtf, f"--repeats={repeats}"]) == 2
        assert "repeats must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("seconds, problem", [
        *((s, "audio_seconds must be positive and finite") for s in
          ["inf", "nan", "0", "-1", "-inf"]),
        ("1e-5", "audio_seconds must hold at least one sample at 16000 Hz, got 1e-05"),
    ], ids=["inf", "nan", "0", "-1", "-inf", "1e-5"])
    def test_seconds_not_positive_and_finite_exit_2(self, cfg_file, capsys, seconds, problem):
        assert main(["bench", "--config", cfg_file, "--rtf", f"--seconds={seconds}"]) == 2
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith(f"error: {problem}")

    @pytest.mark.parametrize("overrides, problem", [
        ({"dropout_rate": 0.1}, "unknown config keys: dropout_rate"),
        ([1, 2], "config must be a JSON object"),
        ({"analysis": {"fft": 512}}, "unknown analysis keys: fft"),
        ({"channels": "8"}, "channels must be of type int"),
        ({"kernel_time": 5, "eps_ratf": 1e-8}, "unknown config keys: eps_ratf, kernel_time"),
        ({"no_drg": 1}, "no_drg must be of type bool"),
        ({"analysis": {"hop": 64.0}}, "analysis.hop must be of type int"),
        ({"se_reduction": 0}, "se_reduction must be at least 1"),
        ({"se_reduction": -4}, "se_reduction must be at least 1"),
        ({"masked_cue_loss": True}, "unknown config keys: masked_cue_loss"),
        ({"gammatone_taps": 1}, "gammatone_taps must be at least 2"),
        ({"n_encoder_blocks": 0}, "n_encoder_blocks must be at least 1"),
        ({"analysis": {"window": "sqrt-hann"}}, "unknown analysis keys: window"),
        ({"eps_ratf": 1e-8}, "unknown config keys: eps_ratf"),
        ({"n_gammatone": 0}, "n_gammatone must be at least 1"),
        ({"kernel_time": 5}, "unknown config keys: kernel_time"),
        ({"kernel_2d": [3, 3]}, "unknown config keys: kernel_2d"),
        ({"mlp_hidden": 80}, "unknown config keys: mlp_hidden"),
        ({"analysis": {"hop": 256}}, "analysis.hop must be less than analysis.fft_size"),
    ], ids=["unknown_key", "not_an_object", "unknown_analysis_key", "str_for_int",
            "removed_keys", "int_for_bool", "float_for_int", "zero_se_reduction",
            "negative_se_reduction", "metric_key", "one_gammatone_tap",
            "no_encoder_blocks", "window_key", "removed_eps_ratf", "no_gammatone_bands",
            "removed_kernel_time", "removed_kernel_2d", "removed_mlp_hidden",
            "hop_of_a_whole_frame"])
    def test_bad_config_file_exits_2(self, tmp_path, capsys, overrides, problem):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(overrides))
        assert main(["bench", "--config", str(path)]) == 2
        assert problem in capsys.readouterr().err

    def test_config_file_that_is_not_json_exits_2(self, tmp_path, capsys):
        """json's decode error is a ValueError, so it exits 2 as bad input."""
        path = tmp_path / "bad.json"
        path.write_text('{"channels": 8,')
        assert main(["bench", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: Expecting property name")


class TestSelftestCommand:
    def test_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") == 5
        assert "PASS  clinear-rows-exact" in out

    def test_names_the_blas_kernel_first(self, capsys):
        assert main(["selftest"]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first == f"blas core: {workers.blas_core() or 'unknown'}"

    def test_a_product_that_mixes_rows_fails(self, monkeypatch, capsys):
        """A clinear whose rows depend on the other rows of its input breaks
        the tiled plan's exactness, and the suite says so."""
        from binse import complex_ops

        clinear = complex_ops.clinear

        def mixing(x, p, out=None):
            y = clinear(x, p, out=out)
            y += 1e-3 * x.shape[1]
            return y

        monkeypatch.setattr(complex_ops, "clinear", mixing)
        assert main(["selftest"]) == 4
        assert "FAIL  clinear-rows-exact" in capsys.readouterr().out


CORPUS_PROBE = """
import sys
from binse import cli, workers
data, report, manifest, cfg, pool = sys.argv[1:]
if pool == "no-pool":
    workers.usable_cpus = lambda: 1
assert cli.main(["synth", "--manifest", manifest, "--out", data]) == 0
assert cli.main(["metrics", "--config", cfg, "--dataset", data, "--report", report]) == 0
"""


def test_synth_and_metrics_bytes_do_not_depend_on_threads(tmp_path, rng, cfg_file):
    """`binse synth` then `binse metrics` on items of prime lengths give the
    same bytes with OpenBLAS started at 1 and at 2 threads, and with no pool."""
    specs, manifest = write_corpus(tmp_path, rng, n_items=2)
    specs[0].duration_s, specs[1].duration_s = 9973 / SR, 8009 / SR
    manifest.write_text("".join(json.dumps(sp.__dict__) + "\n" for sp in specs))
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for blas, pool in (("1", "pool"), ("2", "pool"), ("2", "no-pool")):
        run = tmp_path / f"blas{blas}-{pool}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        subprocess.run([sys.executable, "-c", CORPUS_PROBE, str(run / "data"),
                        str(run / "report.jsonl"), str(manifest), cfg_file, pool],
                       env=env, check=True, capture_output=True, timeout=300)
        outputs.append({path.relative_to(run): path.read_bytes()
                        for path in sorted(run.rglob("*")) if path.is_file()})
    assert len(outputs[0]) == 2 * 3 + 2        # 3 WAVs per item, metadata, report
    assert outputs[0] == outputs[1] == outputs[2]


def test_cli_import_leaves_the_commands_modules_to_the_commands():
    """The import a `binse` invocation makes, `binse enhance`'s too, loads
    none of the modules that only synth, metrics and bench use."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys\n"
            "import binse.cli\n"
            "print(*sorted(set(sys.modules) & {'binse.synth', 'binse.losses',"
            " 'binse.profiler', 'subprocess'}))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []


def test_cli_import_does_not_load_scipy_signal(tmp_path, rng, cfg_file):
    """binse runs on numpy alone: neither the import a `binse` invocation
    makes nor synth, metrics and enhance on a tiny corpus load any scipy."""
    _, manifest = write_corpus(tmp_path, rng, n_items=1, duration=0.5)
    data = tmp_path / "data"
    commands = [
        ["synth", "--manifest", str(manifest), "--out", str(data)],
        ["metrics", "--config", cfg_file, "--dataset", str(data),
         "--report", str(tmp_path / "report.jsonl")],
        ["enhance", "--config", cfg_file, "--input", str(data / "item000_mix.wav"),
         "--output", str(tmp_path / "enhanced.wav")],
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = (
        "import json, sys\n"
        "import binse.cli\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "loaded = {'import': scipy_modules()}\n"
        f"for argv in {commands!r}:\n"
        "    assert binse.cli.main(argv) == 0, argv\n"
        "    loaded[argv[0]] = scipy_modules()\n"
        "print(json.dumps(loaded))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    loaded = json.loads(out.splitlines()[-1])
    assert loaded == {"import": [], "synth": [], "metrics": [], "enhance": []}
