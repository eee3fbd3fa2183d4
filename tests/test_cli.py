import argparse
import contextlib
import glob
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import din.data_io as data_io
import din.trainer as trainer
from din.analysis import count_parameters
from din.cli import SECTIONS, build_parser, main
from din.data_io import (
    load_checkpoint,
    load_manifest,
    load_split,
    write_feature_file,
)
from din.model import EVAL_BATCH, ModelShapeSpec, predict_sample

from conftest import (
    TINY_SHAPE,
    change_feature_file,
    child_env,
    decode_feature_file,
    edit_checkpoint_meta,
    in_memory,
    poison_tensor,
    write_test_split,
)


def base_config(tmp_path, **train_overrides):
    cfg = {
        "shape": {
            "raw_dim": 6,
            "feat_dim": 4,
            "num_frames": 8,
            "widths": [2, 3],
            "num_filters": 4,
            "num_classes": 2,
        },
        "train": {
            "batch_size": 8,
            "max_epochs": 2,
            "initial_lr": 0.05,
            "dropout_keep": 1.0,
            "seed": 5,
            **train_overrides,
        },
        "synth": {
            "feature_dim": 6,
            "samples_per_class": 8,
            "val_samples_per_class": 4,
            "seed": 5,
        },
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def synth_and_train(tmp_path, capsys, extra_train_args=()):
    cfg = base_config(tmp_path)
    data_dir = tmp_path / "data"
    run_dir = tmp_path / "run"
    assert main(["synth", "--config", str(cfg), "--out-dir", str(data_dir)]) == 0
    rc = main(
        ["train", "--config", str(cfg), "--manifest", str(data_dir / "manifest.json"),
         "--out-dir", str(run_dir), *extra_train_args]
    )
    assert rc == 0
    capsys.readouterr()
    return cfg, data_dir, run_dir


def four_epochs_two_ways(tmp_path, cfg):
    """(dir of an uninterrupted 4-epoch train, dir of a 2-epoch train
    resumed to 4), both from a fresh synth dataset."""
    data_dir = tmp_path / "data"
    assert main(["synth", "--config", str(cfg), "--out-dir", str(data_dir)]) == 0
    train = ["train", "--config", str(cfg), "--manifest", str(data_dir / "manifest.json")]
    dir_4, dir_2, dir_resumed = tmp_path / "four", tmp_path / "two", tmp_path / "resumed"
    assert main([*train, "--out-dir", str(dir_4), "--max-epochs", "4"]) == 0
    assert main([*train, "--out-dir", str(dir_2)]) == 0
    assert main([*train, "--out-dir", str(dir_resumed), "--max-epochs", "4",
                 "--resume", str(dir_2 / "checkpoint.ckpt")]) == 0
    return dir_4, dir_resumed


NO_BEST_ERROR = "invalid meta block: has_best must be true, got False"


def no_best_checkpoint(run_dir, tmp_path):
    """A copy of run_dir's checkpoint whose meta says it has no best/ group."""
    path = tmp_path / "no-best.ckpt"
    path.write_bytes(edit_checkpoint_meta((run_dir / "checkpoint.ckpt").read_bytes(),
                                          lambda meta: meta.update(has_best=False)))
    return path


def run_din(*argv, **env_overrides):
    """`python -m din.cli ARGV` in a child process, with this checkout's din."""
    return subprocess.run([sys.executable, "-m", "din.cli", *map(str, argv)],
                          capture_output=True, text=True, env=child_env(**env_overrides))


def widen_sample(data_dir, split, index=0):
    """Rewrite sample `index` of `split` with one feature column too many."""
    manifest = json.loads((data_dir / "manifest.json").read_text())
    record = [r for r in manifest["samples"] if r["split"] == split][index]
    write_feature_file(data_dir / record["feature_path"], np.ones((8, 7)))
    return record["id"], record["feature_path"]


class TestSelftest:
    def test_passes_on_correct_build(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "checks passed" in out


class TestSynth:
    def test_writes_deterministic_dataset(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["synth", "--config", str(cfg), "--out-dir", str(out_a)]) == 0
        assert main(["synth", "--config", str(cfg), "--out-dir", str(out_b)]) == 0
        manifest_a = (out_a / "manifest.json").read_bytes()
        assert manifest_a == (out_b / "manifest.json").read_bytes()
        for feature in sorted((out_a / "features").iterdir()):
            twin = out_b / "features" / feature.name
            assert feature.read_bytes() == twin.read_bytes()

    def test_missing_out_dir_is_validation_error(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        assert main(["synth", "--config", str(cfg)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_noise_beyond_float32_is_validation_error(self, tmp_path, capsys):
        out_dir = tmp_path / "huge"
        argv = ["synth", "--out-dir", str(out_dir), "--synth-samples-per-class", "1",
                "--synth-sigma", "1e39"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "finite in float32" in err
        assert list((out_dir / "features").iterdir()) == []

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_sigma_is_validation_error(self, tmp_path, capsys, value):
        out_dir = tmp_path / "data"
        assert main(["synth", "--out-dir", str(out_dir), "--synth-sigma", value]) == 2
        assert capsys.readouterr().err == f"error: noise_sigma must be finite, got {value}\n"
        assert not out_dir.exists()


class TestTrain:
    def test_writes_all_artifacts(self, tmp_path, capsys):
        _, _, run_dir = synth_and_train(tmp_path, capsys)
        assert (run_dir / "checkpoint.ckpt").is_file()
        assert (run_dir / "history.json").is_file()
        assert (run_dir / "config.json").is_file()
        assert (run_dir / "run_meta.json").is_file()
        history = json.loads((run_dir / "history.json").read_text())
        assert len(history["reports"]) == 2

    def test_two_runs_are_byte_identical(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        data_dir = tmp_path / "data"
        main(["synth", "--config", str(cfg), "--out-dir", str(data_dir)])
        blobs = []
        for name in ("run1", "run2"):
            run_dir = tmp_path / name
            rc = main(["train", "--config", str(cfg),
                       "--manifest", str(data_dir / "manifest.json"),
                       "--out-dir", str(run_dir)])
            assert rc == 0
            blobs.append(
                (
                    (run_dir / "checkpoint.ckpt").read_bytes(),
                    (run_dir / "history.json").read_bytes(),
                    (run_dir / "config.json").read_bytes(),
                )
            )
        assert blobs[0] == blobs[1]

    def test_zero_epochs_writes_initial_checkpoint(self, tmp_path, capsys):
        cfg = base_config(tmp_path, max_epochs=0)
        data_dir = tmp_path / "data"
        run_dir = tmp_path / "run"
        main(["synth", "--config", str(cfg), "--out-dir", str(data_dir)])
        rc = main(["train", "--config", str(cfg),
                   "--manifest", str(data_dir / "manifest.json"),
                   "--out-dir", str(run_dir)])
        assert rc == 0
        assert (run_dir / "checkpoint.ckpt").is_file()
        history = json.loads((run_dir / "history.json").read_text())
        assert history["reports"] == []

    def test_resume_matches_uninterrupted(self, tmp_path, capsys):
        dir_4, dir_resumed = four_epochs_two_ways(tmp_path, base_config(tmp_path))
        for name in ("history.json", "checkpoint.ckpt"):
            assert (dir_4 / name).read_bytes() == (dir_resumed / name).read_bytes()

    def test_written_checkpoints_keep_their_bookkeeping_consistent(self, tmp_path, capsys):
        dir_4, dir_resumed = four_epochs_two_ways(tmp_path, base_config(tmp_path))
        for run_dir in (dir_4, tmp_path / "two", dir_resumed):
            state = load_checkpoint(run_dir / "checkpoint.ckpt").state
            done = state.optimizer.epochs_completed
            assert [r.epoch for r in state.history] == list(range(done))
            assert 0 <= state.best_epoch < done
            assert 0 <= state.optimizer.epochs_since_improvement <= done

    @pytest.mark.parametrize("edit, field", [
        (lambda m: m["optimizer"].update(epochs_completed=-2), "epochs_completed"),
        (lambda m: m["optimizer"].update(epochs_since_improvement=-1), "epochs_since_improvement"),
        (lambda m: m["optimizer"].update(epochs_completed=1), "history epochs [0, 1]"),
        (lambda m: m["history"].pop(0), "history epochs [1]"),
        (lambda m: m.update(best_epoch=2), "best_epoch 2"),
    ], ids=["negative-epochs", "negative-patience", "history-ahead", "history-gap", "best"])
    def test_resume_from_inconsistent_bookkeeping_is_validation_error(
        self, tmp_path, capsys, edit, field
    ):
        cfg, data_dir, run_dir = synth_and_train(tmp_path, capsys)
        ckpt = run_dir / "checkpoint.ckpt"
        ckpt.write_bytes(edit_checkpoint_meta(ckpt.read_bytes(), edit))
        out_dir = tmp_path / "resumed"
        rc = main(["train", "--config", str(cfg), "--manifest", str(data_dir / "manifest.json"),
                   "--out-dir", str(out_dir), "--max-epochs", "4", "--resume", str(ckpt)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: {ckpt}: invalid meta block: ")
        assert field in captured.err
        assert not out_dir.exists()

    def test_resume_without_a_best_snapshot_is_validation_error(self, tmp_path, capsys):
        cfg, data_dir, run_dir = synth_and_train(tmp_path, capsys)
        ckpt = no_best_checkpoint(run_dir, tmp_path)
        out_dir = tmp_path / "new" / "resumed"
        rc = main(["train", "--config", str(cfg), "--manifest", str(data_dir / "manifest.json"),
                   "--out-dir", str(out_dir), "--max-epochs", "4", "--resume", str(ckpt)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {ckpt}: {NO_BEST_ERROR}\n"
        assert not (tmp_path / "new").exists()

    def test_resume_keeps_integer_floats_as_read(self, tmp_path, capsys):
        # JSON integers in float fields stay integers through the checkpoint.
        cfg = base_config(tmp_path, initial_lr=1, momentum=0)
        dir_4, dir_resumed = four_epochs_two_ways(tmp_path, cfg)
        for name in ("history.json", "checkpoint.ckpt"):
            assert (dir_4 / name).read_bytes() == (dir_resumed / name).read_bytes()
        reports = json.loads((dir_resumed / "history.json").read_text())["reports"]
        assert [type(r["current_lr"]) for r in reports] == [int] * 4

    @pytest.mark.parametrize("flags, diffs", [
        (["--num-filters", "5"], "shape.num_filters 4 -> 5"),
        (["--seed", "6", "--batch-size", "3"], "train.batch_size 8 -> 3, train.seed 5 -> 6"),
    ], ids=["shape", "train"])
    def test_resume_with_another_config_is_validation_error(
        self, tmp_path, capsys, flags, diffs
    ):
        cfg, data_dir, run_dir = synth_and_train(tmp_path, capsys)
        ckpt = run_dir / "checkpoint.ckpt"
        before = ckpt.read_bytes()
        out_dir = tmp_path / "resumed"
        rc = main(["train", "--config", str(cfg), "--manifest", str(data_dir / "manifest.json"),
                   "--out-dir", str(out_dir), "--max-epochs", "4", "--resume", str(ckpt),
                   *flags])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {ckpt}: cannot resume with a different configuration "
                                f"(only max_epochs may change): {diffs}\n")
        assert not out_dir.exists() and ckpt.read_bytes() == before

    @pytest.mark.parametrize("broken", ["missing-manifest", "class-count"])
    def test_failed_train_leaves_no_out_dir(self, tmp_path, capsys, broken):
        cfg, data_dir, _ = synth_and_train(tmp_path, capsys)
        manifest = data_dir / "manifest.json"
        if broken == "missing-manifest":
            manifest.unlink()
        else:
            add_third_class(data_dir)
        out_dir = tmp_path / "failed" / "run"
        rc = main(["train", "--config", str(cfg), "--manifest", str(manifest),
                   "--out-dir", str(out_dir)])
        assert rc == 2
        assert not (tmp_path / "failed").exists()

    def test_class_count_mismatch_is_validation_error(self, tmp_path, capsys):
        cfg, data_dir, run_dir = synth_and_train(tmp_path, capsys)
        manifest = add_third_class(data_dir)
        rc = main(["train", "--config", str(cfg), "--manifest", str(manifest),
                   "--out-dir", str(tmp_path / "run3")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {manifest}: manifest has 3 classes, the model has 2\n")

    def test_dim_mismatch_is_validation_error(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        data_dir = tmp_path / "data"
        main(["synth", "--config", str(cfg), "--out-dir", str(data_dir)])
        rc = main(["train", "--config", str(cfg), "--raw-dim", "99",
                   "--manifest", str(data_dir / "manifest.json"),
                   "--out-dir", str(tmp_path / "run")])
        assert rc == 2
        assert "raw_dim" in capsys.readouterr().err


    def test_wrong_dim_val_sample_fails_before_training(self, tmp_path, capsys):
        self.check_wrong_dim_fails_before_training(tmp_path, capsys, "val", 0)

    def test_wrong_dim_last_train_sample_fails_before_training(self, tmp_path, capsys):
        # Every sample's dim is checked, not only the first training sample's.
        self.check_wrong_dim_fails_before_training(tmp_path, capsys, "train", -1)

    @staticmethod
    def check_wrong_dim_fails_before_training(tmp_path, capsys, split, index):
        cfg = base_config(tmp_path)
        data_dir = tmp_path / "data"
        run_dir = tmp_path / "run"
        main(["synth", "--config", str(cfg), "--out-dir", str(data_dir)])
        sample_id, feature_path = widen_sample(data_dir, split, index)
        capsys.readouterr()
        rc = main(["train", "--config", str(cfg),
                   "--manifest", str(data_dir / "manifest.json"),
                   "--out-dir", str(run_dir)])
        assert rc == 2
        captured = capsys.readouterr()
        assert repr(sample_id) in captured.err and feature_path in captured.err
        assert "epoch" not in captured.out
        assert not (run_dir / "checkpoint.ckpt").exists()

    @pytest.mark.parametrize("flag, value, field", [
        ("--initial-lr", "nan", "initial_lr"), ("--weight-decay", "inf", "weight_decay"),
    ])
    def test_non_finite_flag_is_a_config_error(self, tmp_path, capsys, flag, value, field):
        cfg = base_config(tmp_path)
        data_dir = tmp_path / "data"
        assert main(["synth", "--config", str(cfg), "--out-dir", str(data_dir)]) == 0
        capsys.readouterr()
        out_dir = tmp_path / "run"
        rc = main(["train", "--config", str(cfg), "--manifest", str(data_dir / "manifest.json"),
                   "--out-dir", str(out_dir), flag, value])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {field} must be finite, got {value}\n"
        assert not out_dir.exists()

    def test_diverging_run_prints_one_error_line(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        data_dir = tmp_path / "data"
        assert main(["synth", "--config", str(cfg), "--synth-samples-per-class", "16",
                     "--out-dir", str(data_dir)]) == 0
        proc = run_din("train", "--config", cfg, "--manifest", data_dir / "manifest.json",
                       "--out-dir", tmp_path / "run", "--initial-lr", "1e200")
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("error: training diverged in epoch 0: ")

    @pytest.mark.parametrize("existed", [False, True])
    def test_diverging_run_removes_only_an_out_dir_it_created(self, tmp_path, capsys, existed):
        cfg = base_config(tmp_path)
        data_dir = tmp_path / "data"
        assert main(["synth", "--config", str(cfg), "--out-dir", str(data_dir)]) == 0
        out_dir = tmp_path / "new" / "run"
        if existed:
            out_dir.mkdir(parents=True)
            (out_dir / "notes.txt").write_text("kept")
        capsys.readouterr()
        rc = main(["train", "--config", str(cfg), "--manifest", str(data_dir / "manifest.json"),
                   "--out-dir", str(out_dir), "--initial-lr", "1e200"])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: training diverged in epoch 0: ")
        if existed:
            assert [p.name for p in out_dir.iterdir()] == ["notes.txt"]
        else:
            assert not (tmp_path / "new").exists()

    def test_checkpoint_bytes_do_not_depend_on_blas_threads(self, tmp_path, capsys):
        # Big enough that OpenBLAS threads the batched GEMMs (m*n*k above
        # its 262,144 single-thread limit: a 16-video batch makes the
        # width-2 conv a 112 x 128 x 64 GEMM). The thread count is set only
        # in the environment of the two child processes.
        cfg = {
            "shape": {"raw_dim": 128, "feat_dim": 64, "num_frames": 8,
                      "widths": [2, 3, 4], "num_filters": 64, "num_classes": 2},
            "train": {"batch_size": 16, "max_epochs": 2, "initial_lr": 0.05,
                      "dropout_keep": 0.5, "seed": 5},
            "synth": {"feature_dim": 128, "samples_per_class": 16,
                      "val_samples_per_class": 8, "seed": 5},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        data_dir = tmp_path / "data"
        assert main(["synth", "--config", str(path), "--out-dir", str(data_dir)]) == 0
        blobs = []
        for threads in ("1", "2"):
            run_dir = tmp_path / f"run-{threads}"
            proc = run_din("train", "--config", path, "--manifest", data_dir / "manifest.json",
                           "--out-dir", run_dir, OPENBLAS_NUM_THREADS=threads)
            assert proc.returncode == 0, proc.stderr
            blobs.append(((run_dir / "checkpoint.ckpt").read_bytes(),
                          (run_dir / "history.json").read_bytes()))
        assert blobs[0] == blobs[1]


def add_third_class(data_dir):
    """Give the manifest a third class and relabel its first val sample to it."""
    path = data_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["classes"].append("third")
    next(r for r in manifest["samples"] if r["split"] == "val")["label"] = 2
    path.write_text(json.dumps(manifest))
    return path


def open_files(pid):
    """The paths a process has open, as /proc/<pid>/fd shows them."""
    paths = []
    for fd in glob.glob(f"/proc/{pid}/fd/*"):
        with contextlib.suppress(OSError):  # closed since the glob
            paths.append(os.readlink(fd))
    return paths


class TestBestSnapshotFile:
    """`din train` keeps its best snapshot in an unlinked file in --out-dir,
    so it holds the model twice (parameters and velocity), not three times."""

    SHAPE = {"raw_dim": 512, "feat_dim": 128, "num_frames": 8, "widths": [2, 3, 4, 5, 6],
             "num_filters": 128, "num_classes": 2}

    def test_train_holds_parameters_velocity_and_one_batch_scratch(
        self, tmp_path, capsys, monkeypatch
    ):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "shape": self.SHAPE,
            "train": {"batch_size": 32, "max_epochs": 2, "initial_lr": 0.01,
                      "dropout_keep": 0.5, "seed": 3},
            "synth": {"feature_dim": 512, "samples_per_class": 32, "val_samples_per_class": 16,
                      "sequence_length": 12, "seed": 3},
        }))
        assert main(["synth", "--config", str(cfg), "--out-dir", str(tmp_path / "data")]) == 0
        train = ["train", "--config", str(cfg), "--manifest", str(tmp_path / "data/manifest.json")]
        # One untraced run measures the largest scratch a call's batches fill.
        real_batches, scratch_bytes = trainer.batches, []

        def measured_batches(*args, **kwargs):
            for item in real_batches(*args, **kwargs):
                yield item
                scratch_bytes.append(sum(a.nbytes for a in item[3].values()))

        monkeypatch.setattr(trainer, "batches", measured_batches)
        assert main([*train, "--out-dir", str(tmp_path / "measure")]) == 0
        monkeypatch.setattr(trainer, "batches", real_batches)
        tracemalloc.start()
        try:
            assert main([*train, "--out-dir", str(tmp_path / "run")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        model = 8 * count_parameters(ModelShapeSpec(**self.SHAPE)).total  # 3.2 MB
        # A third model-size tensor set (an in-memory snapshot) exceeds the slack.
        assert peak < 2 * model + max(scratch_bytes) + model // 2
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == [
            "checkpoint.ckpt", "config.json", "history.json", "run_meta.json"]
        assert ((tmp_path / "run/checkpoint.ckpt").read_bytes()
                == (tmp_path / "measure/checkpoint.ckpt").read_bytes())

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/<pid>/fd")
    def test_killed_run_leaves_no_snapshot_file(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        data_dir, out_dir = tmp_path / "data", tmp_path / "run"
        assert main(["synth", "--config", str(cfg), "--out-dir", str(data_dir)]) == 0
        proc = subprocess.Popen(
            [sys.executable, "-m", "din.cli", "train", "--config", str(cfg), "--manifest",
             str(data_dir / "manifest.json"), "--out-dir", str(out_dir), "--max-epochs", "1000000"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=child_env())
        try:  # kill it once it has its snapshot file open
            deadline = time.monotonic() + 60
            while not any(path.startswith(f"{out_dir.resolve()}/")
                          for path in open_files(proc.pid)):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
        finally:
            proc.kill()
            proc.wait()
        assert list(out_dir.iterdir()) == []


class TestEvalPredict:
    def test_eval_on_best_reproduces_logged_accuracy(self, tmp_path, capsys):
        cfg, data_dir, run_dir = synth_and_train(tmp_path, capsys)
        rc = main(["eval", "--checkpoint", str(run_dir / "checkpoint.ckpt"),
                   "--manifest", str(data_dir / "manifest.json"),
                   "--split", "val", "--use-best"])
        assert rc == 0
        out = capsys.readouterr().out
        accuracy = float(out.split("accuracy=")[1].strip())
        history = json.loads((run_dir / "history.json").read_text())
        assert accuracy == history["best_val_accuracy"]

    def test_use_best_without_snapshot_is_validation_error(self, tmp_path, capsys):
        cfg, data_dir, run_dir = synth_and_train(tmp_path, capsys)
        path = no_best_checkpoint(run_dir, tmp_path)
        rc = main(["eval", "--checkpoint", str(path),
                   "--manifest", str(data_dir / "manifest.json"), "--use-best"])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {path}: {NO_BEST_ERROR}\n"

    def test_eval_without_snapshot_is_validation_error(self, tmp_path, capsys):
        # A param/-only load reads the meta too, so it fails the same way.
        cfg, data_dir, run_dir = synth_and_train(tmp_path, capsys)
        path = no_best_checkpoint(run_dir, tmp_path)
        rc = main(["eval", "--checkpoint", str(path),
                   "--manifest", str(data_dir / "manifest.json")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {path}: {NO_BEST_ERROR}\n"

    @pytest.mark.parametrize("command", ["eval", "predict", "export-features",
                                         "export-responses", "resume"])
    def test_non_finite_checkpoint_is_validation_error(self, tmp_path, capsys, command):
        cfg, data_dir, run_dir = synth_and_train(tmp_path, capsys)
        name = "param/conv/h2/weights"
        path = tmp_path / "nan.ckpt"
        path.write_bytes(poison_tensor((run_dir / "checkpoint.ckpt").read_bytes(), name, math.nan))
        out = tmp_path / "out"
        model = ["--checkpoint", path, "--manifest", data_dir / "manifest.json"]
        argv = {
            "eval": ["eval", *model],
            "predict": ["predict", *model, "--out", out],
            "export-features": ["export-features", *model, "--out", out],
            "export-responses": ["export-responses", *model, "--width", "2", "--out", out],
            "resume": ["train", "--config", cfg, "--manifest", data_dir / "manifest.json",
                       "--out-dir", out, "--max-epochs", "3", "--resume", path],
        }[command]
        assert main([str(arg) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: non-finite values in tensor '{name}'\n"
        assert not out.exists()

    def test_predict_writes_probability_rows(self, tmp_path, capsys):
        cfg, data_dir, run_dir = synth_and_train(tmp_path, capsys)
        out_csv = tmp_path / "pred.csv"
        rc = main(["predict", "--checkpoint", str(run_dir / "checkpoint.ckpt"),
                   "--manifest", str(data_dir / "manifest.json"),
                   "--split", "val", "--out", str(out_csv)])
        assert rc == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "id,label,predicted,p_0,p_1"
        assert len(lines) == 9  # 8 val samples + header
        for row in lines[1:]:
            cells = row.split(",")
            assert abs(float(cells[3]) + float(cells[4]) - 1.0) < 1e-9

    def test_predict_writes_an_out_file_with_the_longest_name(self, tmp_path, capsys):
        cfg, data_dir, run_dir = synth_and_train(tmp_path, capsys)
        out_csv = tmp_path / ("p" * 251 + ".csv")
        assert len(out_csv.name) == 255
        rc = main(["predict", "--checkpoint", str(run_dir / "checkpoint.ckpt"),
                   "--manifest", str(data_dir / "manifest.json"),
                   "--split", "val", "--out", str(out_csv)])
        assert rc == 0
        assert out_csv.read_text().startswith("id,label,predicted,")
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["config.json", "data", "run", out_csv.name])

    @pytest.mark.parametrize("char", [",", '"', "\r", "\n"])
    def test_id_the_csv_exports_cannot_hold_is_validation_error(self, tmp_path, capsys, char):
        cfg, data_dir, run_dir = synth_and_train(tmp_path, capsys)
        manifest = data_dir / "manifest.json"
        doc = json.loads(manifest.read_text())
        record = next(r for r in doc["samples"] if r["split"] == "val")
        record["id"] = bad_id = f"{record['id']}{char}x"
        manifest.write_text(json.dumps(doc))
        model = ["--checkpoint", str(run_dir / "checkpoint.ckpt"), "--manifest", str(manifest),
                 "--split", "val"]
        out = tmp_path / "out"
        for argv in (
            ["train", "--config", str(cfg), "--manifest", str(manifest), "--out-dir", str(out)],
            ["eval", *model],
            ["predict", *model, "--out", str(out)],
            ["export-features", *model, "--out", str(out)],
            ["export-responses", *model, "--width", "2", "--out", str(out)],
        ):
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.count("\n") == 1, captured.err
            assert str(manifest) in captured.err and repr(bad_id) in captured.err
            assert not out.exists()

    def test_wrong_dim_sample_is_validation_error(self, tmp_path, capsys):
        cfg, data_dir, run_dir = synth_and_train(tmp_path, capsys)
        sample_id, feature_path = widen_sample(data_dir, "val")
        rc = main(["eval", "--checkpoint", str(run_dir / "checkpoint.ckpt"),
                   "--manifest", str(data_dir / "manifest.json"), "--split", "val"])
        assert rc == 2
        err = capsys.readouterr().err
        assert repr(sample_id) in err and feature_path in err and "raw_dim" in err

    def test_checkpoint_meta_without_best_epoch_is_validation_error(self, tmp_path, capsys):
        cfg, data_dir, run_dir = synth_and_train(tmp_path, capsys)
        ckpt = run_dir / "checkpoint.ckpt"
        ckpt.write_bytes(edit_checkpoint_meta(ckpt.read_bytes(), lambda m: m.pop("best_epoch")))
        rc = main(["eval", "--checkpoint", str(ckpt),
                   "--manifest", str(data_dir / "manifest.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and "best_epoch" in err

    @pytest.mark.parametrize("section, field, value", [
        ("config", "batch_size", 2.5),
        ("config", "seed", "3"),
        ("shape", "raw_dim", 6.9),
        ("shape", "num_classes", True),
    ])
    def test_mistyped_checkpoint_meta_names_file_and_field(
        self, tmp_path, capsys, section, field, value
    ):
        cfg, data_dir, run_dir = synth_and_train(tmp_path, capsys)
        ckpt = run_dir / "checkpoint.ckpt"
        ckpt.write_bytes(edit_checkpoint_meta(
            ckpt.read_bytes(), lambda m: m[section].__setitem__(field, value)))
        rc = main(["eval", "--checkpoint", str(ckpt),
                   "--manifest", str(data_dir / "manifest.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and field in err

    @pytest.mark.parametrize("text", ["[]", '"x"', "3", "null"])
    def test_manifest_that_is_not_an_object_is_validation_error(self, tmp_path, capsys, text):
        cfg, data_dir, run_dir = synth_and_train(tmp_path, capsys)
        manifest = tmp_path / "m.json"
        manifest.write_text(text)
        rc = main(["eval", "--checkpoint", str(run_dir / "checkpoint.ckpt"),
                   "--manifest", str(manifest)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {manifest}: manifest must be a JSON object")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["eval"],
        ["predict"],
        ["export-features", "--out", "f.csv"],
        ["export-responses", "--width", "2", "--out", "r.csv"],
    ], ids=["eval", "predict", "export-features", "export-responses"])
    def test_class_count_mismatch_fails_before_the_split_is_read(
        self, tmp_path, capsys, monkeypatch, argv
    ):
        cfg, data_dir, run_dir = synth_and_train(tmp_path, capsys)
        manifest = add_third_class(data_dir)

        def load_split(*args):
            raise AssertionError("the split was read before the class-count check")

        monkeypatch.setattr("din.data_io.load_split", load_split)
        rc = main([*argv, "--checkpoint", str(run_dir / "checkpoint.ckpt"),
                   "--manifest", str(manifest)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {manifest}: manifest has 3 classes, the model has 2\n"

    def test_missing_checkpoint_is_validation_error(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        rc = main(["eval", "--checkpoint", str(tmp_path / "none.ckpt"),
                   "--manifest", str(tmp_path / "none.json")])
        assert rc == 2


class TestBatchedInference:
    def test_predict_matches_per_video_forwards_and_eval_a_direct_call(self, tmp_path, capsys):
        # Three EVAL_BATCH chunks, the last of one video.
        checkpoint, manifest = write_test_split(tmp_path, 2 * EVAL_BATCH + 1)
        common = ["--checkpoint", str(checkpoint), "--manifest", str(manifest), "--split", "test"]
        assert main(["predict", *common, "--out", str(tmp_path / "p.csv")]) == 0
        assert main(["eval", *common]) == 0
        eval_line = capsys.readouterr().out.splitlines()[-1]

        params = load_checkpoint(checkpoint).model
        videos = {e.id: (e, decode_feature_file(tmp_path / e.feature_path))
                  for e in load_manifest(manifest).entries}
        lines = (tmp_path / "p.csv").read_text().splitlines()
        assert lines[0] == "id,label,predicted,p_0,p_1,p_2"
        rows = [line.split(",") for line in lines[1:]]
        assert [row[0] for row in rows] == sorted(videos)
        for sample_id, label, predicted, *probabilities in rows:
            entry, features = videos[sample_id]
            expected_label, expected = predict_sample(params, features)
            assert (int(label), int(predicted)) == (entry.label, expected_label)
            np.testing.assert_allclose(np.array(probabilities, dtype=float), expected,
                                       rtol=0, atol=1e-14)

        samples = load_split(load_manifest(manifest), "test", TINY_SHAPE.raw_dim)
        loss, accuracy, _ = trainer.evaluate(params, samples)
        assert eval_line == f"split=test samples={len(samples)} loss={loss!r} accuracy={accuracy!r}"


def vary_lengths(data_dir, lengths=(3, 8, 13, 70, 130)):
    """Rewrite every feature file of a synth dataset (D = 6) with a video
    whose frame count cycles through `lengths`: fewer, as many and more
    frames than the model samples, up to three read blocks."""
    manifest = json.loads((data_dir / "manifest.json").read_text())
    rng = np.random.default_rng(0)
    for i, sample in enumerate(manifest["samples"]):
        frames = lengths[i % len(lengths)]
        write_feature_file(data_dir / sample["feature_path"], rng.normal(size=(frames, 6)))


class TestCenterRowLoads:
    def test_artifacts_equal_those_of_full_loads(self, tmp_path, capsys, monkeypatch):
        # Row-reader splits, whose center rows evaluation reads at gather
        # time, against every split decoded whole into memory: the same
        # artifacts and stdout.
        cfg = base_config(tmp_path)
        data_dir = tmp_path / "data"
        assert main(["synth", "--config", str(cfg), "--out-dir", str(data_dir)]) == 0
        vary_lengths(data_dir)
        capsys.readouterr()
        manifest = str(data_dir / "manifest.json")
        real = data_io.load_split
        calls = []

        def artifacts(out, full):
            def load_split(manifest, split, raw_dim):
                calls.append(split)
                samples = real(manifest, split, raw_dim)
                return in_memory(samples) if full else samples

            monkeypatch.setattr(data_io, "load_split", load_split)
            common = ["--checkpoint", str(out / "checkpoint.ckpt"), "--manifest", manifest]
            train = ["train", "--config", str(cfg), "--manifest", manifest]
            assert main([*train, "--out-dir", str(out)]) == 0
            assert main([*train, "--out-dir", str(out / "resumed"), "--max-epochs", "3",
                         "--resume", str(out / "checkpoint.ckpt")]) == 0
            assert main(["eval", *common]) == 0
            assert main(["predict", *common, "--out", str(out / "p.csv")]) == 0
            assert main(["export-features", *common, "--out", str(out / "f.csv")]) == 0
            assert main(["export-responses", *common, "--width", "3",
                         "--out", str(out / "r.csv")]) == 0
            stdout = capsys.readouterr().out.replace(str(out), "OUT")
            files = ("checkpoint.ckpt", "history.json", "config.json", "resumed/checkpoint.ckpt",
                     "resumed/history.json", "p.csv", "f.csv", "r.csv")
            return stdout, {name: (out / name).read_bytes() for name in files}

        readers = artifacts(tmp_path / "readers", full=False)
        assert calls == ["train", "val"] * 2 + ["val"] * 4
        assert readers == artifacts(tmp_path / "full", full=True)


class TestChangedTrainingFiles:
    def train_with_a_changed_file(self, tmp_path, capsys, monkeypatch, split, change):
        """Run a two-epoch `din train` into a new nested --out-dir, changing
        the first `split` file of the manifest once, after epoch 0 has used
        it: a train file before epoch 0's evaluation, a val file after it.
        Epoch 1 then reads it again and must fail, naming it."""
        cfg = base_config(tmp_path)
        data_dir = tmp_path / "data"
        assert main(["synth", "--config", str(cfg), "--out-dir", str(data_dir)]) == 0
        doc = json.loads((data_dir / "manifest.json").read_text())
        path = data_dir / next(r for r in doc["samples"] if r["split"] == split)["feature_path"]
        real = trainer.evaluate

        def evaluate(params, samples):  # runs after each epoch's training
            first = not changed
            if first and split == "train":
                change_feature_file(path, change)
            result = real(params, samples)
            if first and split == "val":
                change_feature_file(path, change)
            changed.append(True)
            return result

        changed = []
        monkeypatch.setattr(trainer, "evaluate", evaluate)
        out = tmp_path / "new" / "run"
        capsys.readouterr()
        rc = main(["train", "--config", str(cfg), "--manifest", str(data_dir / "manifest.json"),
                   "--out-dir", str(out)])
        assert changed and rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert str(path) in captured.err and "Traceback" not in captured.err
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("change", ["size", "rewrite", "delete"])
    def test_train_exits_2_and_removes_its_out_dir(self, tmp_path, capsys, monkeypatch, change):
        self.train_with_a_changed_file(tmp_path, capsys, monkeypatch, "train", change)

    @pytest.mark.parametrize("change", ["size", "rewrite", "delete"])
    def test_changed_val_file_exits_2_and_removes_its_out_dir(
        self, tmp_path, capsys, monkeypatch, change
    ):
        self.train_with_a_changed_file(tmp_path, capsys, monkeypatch, "val", change)


class TestExports:
    def test_export_commands_write_files(self, tmp_path, capsys):
        cfg, data_dir, run_dir = synth_and_train(tmp_path, capsys)
        resp = tmp_path / "resp.csv"
        feats = tmp_path / "feats.csv"
        rc = main(["export-responses", "--checkpoint", str(run_dir / "checkpoint.ckpt"),
                   "--manifest", str(data_dir / "manifest.json"),
                   "--split", "val", "--width", "2", "--out", str(resp)])
        assert rc == 0
        rc = main(["export-features", "--checkpoint", str(run_dir / "checkpoint.ckpt"),
                   "--manifest", str(data_dir / "manifest.json"),
                   "--split", "val", "--out", str(feats)])
        assert rc == 0
        assert resp.read_text().startswith("id,win_0")
        assert len(feats.read_text().strip().splitlines()) == 9

    def test_bad_width_is_validation_error(self, tmp_path, capsys):
        cfg, data_dir, run_dir = synth_and_train(tmp_path, capsys)
        rc = main(["export-responses", "--checkpoint", str(run_dir / "checkpoint.ckpt"),
                   "--manifest", str(data_dir / "manifest.json"),
                   "--split", "val", "--width", "7", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    @pytest.mark.parametrize("argv, message", [
        (["export-features"], "error: --out is required\n"),
        (["export-responses", "--width", "2"], "error: --out is required\n"),
        (["export-responses", "--width", "7", "--out", "x.csv"],
         "error: width 7 not in the model (widths (2, 3))\n"),
    ])
    def test_argument_errors_come_before_the_split_is_read(
        self, tmp_path, capsys, monkeypatch, argv, message
    ):
        cfg, data_dir, run_dir = synth_and_train(tmp_path, capsys)

        def load_split(*args):
            raise AssertionError("the split was read before the argument check")

        monkeypatch.setattr("din.data_io.load_split", load_split)
        rc = main([*argv, "--checkpoint", str(run_dir / "checkpoint.ckpt"),
                   "--manifest", str(data_dir / "manifest.json")])
        assert rc == 2
        assert capsys.readouterr().err == message

    def test_repeated_exports_are_byte_identical(self, tmp_path, capsys):
        cfg, data_dir, run_dir = synth_and_train(tmp_path, capsys)
        blobs = []
        for name in ("e1.csv", "e2.csv"):
            out = tmp_path / name
            rc = main(["export-features", "--checkpoint", str(run_dir / "checkpoint.ckpt"),
                       "--manifest", str(data_dir / "manifest.json"),
                       "--split", "val", "--out", str(out)])
            assert rc == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]


class TestInspectParams:
    def test_default_shape_prints_expected_total(self, capsys):
        assert main(["inspect-params"]) == 0
        out = capsys.readouterr().out
        assert "total parameters: 1,609,095" in out

    def test_flag_overrides_shrink_the_model(self, capsys):
        assert main(["inspect-params", "--raw-dim", "1", "--feat-dim", "1",
                     "--num-frames", "2", "--widths", "2", "--num-filters", "1",
                     "--num-classes", "1"]) == 0
        out = capsys.readouterr().out
        assert "total parameters: 7" in out

    @pytest.mark.parametrize("widths", ["2,2", "2,2,3", "3,2,3"])
    def test_repeated_widths_are_validation_error(self, capsys, widths):
        assert main(["inspect-params", "--widths", widths]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: widths must be distinct")

    def test_reference_costs_are_echoed(self, tmp_path, capsys):
        ref = tmp_path / "ref.json"
        ref.write_text(json.dumps({"bignet": {"parameters": 25000000, "flops": 10**10}}))
        assert main(["inspect-params", "--reference", str(ref)]) == 0
        out = capsys.readouterr().out
        assert "reference bignet: parameters=25,000,000" in out


    @pytest.mark.parametrize("text, cited", [
        ('{"bignet": {"flops": 10}}', "'bignet'"),
        ('{"bignet": {"parameters": "many", "flops": 10}}', "'bignet'"),
        ('{"ok": {"parameters": 1, "flops": 2}, "bad": {"parameters": true, "flops": 2}}',
         "'bad'"),
        ('{"bignet": 5}', "'bignet'"),
        ('[["bignet", {"parameters": 1, "flops": 2}]]', "must be an object"),
        ('{bignet', "cannot parse"),
        (b'\xff{"bignet": {"parameters": 1, "flops": 2}}', "cannot parse"),  # not UTF-8
    ])
    def test_malformed_reference_is_validation_error(self, tmp_path, capsys, text, cited):
        ref = tmp_path / "ref.json"
        ref.write_bytes(text if isinstance(text, bytes) else text.encode())
        assert main(["inspect-params", "--reference", str(ref)]) == 2
        err = capsys.readouterr().err
        assert str(ref) in err and cited in err


class TestUsageAndConfig:
    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["selftest", "--bogus"]) == 1

    @pytest.mark.parametrize("argv", [
        ["eval", "--initial-lr", "1", "--checkpoint", "c.ckpt", "--manifest", "m.json"],
        ["predict", "--widths", "7", "--checkpoint", "c.ckpt", "--manifest", "m.json"],
        ["export-features", "--synth-seed", "1", "--checkpoint", "c.ckpt"],
        ["export-responses", "--raw-dim", "3", "--width", "2"],
        ["selftest", "--config", "x.json"],
        ["synth", "--max-epochs", "3"],
        ["synth", "--num-filters", "9"],
        ["train", "--synth-seed", "1", "--manifest", "m.json", "--out-dir", "r"],
        ["inspect-params", "--momentum", "0.1"],
        ["inspect-params", "--synth-dim", "3"],
    ])
    def test_config_flags_only_where_they_apply(self, argv, capsys):
        assert main(argv) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_config_key_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"train": {"nope": 1}}))
        assert main(["inspect-params", "--config", str(path)]) == 2

    def test_unparseable_config_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"train": {\n}')
        for command in ("synth", "train", "inspect-params"):
            assert main([command, "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert str(path) in err and "cannot parse config" in err

    def test_config_that_is_not_an_object_of_sections(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        for doc in ([1], {"train": 3}):
            path.write_text(json.dumps(doc))
            assert main(["inspect-params", "--config", str(path)]) == 2
            assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("command, section, field, value", [
        ("train", "train", "batch_size", 2.5),
        ("train", "train", "seed", "3"),
        ("inspect-params", "train", "dropout_keep", "0.5"),
        ("inspect-params", "train", "max_epochs", True),
        ("inspect-params", "shape", "raw_dim", 16.9),
        ("train", "shape", "num_filters", False),
        ("inspect-params", "shape", "widths", [2, 3.5]),
        ("synth", "synth", "samples_per_class", 2.5),
        ("synth", "synth", "noise_sigma", "0.1"),
        ("synth", "synth", "noise_sigma", True),
        ("synth", "synth", "val_samples_per_class", "2"),
        ("synth", "synth", "seed", 1.0),
        ("synth", "synth", "noise_sigma", math.nan),
        ("train", "train", "initial_lr", math.nan),
        ("train", "train", "weight_decay", math.inf),
        ("inspect-params", "train", "momentum", -math.inf),
        ("train", "shape", "widths", [2, 2]),
        ("inspect-params", "shape", "widths", [3, 2, 3]),
    ])
    def test_mistyped_config_value_is_validation_error(
        self, tmp_path, capsys, command, section, field, value
    ):
        cfg = base_config(tmp_path)
        doc = json.loads(cfg.read_text())
        doc[section][field] = value
        cfg.write_text(json.dumps(doc))
        argv = [command, "--config", str(cfg)]
        if command == "train":
            argv += ["--manifest", str(tmp_path / "m.json"), "--out-dir", str(tmp_path / "r")]
        if command == "synth":
            argv += ["--out-dir", str(tmp_path / "d")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err and "Traceback" not in err

    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        data_dir = tmp_path / "data"
        run_dir = tmp_path / "run"
        main(["synth", "--config", str(cfg), "--out-dir", str(data_dir)])
        rc = main(["train", "--config", str(cfg), "--seed", "99",
                   "--manifest", str(data_dir / "manifest.json"),
                   "--out-dir", str(run_dir)])
        assert rc == 0
        echoed = json.loads((run_dir / "config.json").read_text())
        assert echoed["train"]["seed"] == 99

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "din.cli", "inspect-params"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "1,609,095" in proc.stdout


def flags_where(kind) -> list[tuple[str, str]]:
    """(command, flag) for every flag of every command whose argparse
    action `kind` holds for."""
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [(name, action.option_strings[0]) for name, command in commands.choices.items()
            for action in command._actions if kind(action)]


def float_flags() -> list[tuple[str, str]]:
    """(command, flag) for every float-typed flag of every command."""
    return flags_where(lambda action: action.type is float)


def int_flags() -> list[tuple[str, str]]:
    """(command, flag) for every int-typed flag and every --widths."""
    return flags_where(lambda action: action.type is int or action.dest.endswith(".widths"))


def run_main(argv) -> tuple[int, str]:
    """(exit code, stderr) of an in-process din run; stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        return main(argv), err.getvalue()


# Float literals in the spellings a user may type: repr, exponent forms,
# and the inf and nan words in any case.
FLOAT_TEXT = st.one_of(
    st.floats().map(repr),
    st.floats(allow_nan=False).map(lambda x: f"{x:e}"),
    st.floats(allow_nan=False).map(lambda x: f"{x:.3E}"),
    st.sampled_from(["-inf", "-Infinity", "-INF", "-nan", "-NaN", "-1e-3", "-1E+400", "-0.5",
                     "-3", "-.5", "-1_000.5", "1e-3", "inf", "nan"]),
)


class TestFloatFlags:
    """Every float flag reads a value that starts with "-" (-inf, -nan,
    -1e-3) as a value: "--flag v" and "--flag=v" exit alike, with the same
    one-line stderr, and never as a missing argument."""

    def test_every_command_with_a_float_section_has_its_flags(self):
        assert {command for command, _ in float_flags()} == {"synth", "train"}
        assert len(float_flags()) == 6

    @pytest.mark.parametrize("argv", [["synth", "--synth-sigma", "-inf"],
                                      ["train", "--weight-decay", "-1e-3"]])
    def test_negative_non_decimal_values_reach_the_field_check(self, argv):
        rc, err = run_main(argv)
        assert rc == 2 and "expected one argument" not in err, err
        assert err.startswith("error: ") and err.count("\n") == 1

    @given(flag=st.sampled_from(float_flags()), text=FLOAT_TEXT)
    @example(flag=("synth", "--synth-sigma"), text="-inf")
    @example(flag=("train", "--weight-decay"), text="-1e-3")
    @settings(max_examples=120, derandomize=True, deadline=None)
    def test_both_forms_agree(self, flag, text):
        command, name = flag
        spaced = run_main([command, name, text])
        joined = run_main([command, f"{name}={text}"])
        assert spaced == joined
        rc, err = spaced
        # A valid value fails later, on the missing --out-dir.
        assert rc == 2 and err.startswith("error: ") and err.count("\n") == 1, err


# Values of int flags and of --widths, most of them starting with "-" and
# a digit or ".": integers, width lists, and text neither kind parses.
INT_TEXT = st.one_of(
    st.integers(-10**4, 10**4).map(str),
    st.lists(st.integers(-9, 9), min_size=1, max_size=4).map(lambda ws: ",".join(map(str, ws))),
    st.sampled_from(["-2,3", "-0", "-.5", "-1.5", "-1e3", "-1_000", "-2,,3", "-3,x", "-."]),
)


class TestIntFlags:
    """Every int flag and --widths reads a value that starts with "-" and a
    digit or "." (-2, -.5, the widths -2,3) as a value: "--flag v" and
    "--flag=v" exit alike, with the same stderr, and never as a missing
    argument."""

    def test_every_command_with_an_int_section_has_its_flags(self):
        assert {command for command, _ in int_flags()} == {
            "synth", "train", "inspect-params", "export-responses"}
        assert len(int_flags()) == 23

    def test_negative_width_reaches_the_field_check(self):
        want = (2, "error: every width must satisfy 2 <= h <= num_frames\n")
        assert run_main(["inspect-params", "--widths", "-2,3"]) == want
        assert run_main(["inspect-params", "--widths=-2,3"]) == want

    @given(flag=st.sampled_from(int_flags()), text=INT_TEXT)
    @example(flag=("train", "--widths"), text="-2,3")
    @example(flag=("export-responses", "--width"), text="-3")
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_both_forms_agree(self, flag, text):
        command, name = flag
        spaced = run_main([command, name, text])
        assert spaced == run_main([command, f"{name}={text}"])
        rc, err = spaced
        # inspect-params takes any valid value; the other commands fail
        # later, on a missing --out-dir or --checkpoint.
        assert (rc, err) == (0, "") or (
            rc in (1, 2) and err.count("\n") == 1 and "expected one argument" not in err), err


PAPER_SHAPE = {"raw_dim": 1024, "feat_dim": 256, "num_frames": 8, "widths": [2, 3, 4, 5, 6],
               "num_filters": 256, "num_classes": 27}

# Values of every kind a config document can hold: integers, wrong types,
# and lists that may repeat, be unsorted or hold non-integers; EDGE_VALUES
# are the ones a number check is most likely to let through.
CONFIG_VALUES = st.one_of(
    st.integers(), st.floats(), st.booleans(), st.none(), st.text(max_size=3),
    st.lists(st.one_of(st.integers(-1, 9), st.floats(), st.booleans()), max_size=5),
)
EDGE_VALUES = st.sampled_from([math.nan, math.inf, -math.inf, True, False, None, 0, -1])
CONFIG_FIELDS = [(section, f.name) for section, record in SECTIONS.items() for f in fields(record)]


def plausible(field):
    """Values of the field's own type that often pass; widths often repeat."""
    if field.name == "widths":
        return st.lists(st.integers(2, 8), min_size=1, max_size=5)
    if field.name in ("raw_dim", "num_frames"):
        return st.integers(256, 2048) if field.name == "raw_dim" else st.integers(8, 12)
    return st.floats(0.01, 0.99) if field.type == "float" else st.integers(2, 12)


@st.composite
def config_docs(draw):
    """A --config document: mostly an object of sections of plausible
    values in which up to two fields take an edge value or any value;
    sometimes with an unknown key or section, sometimes not an object of
    sections at all."""
    if draw(st.sampled_from(range(8))) == 7:
        return draw(st.one_of(CONFIG_VALUES, st.dictionaries(
            st.sampled_from(list(SECTIONS)), CONFIG_VALUES, min_size=1, max_size=2)))
    doc = {name: {f.name: draw(plausible(f)) for f in fields(record) if draw(st.booleans())}
           for name, record in SECTIONS.items() if draw(st.booleans())}
    for section, name in draw(st.permutations(CONFIG_FIELDS))[: draw(st.integers(0, 2))]:
        kind = draw(st.sampled_from([EDGE_VALUES, CONFIG_VALUES]))
        doc.setdefault(section, {})[name] = draw(kind)
    if draw(st.sampled_from(range(8))) == 7:
        section = draw(st.sampled_from([*SECTIONS, "bogus"]))
        doc.setdefault(section, {})[draw(st.sampled_from(["bogus", "Seed", ""]))] = 1
    return doc


class TestConfigFuzz:
    """inspect-params on drawn --config documents never raises: it returns
    0, 1 or 2, and a failing run prints one stderr line and nothing else. A
    run that passes read no NaN or infinite number and prints the parameter
    total of a shape whose widths are distinct."""

    @pytest.fixture(scope="class")
    def config_path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("config_fuzz") / "config.json"

    @given(doc=config_docs())
    @example(doc={"shape": {"widths": [3, 2, 3]}})
    @example(doc={"train": {"initial_lr": math.nan, "weight_decay": math.inf}})
    @example(doc={"synth": {"noise_sigma": math.nan}})
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_inspect_params_on_drawn_configs(self, config_path, doc):
        config_path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["inspect-params", "--config", str(config_path)])
        assert rc in (0, 1, 2)
        if rc:
            assert out.getvalue() == "" and err.getvalue().count("\n") == 1
            assert err.getvalue().startswith("error: " if rc == 2 else "usage error: ")
            return
        assert err.getvalue() == ""
        values = [v for section in doc.values() for v in section.values()]
        assert not any(isinstance(v, float) and not math.isfinite(v) for v in values)
        shape = {**PAPER_SHAPE, **doc.get("shape", {})}
        assert len(set(shape["widths"])) == len(shape["widths"])
        total = count_parameters(ModelShapeSpec(**shape)).total
        assert f"total parameters: {total:,}\n" in out.getvalue()
