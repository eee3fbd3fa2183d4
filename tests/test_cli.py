import argparse
import contextlib
import errno
import io
import json
import math
import os
import resource
import signal
import struct
import subprocess
import sys
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
    with_meta_block,
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


def derived_config(path, dest, **sections):
    """Write to `dest` the config file at `path` with each keyword's
    section updated by its dict of values, and return `dest`. A run is
    extended by its own <out-dir>/config.json with a larger max_epochs."""
    doc = json.loads(path.read_text())
    for section, values in sections.items():
        doc.setdefault(section, {}).update(values)
    dest.write_text(json.dumps(doc))
    return dest


def four_epochs_two_ways(tmp_path, cfg):
    """(dir of an uninterrupted 4-epoch train, dir of a 2-epoch train
    resumed to 4 by its config.json with max_epochs 4), both from a fresh
    synth dataset."""
    data_dir = tmp_path / "data"
    assert main(["synth", "--config", str(cfg), "--out-dir", str(data_dir)]) == 0
    manifest = ["--manifest", str(data_dir / "manifest.json")]
    dir_4, dir_2, dir_resumed = tmp_path / "four", tmp_path / "two", tmp_path / "resumed"
    assert main(["train", "--config", str(cfg), *manifest, "--out-dir", str(dir_2)]) == 0
    four = derived_config(dir_2 / "config.json", tmp_path / "four.json", train={"max_epochs": 4})
    train = ["train", "--config", str(four), *manifest]
    assert main([*train, "--out-dir", str(dir_4)]) == 0
    assert main([*train, "--out-dir", str(dir_resumed),
                 "--resume", str(dir_2 / "checkpoint.ckpt")]) == 0
    return dir_4, dir_resumed


# A JSON document nested deeper than the parser's recursion limit.
DEEP_JSON = "[" * 100_000 + "\n"

NO_BEST_ERROR = "invalid meta block: has_best must be true, got False"


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """(manifest, run directory) of one `din train` of base_config's data,
    for tests that only read them."""
    tmp_path = tmp_path_factory.mktemp("trained")
    cfg, data_dir, run_dir = base_config(tmp_path), tmp_path / "data", tmp_path / "run"
    manifest = data_dir / "manifest.json"
    assert run_main(["synth", "--config", str(cfg), "--out-dir", str(data_dir)])[0] == 0
    assert run_main(["train", "--config", str(cfg), "--manifest", str(manifest),
                     "--out-dir", str(run_dir)])[0] == 0
    return manifest, run_dir


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

    def test_missing_out_dir_is_usage_error(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        assert main(["synth", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            "usage error: the following arguments are required: --out-dir\n")

    def test_noise_beyond_float32_is_validation_error(self, tmp_path, capsys):
        out_dir = tmp_path / "huge"
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps({"synth": {"samples_per_class": 1, "noise_sigma": 1e39}}))
        assert main(["synth", "--config", str(cfg), "--out-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "finite in float32" in err
        assert list((out_dir / "features").iterdir()) == []

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_sigma_is_validation_error(self, tmp_path, capsys, value):
        out_dir = tmp_path / "data"
        cfg = tmp_path / "sigma.json"
        cfg.write_text(json.dumps({"synth": {"noise_sigma": float(value)}}))
        assert main(["synth", "--config", str(cfg), "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}: noise_sigma must be finite, got {value}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("argv, error", [
        (["synth"], "noise_sigma and seed must be >= 0"),
        (["train", "--manifest", "m.json"], "weight_decay, initial_lr and seed must be >= 0"),
    ], ids=["synth", "train"])
    def test_negative_seed_fails_before_anything_is_created(self, tmp_path, capsys, argv, error):
        cfg = tmp_path / "seed.json"
        cfg.write_text(json.dumps({argv[0]: {"seed": -1}}))
        assert main([*argv, "--config", str(cfg), "--out-dir", str(tmp_path / "a" / "b")]) == 2
        assert capsys.readouterr().err == f"error: {cfg}: {error}\n"
        assert list(tmp_path.iterdir()) == [cfg]


# Manifest edits that `din train` rejects, each with its error ("%s" is
# the manifest's path).
BROKEN_MANIFESTS = {
    "no-classes": (lambda doc: doc.update(classes=[]), "%s: 'classes' must be a non-empty list"),
    "samples-not-a-list": (lambda doc: doc.update(samples={}), "%s: 'samples' must be a list"),
    "record-not-an-object": (lambda doc: doc["samples"].insert(0, 3),
                             "%s: sample records must be objects: 3"),
    "record-without-id": (lambda doc: doc["samples"].insert(0, {"id": "", "label": 0}),
                          "%s: sample without a valid id: {'id': '', 'label': 0}"),
    "empty-train": (lambda doc: doc.update(samples=[r for r in doc["samples"]
                                                    if r["split"] != "train"]),
                    "split 'train' is empty in %s"),
    "empty-val": (lambda doc: doc.update(samples=[r for r in doc["samples"]
                                                  if r["split"] != "val"]),
                  "split 'val' is empty in %s"),
}


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

    def test_resume_matches_uninterrupted_across_rate_decays(self, tmp_path, capsys):
        # At patience 1 the rate decays before the resume point and after it.
        cfg = base_config(tmp_path, plateau_patience=1)
        dir_4, dir_resumed = four_epochs_two_ways(tmp_path, cfg)
        for name in ("history.json", "checkpoint.ckpt"):
            assert (dir_4 / name).read_bytes() == (dir_resumed / name).read_bytes()
        reports = json.loads((dir_4 / "history.json").read_text())["reports"]
        rates = [r["current_lr"] for r in reports]
        assert rates[0] > rates[2] > rates[3], rates

    def test_written_checkpoints_keep_their_bookkeeping_consistent(self, tmp_path, capsys):
        dir_4, dir_resumed = four_epochs_two_ways(tmp_path, base_config(tmp_path))
        for run_dir in (dir_4, tmp_path / "two", dir_resumed):
            ckpt = load_checkpoint(run_dir / "checkpoint.ckpt")
            done = len(ckpt.state.history)
            assert [r.epoch for r in ckpt.state.history] == list(range(done))
            assert 0 <= ckpt.state.best_epoch < done
            assert 0 <= trainer.schedule(ckpt.state.history, ckpt.config)[2] <= done

    @pytest.mark.parametrize("edit, field", [
        (lambda m: m["optimizer"].update(epochs_completed=-2), "epochs_completed"),
        (lambda m: m["optimizer"].update(epochs_since_improvement=-1), "epochs_since_improvement"),
        (lambda m: m["optimizer"].update(epochs_completed=1),
         "optimizer.epochs_completed must be 2, got 1"),
        (lambda m: m["history"].pop(0), "history epochs [1]"),
        (lambda m: m.update(best_epoch=2), "best_epoch must be 0, got 2"),
        (lambda m: (m["optimizer"].update(current_lr=-0.5), m.update(best_val_accuracy=7.0)),
         "optimizer.current_lr must be 0.05, got -0.5"),
        (lambda m: m.update(best_val_accuracy=7.0), "best_val_accuracy must be 0.625, got 7.0"),
        # In range, but not what the history gives: each used to resume on
        # another schedule, at another rate or with another history.
        (lambda m: m["optimizer"].update(best_val_error=0.0),
         "optimizer.best_val_error must be 0.375, got 0.0"),
        (lambda m: m["optimizer"].update(current_lr=0.5),
         "optimizer.current_lr must be 0.05, got 0.5"),
        (lambda m: m["optimizer"].update(epochs_since_improvement=40),
         "optimizer.epochs_since_improvement must be 1, got 40"),
        (lambda m: m["history"][1].update(current_lr=7.0),
         "history.1.current_lr must be 0.05, got 7.0"),
    ], ids=["negative-epochs", "negative-patience", "history-ahead", "history-gap", "best",
            "negative-lr", "best-accuracy", "best-error", "lr", "patience", "history-lr"])
    def test_resume_from_inconsistent_bookkeeping_is_validation_error(
        self, tmp_path, capsys, edit, field
    ):
        cfg, data_dir, run_dir = synth_and_train(tmp_path, capsys)
        ckpt = run_dir / "checkpoint.ckpt"
        ckpt.write_bytes(edit_checkpoint_meta(ckpt.read_bytes(), edit))
        four = derived_config(run_dir / "config.json", tmp_path / "four.json",
                              train={"max_epochs": 4})
        out_dir = tmp_path / "resumed"
        rc = main(["train", "--config", str(four), "--manifest", str(data_dir / "manifest.json"),
                   "--out-dir", str(out_dir), "--resume", str(ckpt)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: {ckpt}: invalid meta block: ")
        assert field in captured.err
        assert not out_dir.exists()

    def test_resume_without_a_best_snapshot_is_validation_error(self, tmp_path, capsys):
        cfg, data_dir, run_dir = synth_and_train(tmp_path, capsys)
        ckpt = no_best_checkpoint(run_dir, tmp_path)
        four = derived_config(run_dir / "config.json", tmp_path / "four.json",
                              train={"max_epochs": 4})
        out_dir = tmp_path / "new" / "resumed"
        rc = main(["train", "--config", str(four), "--manifest", str(data_dir / "manifest.json"),
                   "--out-dir", str(out_dir), "--resume", str(ckpt)])
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

    @pytest.mark.parametrize("changes, diffs", [
        ({"shape": {"num_filters": 5}}, "shape.num_filters 4 -> 5"),
        ({"train": {"seed": 6, "batch_size": 3}}, "train.batch_size 8 -> 3, train.seed 5 -> 6"),
    ], ids=["shape", "train"])
    def test_resume_with_another_config_is_validation_error(
        self, tmp_path, capsys, changes, diffs
    ):
        cfg, data_dir, run_dir = synth_and_train(tmp_path, capsys)
        ckpt = run_dir / "checkpoint.ckpt"
        before = ckpt.read_bytes()
        four = derived_config(run_dir / "config.json", tmp_path / "four.json",
                              train={"max_epochs": 4})
        other = derived_config(four, tmp_path / "other.json", **changes)
        out_dir = tmp_path / "resumed"
        rc = main(["train", "--config", str(other), "--manifest", str(data_dir / "manifest.json"),
                   "--out-dir", str(out_dir), "--resume", str(ckpt)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {ckpt}: cannot resume with a different configuration "
                                f"(only max_epochs may change): {diffs}\n")
        assert not out_dir.exists() and ckpt.read_bytes() == before

    def test_resume_to_fewer_epochs_than_completed_is_validation_error(self, tmp_path, capsys):
        cfg, data_dir, run_dir = synth_and_train(tmp_path, capsys)  # 2 epochs
        ckpt = run_dir / "checkpoint.ckpt"
        one = derived_config(run_dir / "config.json", tmp_path / "one.json",
                             train={"max_epochs": 1})
        out_dir = tmp_path / "new" / "resumed"
        rc = main(["train", "--config", str(one), "--manifest", str(data_dir / "manifest.json"),
                   "--out-dir", str(out_dir), "--resume", str(ckpt)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {ckpt}: max_epochs 1 is below its 2 completed epochs\n"
        assert not (tmp_path / "new").exists()

    def test_resume_to_the_epochs_completed_saves_the_same_run(self, tmp_path, capsys):
        cfg, data_dir, run_dir = synth_and_train(tmp_path, capsys)  # 2 epochs
        out_dir = tmp_path / "resaved"
        rc = main(["train", "--config", str(run_dir / "config.json"),
                   "--manifest", str(data_dir / "manifest.json"),
                   "--out-dir", str(out_dir), "--resume", str(run_dir / "checkpoint.ckpt")])
        assert rc == 0
        for name in ("checkpoint.ckpt", "history.json", "config.json"):
            assert (out_dir / name).read_bytes() == (run_dir / name).read_bytes(), name

    @pytest.mark.parametrize("broken", ["missing-manifest", "class-count", *BROKEN_MANIFESTS])
    def test_failed_train_leaves_no_out_dir(self, tmp_path, capsys, broken):
        cfg, data_dir, _ = synth_and_train(tmp_path, capsys)
        manifest = data_dir / "manifest.json"
        if broken == "missing-manifest":
            manifest.unlink()
        elif broken == "class-count":
            add_third_class(data_dir)
        else:
            doc = json.loads(manifest.read_text())
            BROKEN_MANIFESTS[broken][0](doc)
            manifest.write_text(json.dumps(doc))
        out_dir = tmp_path / "failed" / "run"
        rc = main(["train", "--config", str(cfg), "--manifest", str(manifest),
                   "--out-dir", str(out_dir)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(manifest) in err, err
        if broken in BROKEN_MANIFESTS:
            assert err == f"error: {BROKEN_MANIFESTS[broken][1] % manifest}\n"
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
        wide = derived_config(cfg, tmp_path / "wide.json", shape={"raw_dim": 99})
        rc = main(["train", "--config", str(wide),
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

    @pytest.mark.parametrize("value, field", [
        pytest.param("nan", "initial_lr", id="initial_lr"),
        pytest.param("inf", "weight_decay", id="weight_decay"),
    ])
    def test_non_finite_value_is_a_config_error(self, tmp_path, capsys, value, field):
        cfg = base_config(tmp_path)
        data_dir = tmp_path / "data"
        assert main(["synth", "--config", str(cfg), "--out-dir", str(data_dir)]) == 0
        capsys.readouterr()
        bad = derived_config(cfg, tmp_path / "bad.json", train={field: float(value)})
        out_dir = tmp_path / "run"
        rc = main(["train", "--config", str(bad), "--manifest", str(data_dir / "manifest.json"),
                   "--out-dir", str(out_dir)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {bad}: {field} must be finite, got {value}\n"
        assert not out_dir.exists()

    def test_diverging_run_prints_one_error_line(self, tmp_path, capsys):
        cfg = derived_config(base_config(tmp_path), tmp_path / "diverge.json",
                             train={"initial_lr": 1e200}, synth={"samples_per_class": 16})
        data_dir = tmp_path / "data"
        assert main(["synth", "--config", str(cfg), "--out-dir", str(data_dir)]) == 0
        proc = run_din("train", "--config", cfg, "--manifest", data_dir / "manifest.json",
                       "--out-dir", tmp_path / "run")
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("error: training diverged in epoch 0: ")

    @pytest.mark.parametrize("existed", [False, True])
    def test_diverging_run_keeps_its_out_dir(self, tmp_path, capsys, existed):
        cfg = base_config(tmp_path, initial_lr=1e200)
        data_dir = tmp_path / "data"
        assert main(["synth", "--config", str(cfg), "--out-dir", str(data_dir)]) == 0
        out_dir = tmp_path / "new" / "run"
        if existed:
            out_dir.mkdir(parents=True)
            (out_dir / "notes.txt").write_text("kept")
        capsys.readouterr()
        rc = main(["train", "--config", str(cfg), "--manifest", str(data_dir / "manifest.json"),
                   "--out-dir", str(out_dir)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: training diverged in epoch 0: ")
        expected = ["config.json", "notes.txt"] if existed else ["config.json"]
        assert sorted(p.name for p in out_dir.iterdir()) == expected

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


# What a `din train` that stops after an epoch (killed, or failing in a
# later one) leaves in its out-dir: all but the end-of-run run_meta.json.
RUN_FILES = ["checkpoint.ckpt", "config.json", "history.json"]


# `python -c` this, then the count k, then din's argv: din killed by SIGKILL
# right after it prints its k-th "epoch " line.
KILL_AFTER_EPOCH_LINE = """
import os, signal, sys
import din.cli

kill_after, lines = int(sys.argv[1]), 0


def print_then_die(*args, **kwargs):
    global lines
    print(*args, **kwargs)
    lines += str(args[0]).startswith("epoch ")
    if lines == kill_after:
        os.kill(os.getpid(), signal.SIGKILL)


din.cli.print = print_then_die
sys.exit(din.cli.main(sys.argv[2:]))
"""


# `python -c` this, then din's argv: din killed by SIGKILL in the middle of
# writing the first file it writes in five or more parts (the first
# checkpoint), once its first bytes are in the file.
KILL_IN_FIRST_WRITE = """
import os, signal, sys
import din.cli
import din.data_io

real_open = open


class DyingFile:
    def __init__(self, f):
        self.f, self.writes = f, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def flush(self):
        self.f.flush()

    def write(self, data):
        self.f.write(data)
        self.writes += 1
        if self.writes == 5:  # the magic, header, meta and count, then a tensor entry
            self.f.flush()
            os.kill(os.getpid(), signal.SIGKILL)


def open_dying(file, mode="r", *args, **kwargs):
    f = real_open(file, mode, *args, **kwargs)
    return DyingFile(f) if "w" in mode or "x" in mode else f


din.data_io.open = open_dying
sys.exit(din.cli.main(sys.argv[1:]))
"""


class TestBestSnapshotFile:
    """`din train` keeps its best snapshot in the checkpoint file it rewrites
    after every epoch, so it holds the model twice (parameters and
    velocity), not three times, and a killed run leaves no partial file."""

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
        # One untraced run measures the run's scratch after each validation pass.
        real_evaluate, scratch_bytes = trainer.evaluate, []

        def measured_evaluate(params, samples, scratch):
            result = real_evaluate(params, samples, scratch)
            scratch_bytes.append(sum(a.nbytes for a in scratch.values()))
            return result

        monkeypatch.setattr(trainer, "evaluate", measured_evaluate)
        assert main([*train, "--out-dir", str(tmp_path / "measure")]) == 0
        monkeypatch.setattr(trainer, "evaluate", real_evaluate)
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

    def test_killed_run_leaves_no_snapshot_file(self, tmp_path, capsys):
        # Killed halfway through writing its first checkpoint, after epoch
        # 0: the file had no name yet, so the out-dir holds only config.json.
        cfg = base_config(tmp_path)
        data_dir, out_dir = tmp_path / "data", tmp_path / "run"
        assert main(["synth", "--config", str(cfg), "--out-dir", str(data_dir)]) == 0
        proc = subprocess.run(
            [sys.executable, "-c", KILL_IN_FIRST_WRITE, "train", "--config", str(cfg),
             "--manifest", str(data_dir / "manifest.json"), "--out-dir", str(out_dir)],
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        assert proc.stdout == ""
        assert [p.name for p in out_dir.iterdir()] == ["config.json"]


class TestCheckpointEveryEpoch:
    """`din train` rewrites its checkpoint after every epoch, so a killed run
    resumes from its last finished epoch, and a failed one keeps the
    checkpoint of its last finished epoch."""

    @pytest.mark.parametrize("lr, best_epoch", [("0.05", 3), ("0.2", 1)],
                             ids=["last-epoch-improves", "later-epochs-do-not-improve"])
    def test_killed_run_resumes_to_the_uninterrupted_bytes(self, tmp_path, capsys, lr, best_epoch):
        # An epoch that does not improve copies best/ from the checkpoint
        # before it: the one this run wrote, or the one it resumed.
        cfg = base_config(tmp_path, max_epochs=4, initial_lr=float(lr))
        data_dir = tmp_path / "data"
        assert main(["synth", "--config", str(cfg), "--out-dir", str(data_dir)]) == 0
        train = ["train", "--config", str(cfg), "--manifest", str(data_dir / "manifest.json")]
        assert main([*train, "--out-dir", str(tmp_path / "whole")]) == 0
        artifacts = ("checkpoint.ckpt", "history.json")
        whole = [(tmp_path / "whole" / name).read_bytes() for name in artifacts]
        assert json.loads(whole[1])["best_epoch"] == best_epoch
        for k in (1, 2, 3):
            killed = tmp_path / f"killed{k}"
            proc = subprocess.run(
                [sys.executable, "-c", KILL_AFTER_EPOCH_LINE, str(k), *train,
                 "--out-dir", str(killed)], capture_output=True, text=True, env=child_env())
            assert proc.returncode == -signal.SIGKILL, proc.stderr
            assert [line[:8] for line in proc.stdout.splitlines()] == [
                f"epoch {epoch}:" for epoch in range(k)]
            assert sorted(p.name for p in killed.iterdir()) == RUN_FILES
            assert len(load_checkpoint(killed / "checkpoint.ckpt").state.history) == k
            out_dir = killed if k == 2 else tmp_path / f"resumed{k}"  # k = 2 into its own dir
            assert main([*train, "--out-dir", str(out_dir),
                         "--resume", str(killed / "checkpoint.ckpt")]) == 0
            assert [(out_dir / name).read_bytes() for name in artifacts] == whole

    def test_killed_run_resumes_from_its_own_directory(self, tmp_path, capsys):
        # Killed after epoch 1 of 3: its out-dir holds the config and the
        # history of the epochs its checkpoint holds, and a copy of its own
        # config.json with a larger max_epochs extends it.
        cfg = base_config(tmp_path, max_epochs=3)
        data_dir = tmp_path / "data"
        assert main(["synth", "--config", str(cfg), "--out-dir", str(data_dir)]) == 0
        manifest = ["--manifest", str(data_dir / "manifest.json")]
        killed = tmp_path / "killed"
        proc = subprocess.run(
            [sys.executable, "-c", KILL_AFTER_EPOCH_LINE, "2", "train", "--config", str(cfg),
             *manifest, "--out-dir", str(killed)], capture_output=True, text=True, env=child_env())
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        assert sorted(p.name for p in killed.iterdir()) == RUN_FILES
        reports = json.loads((killed / "history.json").read_text())["reports"]
        history = load_checkpoint(killed / "checkpoint.ckpt").state.history
        assert [trainer.EpochReport(**r) for r in reports] == history and len(history) == 2
        four = derived_config(killed / "config.json", tmp_path / "four.json",
                              train={"max_epochs": 4})
        assert main(["train", "--config", str(four), *manifest, "--out-dir", str(killed),
                     "--resume", str(killed / "checkpoint.ckpt")]) == 0
        whole, whole_cfg = tmp_path / "whole", tmp_path / "whole.json"
        derived_config(cfg, whole_cfg, train={"max_epochs": 4})
        assert main(["train", "--config", str(whole_cfg), *manifest, "--out-dir", str(whole)]) == 0
        for name in ("checkpoint.ckpt", "history.json", "config.json"):
            assert (killed / name).read_bytes() == (whole / name).read_bytes(), name

    def test_run_failing_after_its_first_epoch_keeps_that_epochs_checkpoint(
        self, tmp_path, capsys, monkeypatch
    ):
        cfg = base_config(tmp_path)
        data_dir = tmp_path / "data"
        assert main(["synth", "--config", str(cfg), "--out-dir", str(data_dir)]) == 0
        real_evaluate, calls = trainer.evaluate, []

        def evaluate_failing_in_epoch_1(*args):
            calls.append(args)
            if len(calls) == 2:
                raise ArithmeticError("injected")
            return real_evaluate(*args)

        monkeypatch.setattr(trainer, "evaluate", evaluate_failing_in_epoch_1)
        out_dir = tmp_path / "new" / "run"
        capsys.readouterr()
        rc = main(["train", "--config", str(cfg), "--manifest", str(data_dir / "manifest.json"),
                   "--out-dir", str(out_dir)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == "error: training diverged in epoch 1: injected\n"
        assert [line[:8] for line in captured.out.splitlines()] == ["epoch 0:"]
        assert sorted(p.name for p in out_dir.iterdir()) == RUN_FILES
        assert len(load_checkpoint(out_dir / "checkpoint.ckpt").state.history) == 1


class TestOutOfMemory:
    """Running out of memory is a validation error: exit 2 and one line."""

    @pytest.mark.parametrize("shape, where", [
        pytest.param({"num_filters": 200_000_000}, "init_model", id="init_model"),
        pytest.param({"num_frames": 300_000_000}, "fit", id="fit"),
    ])
    def test_exits_2_with_one_line(self, tmp_path, capsys, shape, where):
        cfg = base_config(tmp_path)
        data_dir = tmp_path / "data"
        assert main(["synth", "--config", str(cfg), "--out-dir", str(data_dir)]) == 0
        huge = derived_config(cfg, tmp_path / "huge.json", shape=shape)
        out_dir = tmp_path / "new" / "run"
        limit = 3 << 30  # the child's address space only; this process keeps its own
        proc = subprocess.run(
            [sys.executable, "-m", "din.cli", "train", "--config", str(huge),
             "--manifest", str(data_dir / "manifest.json"), "--out-dir", str(out_dir)],
            capture_output=True, text=True, env=child_env(OPENBLAS_NUM_THREADS="1"),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: Unable to allocate ")
        assert proc.stderr.count("\n") == 1
        if where == "fit":  # the out-dir was made before fit, and is kept
            assert [p.name for p in out_dir.iterdir()] == ["config.json"]
        else:
            assert not (tmp_path / "new").exists()


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
        three = derived_config(run_dir / "config.json", tmp_path / "three.json",
                               train={"max_epochs": 3})
        argv = {
            "eval": ["eval", *model],
            "predict": ["predict", *model, "--out", out],
            "export-features": ["export-features", *model, "--out", out],
            "export-responses": ["export-responses", *model, "--width", "2", "--out", out],
            "resume": ["train", "--config", three, "--manifest", data_dir / "manifest.json",
                       "--out-dir", out, "--resume", path],
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

    def test_predict_without_out_writes_the_out_files_bytes_to_stdout(self, tmp_path, capsys):
        cfg, data_dir, run_dir = synth_and_train(tmp_path, capsys)
        argv = ["predict", "--checkpoint", str(run_dir / "checkpoint.ckpt"),
                "--manifest", str(data_dir / "manifest.json")]
        out_csv = tmp_path / "pred.csv"
        assert main([*argv, "--out", str(out_csv)]) == 0
        capsys.readouterr()
        listing = sorted(tmp_path.rglob("*"))
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.encode() == out_csv.read_bytes() and captured.err == ""
        assert sorted(tmp_path.rglob("*")) == listing

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

    @pytest.mark.parametrize("value", [5, "x", [], [1], {}, None],
                             ids=["int", "str", "empty-list", "list", "empty-object", "null"])
    @pytest.mark.parametrize("key", ["config", "shape", "history", "history.0"])
    def test_meta_value_of_another_kind_names_its_key(self, tmp_path, trained_run, key, value):
        manifest, run_dir = trained_run
        ckpt = tmp_path / "edited.ckpt"

        def edit(meta):
            if key == "history.0":
                meta["history"][0] = value
            else:
                meta[key] = value

        ckpt.write_bytes(edit_checkpoint_meta((run_dir / "checkpoint.ckpt").read_bytes(), edit))
        rc, err = run_main(["eval", "--checkpoint", str(ckpt), "--manifest", str(manifest)])
        # An empty history is well formed; the line names the first field
        # that the run's two epochs determined and it contradicts.
        named = ("optimizer.best_val_error must be Infinity" if (key, value) == ("history", [])
                 else key)
        assert rc == 2 and err.count("\n") == 1, err
        assert err.startswith(f"error: {ckpt}: invalid meta block: {named}"), err

    @pytest.mark.parametrize("depth", [900, 980])
    def test_deeply_nested_meta_value_is_shown_bounded(self, tmp_path, trained_run, depth):
        # Nested this deep, the value parses and prints as JSON only in a
        # shallow stack: the meta is edited as bytes and read by a command.
        manifest, run_dir = trained_run
        ckpt = tmp_path / "deep.ckpt"
        blob = (run_dir / "checkpoint.ckpt").read_bytes()
        (meta_len,) = struct.unpack_from("<I", blob, 6)
        meta = blob[10 : 10 + meta_len].replace(b'"best_epoch": 0',
                                                b'"best_epoch": ' + b"[" * depth + b"]" * depth)
        ckpt.write_bytes(with_meta_block(blob, meta))
        proc = run_din("eval", "--checkpoint", ckpt, "--manifest", manifest)
        assert proc.returncode == 2
        assert proc.stderr == (f"error: {ckpt}: invalid meta block: "
                               "best_epoch must be 0, got [[...]]\n")
        assert len(proc.stderr) < 200

    def test_deeply_nested_manifest_names_the_file(self, tmp_path, capsys):
        cfg, data_dir, run_dir = synth_and_train(tmp_path, capsys)
        manifest = tmp_path / "deep.json"
        manifest.write_text(DEEP_JSON)
        rc = main(["eval", "--checkpoint", str(run_dir / "checkpoint.ckpt"),
                   "--manifest", str(manifest)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {manifest}: cannot parse manifest: ")
        assert err.count("\n") == 1

    def test_deeply_nested_checkpoint_meta_names_the_file(self, tmp_path, capsys):
        cfg, data_dir, run_dir = synth_and_train(tmp_path, capsys)
        ckpt = tmp_path / "deep.ckpt"
        ckpt.write_bytes(with_meta_block((run_dir / "checkpoint.ckpt").read_bytes(),
                                         DEEP_JSON.encode()))
        rc = main(["eval", "--checkpoint", str(ckpt),
                   "--manifest", str(data_dir / "manifest.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt}: bad meta block: ") and err.count("\n") == 1

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
        loss, accuracy, _ = trainer.evaluate(params, samples, {})
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
            three = derived_config(out / "config.json", tmp_path / f"{out.name}-three.json",
                                   train={"max_epochs": 3})
            assert main(["train", "--config", str(three), "--manifest", manifest,
                         "--out-dir", str(out / "resumed"),
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
        Epoch 1 then reads it again and must fail, naming it. The run keeps
        its out-dir with epoch 0's checkpoint and history.json."""
        cfg = base_config(tmp_path)
        data_dir = tmp_path / "data"
        assert main(["synth", "--config", str(cfg), "--out-dir", str(data_dir)]) == 0
        doc = json.loads((data_dir / "manifest.json").read_text())
        path = data_dir / next(r for r in doc["samples"] if r["split"] == split)["feature_path"]
        real = trainer.evaluate

        def evaluate(params, samples, scratch):  # runs after each epoch's training
            first = not changed
            if first and split == "train":
                change_feature_file(path, change)
            result = real(params, samples, scratch)
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
        assert [line[:8] for line in captured.out.splitlines()] == ["epoch 0:"]
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert str(path) in captured.err and "Traceback" not in captured.err
        assert sorted(p.name for p in out.iterdir()) == RUN_FILES
        assert len(load_checkpoint(out / "checkpoint.ckpt").state.history) == 1

    @pytest.mark.parametrize("change", ["size", "rewrite", "delete"])
    def test_train_keeps_epoch_0s_checkpoint(self, tmp_path, capsys, monkeypatch, change):
        self.train_with_a_changed_file(tmp_path, capsys, monkeypatch, "train", change)

    @pytest.mark.parametrize("change", ["size", "rewrite", "delete"])
    def test_changed_val_file_keeps_epoch_0s_checkpoint(
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
        pytest.param(["export-features"],
                     "usage error: the following arguments are required: --out\n",
                     id="features-no-out"),
        pytest.param(["export-responses", "--width", "2"],
                     "usage error: the following arguments are required: --out\n",
                     id="responses-no-out"),
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
        assert rc == (1 if message.startswith("usage error: ") else 2)
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


class TestFailedOutWrites:
    """An --out that cannot be written is an exit-2 error whose one line
    names the --out path and the reason, the same in every run (not the
    temporary file's random name), and no temporary file is left."""

    @pytest.mark.parametrize("command", [["predict"], ["export-features"],
                                         ["export-responses", "--width", "2"]],
                             ids=lambda argv: argv[0])
    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    def test_error_names_the_out_path(self, tmp_path, capsys, command, target):
        cfg, data_dir, run_dir = synth_and_train(tmp_path, capsys)
        outs = tmp_path / "outs"
        outs.mkdir()
        if target == "missing-dir":
            out, code = outs / "nodir" / "p.csv", errno.ENOENT
        else:
            out, code = outs / "ro", errno.EISDIR
            out.mkdir()
        argv = [*command, "--checkpoint", str(run_dir / "checkpoint.ckpt"),
                "--manifest", str(data_dir / "manifest.json"), "--split", "val", "--out", str(out)]
        errors = []
        for _ in range(2):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert errors == [f"error: {out}: {os.strerror(code)}\n"] * 2
        assert ".tmp" not in errors[0]
        assert [p.name for p in outs.rglob("*")] == ([] if target == "missing-dir" else ["ro"])


class TestInspectParams:
    def test_default_shape_prints_expected_total(self, capsys):
        assert main(["inspect-params"]) == 0
        out = capsys.readouterr().out
        assert "total parameters: 1,609,095" in out

    @pytest.mark.parametrize("widths", ["2,2", "2,2,3", "3,2,3"])
    def test_repeated_widths_are_validation_error(self, tmp_path, capsys, widths):
        cfg = tmp_path / "widths.json"
        cfg.write_text(json.dumps({"shape": {"widths": [int(h) for h in widths.split(",")]}}))
        assert main(["inspect-params", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {cfg}: widths must be distinct")

    def test_negative_width_is_validation_error(self, tmp_path, capsys):
        cfg = tmp_path / "widths.json"
        cfg.write_text(json.dumps({"shape": {"widths": [-2, 3]}}))
        assert main(["inspect-params", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {cfg}: every width must satisfy 2 <= h <= num_frames\n"

    def test_reference_is_usage_error(self, capsys):
        assert main(["inspect-params", "--reference", "x.json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: ") and captured.err.count("\n") == 1


class TestUsageAndConfig:
    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["selftest", "--bogus"]) == 1

    @pytest.mark.parametrize("argv", [
        ["eval", "--config", "x.json", "--checkpoint", "c.ckpt", "--manifest", "m.json"],
        ["eval", "--config=x.json"],
        ["predict", "--config", "x.json", "--checkpoint", "c.ckpt", "--manifest", "m.json"],
        ["predict", "--config=x.json", "--out", "p.csv"],
        ["export-features", "--config", "x.json", "--checkpoint", "c.ckpt"],
        ["export-features", "--config=x.json", "--out", "f.csv"],
        ["export-responses", "--config", "x.json", "--width", "2"],
        ["export-responses", "--config=x.json", "--checkpoint", "c.ckpt"],
        ["selftest", "--config", "x.json"],
        ["selftest", "--config=x.json"],
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
        out_dir = ["--out-dir", str(tmp_path / "out")]
        manifest = ["--manifest", str(tmp_path / "m.json")]
        for argv in (["synth", *out_dir], ["train", *manifest, *out_dir], ["inspect-params"]):
            assert main([*argv, "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert str(path) in err and "cannot parse config" in err

    def test_deeply_nested_config_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text(DEEP_JSON)
        assert main(["inspect-params", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: cannot parse config: ") and err.count("\n") == 1

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
        assert err.startswith(f"error: {cfg}: ") and field in err and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["synth", "train", "inspect-params"])
    @pytest.mark.parametrize("text, error", [
        ('{"bogus": {}}', "unknown config sections: ['bogus']"),
        ('{"train": {"nope": 1}}', "TrainConfig: unknown key 'nope'"),
        ('{"shape": {"Seed": 1}}', "ModelShapeSpec: unknown key 'Seed'"),
        ('{"train": {"seed": "3"}}', "seed must be an integer, got '3'"),
        ('{"train": {"batch_size": 0}}', "batch_size must be >= 1"),
        ('{"synth": {"seed": -1}}', "noise_sigma and seed must be >= 0"),
        ('{"train": 3}', "config must be an object of section objects"),
        ('{"train": ', "cannot parse config: Expecting value: line 1 column 11 (char 10)"),
    ], ids=["section", "train-key", "shape-key", "type", "range", "synth-range", "section-type",
            "syntax"])
    def test_every_config_error_names_the_file(self, tmp_path, capsys, command, text, error):
        path = tmp_path / "config.json"
        path.write_text(text)
        out_dir = tmp_path / "out"
        argv = {"synth": ["--out-dir", str(out_dir)],
                "train": ["--manifest", str(tmp_path / "m.json"), "--out-dir", str(out_dir)],
                "inspect-params": []}[command]
        assert main([command, "--config", str(path), *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: {error}\n"
        assert not out_dir.exists()

    def test_deeply_nested_config_value_is_one_error_line(self, tmp_path, capsys):
        # Nested just below the JSON parser's recursion limit, a value parses
        # (here, from the shallower depths) and fails the field check; its
        # repr is bounded, so the message stays one short line.
        path = tmp_path / "deep.json"
        checked = 0
        for depth in range(900, 999):
            path.write_text('{"train": {"seed": ' + "[" * depth + "]" * depth + "}}")
            rc, err = run_main(["inspect-params", "--config", str(path)])
            assert rc == 2 and err.startswith(f"error: {path}: "), (depth, err[:200])
            assert err.count("\n") == 1, (depth, err[:200])
            checked += err == f"error: {path}: seed must be an integer, got [[...]]\n"
        assert checked > 0

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "din.cli", "inspect-params"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "1,609,095" in proc.stdout


def run_main(argv) -> tuple[int, str]:
    """(exit code, stderr) of an in-process din run; stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        return main(argv), err.getvalue()


# Each command's option strings: a run's values come only from --config.
OPTIONS = {
    "synth": ["--config", "--out-dir"],
    "train": ["--config", "--manifest", "--out-dir", "--resume"],
    "eval": ["--checkpoint", "--manifest", "--split", "--use-best"],
    "predict": ["--checkpoint", "--manifest", "--split", "--use-best", "--out"],
    "inspect-params": ["--config"],
    "export-responses": ["--checkpoint", "--manifest", "--split", "--use-best", "--width",
                         "--out"],
    "export-features": ["--checkpoint", "--manifest", "--split", "--use-best", "--out"],
    "selftest": [],
}

# The per-field override flags that config files replaced, by command.
SHAPE_FLAGS = ["--raw-dim", "--feat-dim", "--num-frames", "--widths", "--num-filters",
               "--num-classes"]
RETIRED_FLAGS = [
    *(("train", flag) for flag in SHAPE_FLAGS),
    *(("train", flag) for flag in ["--batch-size", "--momentum", "--weight-decay", "--initial-lr",
                                   "--lr-decay-factor", "--plateau-patience", "--max-epochs",
                                   "--dropout-keep", "--seed"]),
    *(("inspect-params", flag) for flag in SHAPE_FLAGS),
    *(("synth", flag) for flag in ["--synth-prototypes", "--synth-dim", "--synth-sigma",
                                   "--synth-length", "--synth-samples-per-class",
                                   "--synth-val-samples-per-class", "--synth-seed"]),
]


class TestOptions:
    def test_each_command_has_exactly_its_options(self):
        parser = build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        found = {name: [option for action in command._actions
                        if not isinstance(action, argparse._HelpAction)
                        for option in action.option_strings]
                 for name, command in commands.choices.items()}
        assert found == OPTIONS
        assert sum(map(len, found.values())) == 27

    @pytest.mark.parametrize("command, flag", RETIRED_FLAGS)
    def test_retired_flag_is_usage_error(self, command, flag):
        assert len(RETIRED_FLAGS) == 28
        rc, err = run_main([command, flag, "3"])
        assert rc == 1
        assert err.startswith("usage error: ") and err.count("\n") == 1, err


# Each command's path options: whether each is required.
PATH_OPTIONS = {
    "synth": {"--config": False, "--out-dir": True},
    "train": {"--config": False, "--manifest": True, "--out-dir": True, "--resume": False},
    "eval": {"--checkpoint": True, "--manifest": True},
    "predict": {"--checkpoint": True, "--manifest": True, "--out": False},
    "inspect-params": {"--config": False},
    "export-responses": {"--checkpoint": True, "--manifest": True, "--out": True},
    "export-features": {"--checkpoint": True, "--manifest": True, "--out": True},
}
ARGV_ERRORS = [
    *(pytest.param(command, option, None, id=f"{command}{option}-missing")
      for command, options in PATH_OPTIONS.items()
      for option, required in options.items() if required),
    *(pytest.param(command, option, "", id=f"{command}{option}-empty")
      for command, options in PATH_OPTIONS.items() for option in options),
]


class TestArgvContract:
    """A missing required path option, or any path option given as the
    empty string, is a usage error: exit 1, one stderr line naming the
    option, and nothing created. The other options name a run's real
    inputs, with which each command succeeds."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        """Path option -> a value that works: a config, manifest and
        checkpoint of a finished 2-epoch run (resuming it trains nothing)."""
        root = tmp_path_factory.mktemp("argv_inputs")
        cfg = base_config(root)
        data = root / "data"
        manifest = str(data / "manifest.json")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["synth", "--config", str(cfg), "--out-dir", str(data)]) == 0
            assert main(["train", "--config", str(cfg), "--manifest", manifest,
                         "--out-dir", str(root / "run")]) == 0
        checkpoint = str(root / "run" / "checkpoint.ckpt")
        return {"--config": str(cfg), "--manifest": manifest, "--checkpoint": checkpoint,
                "--resume": checkpoint}

    @staticmethod
    def argv(command, inputs, out, option=None, value=None):
        """`command` with every path option set, --out-dir and --out under
        `out`; `option` is left out (value None) or given `value`."""
        argv = [command, *(["--width", "2"] if command == "export-responses" else [])]
        for name in PATH_OPTIONS[command]:
            if name == option:
                argv += [] if value is None else [name, value]
            else:
                argv += [name, inputs.get(name, str(out / name.lstrip("-")))]
        return argv

    @pytest.mark.parametrize("command", PATH_OPTIONS)
    def test_every_option_set_succeeds(self, tmp_path, capsys, inputs, command):
        assert main(self.argv(command, inputs, tmp_path)) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command, option, value", ARGV_ERRORS)
    def test_is_a_usage_error_that_creates_nothing(
        self, tmp_path, capsys, inputs, command, option, value
    ):
        assert main(self.argv(command, inputs, tmp_path, option, value)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: ") and captured.err.count("\n") == 1
        assert option in captured.err, captured.err
        assert list(tmp_path.iterdir()) == []


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
