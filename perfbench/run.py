"""Benchmark of the din command-line program.

    python3 perfbench/run.py --workload paper_train --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. It generates the workload's inputs
from the seed under ``.perfbench_work/<workload>/``, then runs the
workload's sequence of ``din`` commands, each in a fresh child process
(``perfbench/child.py`` calling ``din.cli.main``), one after another, again
and again until ``--seconds`` have passed. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, as medians
over the sequences run. ``--trace 1`` alternates untraced sequences with
traced ones, in which every function of every din module is wrapped from
outside the package, and reports the per-layer metrics. See
perfbench/README.md for what each metric and workload is.

``--size tiny`` runs the same workloads at a toy shape; perfbench/selfcheck.py
uses it to validate the output schema.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = ROOT / ".perfbench_work"

LAYERS = ("numerics", "denseimage", "temporal_conv", "classifier", "model", "trainer",
          "data_io", "analysis", "cli")
WORKLOADS = ("paper_train", "paper_infer", "synth_train")

# One BLAS thread in every child: with the default two threads the
# paper-shape medians of separate processes differ by about 15 %, pinned
# they agree within about 5 %. This hides any gain from BLAS threading.
CHILD_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
COMMAND_TIMEOUT_S = 150

PAPER_SHAPE = {"raw_dim": 1024, "feat_dim": 256, "num_frames": 8, "widths": [2, 3, 4, 5, 6],
               "num_filters": 256, "num_classes": 27}
SYNTH_SHAPE = {"raw_dim": 16, "feat_dim": 16, "num_frames": 8, "widths": [2, 3],
               "num_filters": 32, "num_classes": 2}

SIZES = {
    "full": {
        "shape": PAPER_SHAPE,
        "paper_train": {"train": 128, "val": 64, "frames": (24, 72), "epochs": 2},
        "paper_infer": {"train": 32, "val": 16, "train_frames": (24, 72), "test": 128,
                        "frames": (64, 320)},
        "synth_train": {"per_class": 256, "val_per_class": 128, "epochs": 10},
    },
    "tiny": {
        "shape": dict(PAPER_SHAPE, raw_dim=32, feat_dim=8, num_filters=8),
        "paper_train": {"train": 16, "val": 8, "frames": (8, 16), "epochs": 1},
        "paper_infer": {"train": 8, "val": 4, "train_frames": (8, 16), "test": 8,
                        "frames": (8, 32)},
        "synth_train": {"per_class": 64, "val_per_class": 32, "epochs": 3},
    },
}

MIN_SYNTH_ACCURACY = 0.98
PROBABILITY_TOLERANCE = 1e-9
REFERENCE_VIDEOS = 3


class CommandFailed(RuntimeError):
    pass


# ---------------------------------------------------------------- inputs

def write_difx(path: Path, features) -> None:
    """Feature file: b"DIFX", u16 version 1, u32 frames, u16 dim, float32 payload."""
    T, D = features.shape
    path.write_bytes(struct.pack("<4sHIH", b"DIFX", 1, T, D)
                     + np.ascontiguousarray(features, dtype="<f4").tobytes())


def read_difx(path: Path):
    blob = path.read_bytes()
    _, _, T, D = struct.unpack_from("<4sHIH", blob)
    return np.frombuffer(blob, dtype="<f4", offset=12).astype(np.float64).reshape(T, D)


def write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True))


def gaussian_videos(rng, split: str, count: int, frames, shape):
    """Seeded Gaussian videos with uniform random labels.

    The lengths are spread evenly over [lo, hi] and shuffled, so every seed
    gives the same amount of work.
    """
    lengths = rng.permutation(np.linspace(frames[0], frames[1], count).round().astype(int))
    for i, T in enumerate(lengths):
        label = int(rng.integers(shape["num_classes"]))
        yield f"v-{split}-{i:04d}", split, label, rng.standard_normal(
            (int(T), shape["raw_dim"])).astype("<f4")


def write_paper_dataset(rng, out: Path, shape, splits) -> None:
    (out / "features").mkdir(parents=True)
    samples = []
    for split, count, frames in splits:
        for sid, split_name, label, feats in gaussian_videos(rng, split, count, frames, shape):
            rel = f"features/{sid}.difx"
            write_difx(out / rel, feats)
            samples.append({"id": sid, "feature_path": rel, "label": label,
                            "split": split_name})
    classes = [f"class_{c:02d}" for c in range(shape["num_classes"])]
    write_json(out / "manifest.json", {"classes": classes, "samples": samples})


def generate_inputs(workload: str, seed: int, size: str, out: Path, records: Path, env) -> None:
    """Everything the workload's commands read, made from the seed alone."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    spec = SIZES[size][workload]
    shape = SIZES[size]["shape"]
    out.mkdir(parents=True)
    if workload == "paper_train":
        write_paper_dataset(rng, out, shape, [("train", spec["train"], spec["frames"]),
                                              ("val", spec["val"], spec["frames"])])
        write_json(out / "config.json", {"shape": shape, "train": {
            "batch_size": 32, "dropout_keep": 0.5, "max_epochs": spec["epochs"], "seed": seed}})
    elif workload == "paper_infer":
        # The checkpoint trains on short videos; the commands run on the long test split.
        write_paper_dataset(rng, out, shape, [("train", spec["train"], spec["train_frames"]),
                                              ("val", spec["val"], spec["train_frames"]),
                                              ("test", spec["test"], spec["frames"])])
        write_json(out / "config.json", {"shape": shape, "train": {
            "batch_size": 32, "dropout_keep": 0.5, "max_epochs": 1, "seed": seed}})
        argv = ["train", "--config", str(out / "config.json"),
                "--manifest", str(out / "manifest.json"), "--out-dir", str(out / "model")]
        records.mkdir(parents=True, exist_ok=True)
        run_command(argv, 0, "boundary", records / "model-train.json",
                    records / "model-train.out", env)
    else:
        write_json(out / "config.json", {
            "shape": SYNTH_SHAPE,
            "train": {"batch_size": 32, "initial_lr": 0.05, "dropout_keep": 1.0,
                      "max_epochs": spec["epochs"], "seed": 3},
            "synth": {"num_prototypes": 4, "feature_dim": 16, "noise_sigma": 0.1,
                      "sequence_length": 8, "samples_per_class": spec["per_class"],
                      "val_samples_per_class": spec["val_per_class"], "seed": seed},
        })


def sequence(workload: str, inputs: Path, out: Path):
    """The workload's commands: (argv, [(manifest, split) read by it])."""
    cfg = ["--config", str(inputs / "config.json")]
    if workload == "paper_train":
        manifest = inputs / "manifest.json"
        return [
            (["inspect-params", *cfg], []),
            (["train", *cfg, "--manifest", str(manifest), "--out-dir", str(out / "run")],
             [(manifest, "train"), (manifest, "val")]),
        ]
    if workload == "paper_infer":
        manifest = inputs / "manifest.json"
        model = ["--checkpoint", str(inputs / "model" / "checkpoint.ckpt"),
                 "--manifest", str(manifest), "--split", "test"]
        reads = [(manifest, "test")]
        return [
            (["eval", *model], reads),
            (["predict", *model, "--out", str(out / "predictions.csv")], reads),
            (["export-features", *model, "--out", str(out / "features.csv")], reads),
            (["export-responses", *model, "--width", "3", "--out", str(out / "responses.csv")],
             reads),
        ]
    manifest = out / "data" / "manifest.json"
    return [
        (["synth", *cfg, "--out-dir", str(out / "data")], []),
        (["inspect-params", *cfg], []),
        (["train", *cfg, "--manifest", str(manifest), "--out-dir", str(out / "run")],
         [(manifest, "train"), (manifest, "val")]),
    ]


def checkpoint_path(workload: str, inputs: Path, out: Path) -> Path:
    if workload == "paper_infer":
        return inputs / "model" / "checkpoint.ckpt"
    return out / "run" / "checkpoint.ckpt"


def digests(root: Path) -> dict[str, str]:
    """sha256 of every deterministic file under root (run_meta.json is wall-clock)."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name != "run_meta.json"
    }


def bytes_read(reads) -> int:
    total = 0
    for manifest, split in reads:
        doc = json.loads(manifest.read_text())
        total += sum((manifest.parent / s["feature_path"]).stat().st_size
                     for s in doc["samples"] if s["split"] == split)
    return total


def files_read(reads) -> int:
    return sum(
        sum(1 for s in json.loads(m.read_text())["samples"] if s["split"] == split)
        for m, split in reads
    )


# -------------------------------------------------------------- running

def child_env() -> dict[str, str]:
    env = dict(os.environ, **CHILD_THREADS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_command(argv, command_id, mode, record: Path, stdout: Path, env):
    """Run one din command in a child; returns (spawn time, exit time, record)."""
    cmd = [sys.executable, str(CHILD), str(record), mode, str(command_id), "--", *argv]
    with open(stdout, "wb") as out, open(str(record) + ".err", "wb") as err:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=env)
        # A blocking wait returns at the exit itself; wait(timeout=...) polls
        # and would round every command's wall time up to 50 ms steps.
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            proc.wait()
        finally:
            timer.cancel()
        t_exit = time.perf_counter()
    if proc.returncode != 0:
        message = Path(str(record) + ".err").read_text(errors="replace").strip()
        raise CommandFailed(f"din {' '.join(argv)} exited {proc.returncode}: {message}")
    return t_spawn, t_exit, json.loads(record.read_text())


def run_sequence(commands, out: Path, records: Path, mode: str, env):
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    records.mkdir(parents=True, exist_ok=True)
    return [
        run_command(argv, i, mode, records / f"{mode}-{i}.json", out / f"stdout-{i}.txt", env)
        for i, (argv, _) in enumerate(commands)
    ]


# -------------------------------------------------------------- checks

class Checks:
    """Counts attempted and failed operations; failures are explained on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


def check_outputs(workload: str, spec, out: Path, checks: Checks) -> None:
    if workload == "synth_train":
        history = json.loads((out / "run" / "history.json").read_text())
        checks.check(history["best_val_accuracy"] >= MIN_SYNTH_ACCURACY,
                     f"synth_train best_val_accuracy {history['best_val_accuracy']}")
    elif workload == "paper_train":
        history = json.loads((out / "run" / "history.json").read_text())
        checks.check(len(history["reports"]) == spec["epochs"], "paper_train epoch count")
    else:
        rows = (out / "predictions.csv").read_text().splitlines()[1:]
        checks.check(len(rows) == spec["test"], "one prediction per video")
        for row in rows:
            probs = [float(v) for v in row.split(",")[3:]]
            checks.check(abs(sum(probs) - 1.0) <= PROBABILITY_TOLERANCE,
                         f"probabilities of {row.split(',')[0]} sum to {sum(probs)!r}")
        for name in ("features.csv", "responses.csv"):
            lines = (out / name).read_text().splitlines()
            checks.check(len(lines) == spec["test"] + 1, f"{name} has one row per video")
        eval_line = (out / "stdout-0.txt").read_text()
        checks.check(f"samples={spec['test']} " in eval_line, "din eval counted every video")


def center_indices(T: int, n: int) -> list[int]:
    """Center frame of each segment [ceil(sT/n), ceil((s+1)T/n)); needs T >= n."""
    bounds = [-(-s * T // n) for s in range(n + 1)]
    return [lo + (hi - lo - 1) // 2 for lo, hi in zip(bounds, bounds[1:])]


def check_reference(inputs: Path, out: Path, checks: Checks) -> None:
    """din predict against a float64 brute-force forward on a few videos."""
    from din.data_io import read_checkpoint_tensors
    from din.selftest import naive_scale_responses

    meta, t = read_checkpoint_tensors(inputs / "model" / "checkpoint.ckpt")
    shape = meta["shape"]
    manifest = json.loads((inputs / "manifest.json").read_text())
    videos = sorted((s for s in manifest["samples"] if s["split"] == "test"),
                    key=lambda s: s["id"])[:REFERENCE_VIDEOS]
    predicted = {row.split(",")[0]: np.array([float(v) for v in row.split(",")[3:]])
                 for row in (out / "predictions.csv").read_text().splitlines()[1:]}
    for video in videos:
        feats = read_difx(inputs / video["feature_path"])
        rows = feats[center_indices(feats.shape[0], shape["num_frames"])]
        dense = rows @ t["param/reduction/weights"] + t["param/reduction/bias"]
        logits = np.zeros(shape["num_classes"])
        for h in shape["widths"]:
            responses = naive_scale_responses(dense, t[f"param/conv/h{h}/weights"],
                                              t[f"param/conv/h{h}/bias"])
            logits += t[f"param/head/h{h}/weights"] @ responses.max(axis=1)
            logits += t[f"param/head/h{h}/bias"]
        expected = np.exp(logits - logits.max())
        expected /= expected.sum()
        error = float(np.abs(predicted[video["id"]] - expected).max())
        checks.check(error <= PROBABILITY_TOLERANCE,
                     f"din predict {video['id']} differs from the reference by {error!r}")


# -------------------------------------------------------------- metrics

EVAL_PHASES = ("trainer.evaluate", "model.predict_sample")


def command_phases(record) -> list[tuple[str, float, float, int]]:
    """(function, start, end, samples); din predict's per-sample calls become one phase."""
    phases = [p for p in record["phases"] if p[0] != "model.predict_sample"]
    predicted = [p for p in record["phases"] if p[0] == "model.predict_sample"]
    if predicted:
        phases.append((predicted[0][0], predicted[0][1], predicted[-1][2], len(predicted)))
    return phases


def end_to_end(iterations) -> dict[str, float]:
    """Metrics of the untraced sequences, each [(t_spawn, t_exit, record), ...].

    Every command and every phase of a command (the k-th epoch, evaluation
    pass, predict loop or export) recurs once per sequence and gets the
    median of its values over the sequences. Times sum these medians over
    the sequence; a rate divides the samples of one sequence's phases by
    the sum of their median times.
    """
    setup, wall, phase_s, phase_n = {}, {}, {}, {}
    for iteration in iterations:
        for i, (t_spawn, t_exit, record) in enumerate(iteration):
            phases = command_phases(record)
            setup.setdefault(i, []).append(
                min((p[1] for p in phases), default=t_exit) - t_spawn)
            wall.setdefault(i, []).append(t_exit - t_spawn)
            for k, (name, start, end, samples) in enumerate(phases):
                phase_s.setdefault((i, k, name), []).append(end - start)
                phase_n[(i, k, name)] = samples

    def rate(names):
        keys = [key for key in phase_n if key[2] in names]
        return (sum(phase_n[key] for key in keys)
                / sum(statistics.median(phase_s[key]) for key in keys))

    return {
        "setup_s": sum(statistics.median(v) for v in setup.values()),
        "run_s": sum(statistics.median(v) for v in wall.values()),
        "samples_per_s": rate({key[2] for key in phase_n}),
        "eval_samples_per_s": rate(EVAL_PHASES),
        "peak_rss_mb": statistics.median(
            max(r["maxrss_kb"] for _, _, r in it) for it in iterations) / 1024.0,
    }


def samples_processed(iteration) -> int:
    return sum(p[3] for _, _, r in iteration for p in r["phases"])


ZERO = {"calls": 0, "self_s": 0.0, "total_s": 0.0}


def function_totals(iteration) -> dict[str, dict[str, float]]:
    totals: dict[str, dict[str, float]] = {}
    for _, _, record in iteration:
        for name, stats in record["functions"].items():
            acc = totals.setdefault(name, dict(ZERO))
            for key in acc:
                acc[key] += stats[key]
    return totals


def per_layer(traced, untraced, shape, read_bytes, ckpt_bytes, gemm) -> dict[str, float]:
    """Per-layer metrics of one traced sequence."""
    from din.analysis import estimate_flops
    from din.model import ModelShapeSpec

    flops = estimate_flops(ModelShapeSpec.from_dict(shape)).lines
    conv_flops = sum(v for k, v in flops.items() if k.startswith("conv/"))
    fns = function_totals(traced)

    def fn(name):
        return fns.get(name, ZERO)

    metrics: dict[str, float] = {}
    for layer in LAYERS:
        own = [s for name, s in fns.items() if name.split(".")[0] == layer]
        metrics[f"{layer}.self_s"] = sum(s["self_s"] for s in own)
        metrics[f"{layer}.calls"] = sum(s["calls"] for s in own)
    # din's own code: its module imports plus the main call.
    wall = sum(r["t_imported"] - r["t_import"] + r["t_end"] - r["t_main"] for _, _, r in traced)
    metrics["trace.coverage"] = sum(s["self_s"] for s in fns.values()) / wall
    metrics["trace.calls_per_sample"] = (
        sum(s["calls"] for s in fns.values()) / samples_processed(untraced))
    forward = fn("temporal_conv.multiscale_forward")
    sample = fn("model.forward_sample")
    reads = fn("data_io.read_feature_file")
    metrics.update({
        "temporal_conv.multiscale_forward.self_s": forward["self_s"],
        "temporal_conv.gflops": conv_flops * forward["calls"] / forward["total_s"] / 1e9,
        "model.forward_sample.self_s": sample["self_s"],
        "model.gflops": flops["reduction"] * sample["calls"] / sample["self_s"] / 1e9,
        "env.gemm_gflops": gemm,
        "denseimage.sample_segments.self_s": fn("denseimage.sample_segments")["self_s"],
        "numerics.cross_entropy_from_logits.self_s":
            fn("numerics.cross_entropy_from_logits")["self_s"],
        "data_io.read_feature_file.self_s": reads["self_s"],
        "data_io.read_mb_per_s": read_bytes / 1e6 / reads["self_s"],
        "data_io.checkpoint_io_s": (fn("data_io.save_checkpoint")["total_s"]
                                    + fn("data_io.load_checkpoint")["total_s"]),
        "data_io.checkpoint_mb": ckpt_bytes / 1e6,
    })
    return metrics


def medians(rows: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def trace_metrics(workload, shape, commands, traced, untraced, base: Path, checks: Checks,
                  env) -> dict[str, float]:
    """Per-layer metrics: medians over the traced sequences, plus the overhead."""
    totals = [function_totals(it) for it in traced]
    counts = [{name: stats["calls"] for name, stats in t.items()} for t in totals]
    checks.check(all(c == counts[0] for c in counts), "traced call counts repeat")
    reads = [read for _, command_reads in commands for read in command_reads]
    checks.check(totals[0].get("data_io.read_feature_file", ZERO)["calls"] == files_read(reads),
                 "one read per feature file")
    run_command([], 0, "gemm", base / "gemm.json", base / "gemm.out", env)
    gemm = json.loads((base / "gemm.json").read_text())["gemm_gflops"]
    ckpt_bytes = checkpoint_path(workload, base / "inputs", base / "out").stat().st_size
    metrics = medians([per_layer(it, untraced[0], shape, bytes_read(reads), ckpt_bytes, gemm)
                       for it in traced])
    metrics["trace.overhead"] = (
        statistics.median(it[-1][1] - it[0][0] for it in traced)
        / statistics.median(it[-1][1] - it[0][0] for it in untraced) - 1.0)
    write_json(base / "trace_summary.json", {
        "traced_sequences": len(traced), "untraced_sequences": len(untraced),
        "functions": {name: {key: statistics.median(t.get(name, ZERO)[key] for t in totals)
                             for key in ZERO} for name in sorted(totals[0])},
    })
    return metrics


def declared_units(kind: str) -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


# -------------------------------------------------------------- main

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--size", default="full", choices=tuple(SIZES))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "din" / "cli.py").is_file():
        print(f"perfbench: no din sources under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    env = child_env()
    base = WORK / args.workload
    if base.exists():
        shutil.rmtree(base)
    inputs, regen, out, records = base / "inputs", base / "regen", base / "out", base / "records"
    spec = SIZES[args.size][args.workload]
    shape = SYNTH_SHAPE if args.workload == "synth_train" else SIZES[args.size]["shape"]
    checks = Checks()
    try:
        generate_inputs(args.workload, args.seed, args.size, inputs, records, env)
        generate_inputs(args.workload, args.seed, args.size, regen, records, env)
        checks.check(digests(inputs) == digests(regen), "inputs regenerate byte-identically")
        shutil.rmtree(regen)
        commands = sequence(args.workload, inputs, out)
        # Compiles din's bytecode and warms the page cache before timing.
        run_command(["inspect-params"], 0, "boundary", base / "warmup.json",
                    base / "warmup.out", env)

        untraced, traced, reference = [], [], None
        deadline = time.perf_counter() + args.seconds
        while (not untraced or (args.trace and not traced)
               or time.perf_counter() < deadline):
            mode = "trace" if args.trace and len(traced) < len(untraced) else "boundary"
            iteration = run_sequence(commands, out, records, mode, env)
            (traced if mode == "trace" else untraced).append(iteration)
            check_outputs(args.workload, spec, out, checks)
            artifacts = digests(out)
            if reference is None:
                reference = artifacts
            else:
                checks.check(artifacts == reference,
                             f"{mode} sequence {len(untraced) + len(traced)} artifacts "
                             "byte-identical to the first untraced sequence")
        if args.workload == "paper_infer":
            check_reference(inputs, out, checks)

        if args.trace:
            metrics = trace_metrics(args.workload, shape, commands, traced, untraced,
                                    base, checks, env)
            units = declared_units("per_layer")
        else:
            metrics = end_to_end(untraced)
            units = declared_units("end_to_end")
    except CommandFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
