"""Digest of every artifact of a fixed din command sequence, to compare two checkouts.

    python3 tests/cli_digest.py CHECKOUT INPUTS [--against OTHER_CHECKOUT]
    python3 tests/cli_digest.py --write-tiny INPUTS

INPUTS holds a config.json (shape and train sections; synth optional) and
a manifest.json, as perfbench writes them under
.perfbench_work/<workload>/inputs/. The sequence runs CHECKOUT's din
(``python -m din.cli`` with CHECKOUT/src first on PYTHONPATH and one BLAS
thread) in a temporary directory:

    synth; train; train with max_epochs 2, then --resume it with
    max_epochs 3; eval and eval --use-best; predict to a file and to
    stdout; export-features; export-responses at the smallest width;
    inspect-params; selftest; then the argv errors: synth without
    --out-dir, train without --manifest, eval, predict,
    export-responses and export-features without --checkpoint, and
    train with --resume ""

The two shorter runs take copies of the config with that max_epochs,
written into the temporary directory as two.json and three.json. Each
argv error is given the other options of its command, its outputs under
new names, so a change to the exit codes of the argv contract, or a file
an argv error writes, shows in the digest.

Inference commands use the test split when the manifest has one, else
val. For each command it prints the exit code and the sha256 of stdout and
stderr (with the temporary and the inputs directory replaced by fixed
names), then the sha256 of every file written so far that it has not
printed yet; run_meta.json holds wall-clock times and is skipped. Two
checkouts leave the CLI's behaviour unchanged when their outputs are
identical.

With ``--against``, it runs CHECKOUT's sequence, then OTHER_CHECKOUT's, on
the same INPUTS and prints a unified diff of the two digests (nothing when
they agree). The last line is ``identical``, or ``<n> lines differ``
counting the diff's removed and added lines; the exit code is 0 or 1.

``--write-tiny INPUTS`` writes a small dataset whose videos have fewer,
as many and more frames than the model samples (T = 3, 8, 13, 70), and a
config with plateau_patience 1, so the learning rate can decay before and
after the resume. Its six test videos are scaled by 1e-8, 1e-2, 1, 1e2,
1e3 and 1e20 (all finite in float32; training reads only train and val),
so the inference commands' CSVs hold floats in both of repr's notations:
probabilities below 1e-4, and features and responses from 1e16.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import json
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def with_max_epochs(config: dict, epochs: int, path: Path) -> list[str]:
    """--config of a copy of `config`, written to `path`, whose max_epochs
    is `epochs`."""
    path.write_text(json.dumps({**config, "train": {**config.get("train", {}),
                                                    "max_epochs": epochs}}))
    return ["--config", str(path)]


def sequence(inputs: Path, work: Path) -> list[tuple[str, list[str]]]:
    """(name, argv) of each command; writes the derived configs into `work`."""
    config = json.loads((inputs / "config.json").read_text())
    manifest = json.loads((inputs / "manifest.json").read_text())
    split = "test" if any(s["split"] == "test" for s in manifest["samples"]) else "val"
    width = min(config.get("shape", {}).get("widths", [2]))
    cfg = ["--config", str(inputs / "config.json")]
    manifest_args = ["--manifest", str(inputs / "manifest.json")]
    data = [*cfg, *manifest_args]
    samples = [*manifest_args, "--split", split]
    model = ["--checkpoint", str(work / "train" / "checkpoint.ckpt"), *samples]
    return [
        ("synth", ["synth", *cfg, "--out-dir", str(work / "synth")]),
        ("train", ["train", *data, "--out-dir", str(work / "train")]),
        ("train-2", ["train", *with_max_epochs(config, 2, work / "two.json"), *manifest_args,
                     "--out-dir", str(work / "two")]),
        ("resume", ["train", *with_max_epochs(config, 3, work / "three.json"), *manifest_args,
                    "--out-dir", str(work / "resumed"),
                    "--resume", str(work / "two" / "checkpoint.ckpt")]),
        ("eval", ["eval", *model]),
        ("eval-best", ["eval", *model, "--use-best"]),
        ("predict-file", ["predict", *model, "--out", str(work / "predictions.csv")]),
        ("predict-stdout", ["predict", *model]),
        ("export-features", ["export-features", *model, "--out", str(work / "features.csv")]),
        ("export-responses", ["export-responses", *model, "--width", str(width),
                              "--out", str(work / "responses.csv")]),
        ("inspect-params", ["inspect-params", *cfg]),
        ("selftest", ["selftest"]),
        ("synth-no-out-dir", ["synth", *cfg]),
        ("train-no-manifest", ["train", *cfg, "--out-dir", str(work / "no-manifest")]),
        ("eval-no-checkpoint", ["eval", *samples]),
        ("predict-no-checkpoint", ["predict", *samples, "--out", str(work / "no-checkpoint.csv")]),
        ("export-responses-no-checkpoint", ["export-responses", *samples, "--width", str(width),
                                            "--out", str(work / "no-checkpoint-responses.csv")]),
        ("export-features-no-checkpoint", ["export-features", *samples,
                                           "--out", str(work / "no-checkpoint-features.csv")]),
        ("resume-empty", ["train", *data, "--out-dir", str(work / "resume-empty"),
                          "--resume", ""]),
    ]


def digest(checkout: Path, inputs: Path) -> list[str]:
    """The digest lines of CHECKOUT's sequence on INPUTS."""
    lines = []
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(checkout / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    with tempfile.TemporaryDirectory(prefix="cli_digest_") as tmp:
        work = Path(tmp)
        seen: set[Path] = set()
        for name, argv in sequence(inputs, work):
            proc = subprocess.run([sys.executable, "-m", "din.cli", *argv], cwd=work, env=env,
                                  capture_output=True, check=False)
            lines.append(f"exit {proc.returncode} {name}")
            for stream, data in (("stdout", proc.stdout), ("stderr", proc.stderr)):
                data = data.replace(str(work).encode(), b"WORK")
                data = data.replace(str(inputs).encode(), b"INPUTS")
                lines.append(f"sha256 {sha256(data)} {name}.{stream}")
            for path in sorted(p for p in work.rglob("*") if p.is_file()):
                if path not in seen and path.name != "run_meta.json":
                    seen.add(path)
                    lines.append(f"sha256 {sha256(path.read_bytes())} {path.relative_to(work)}")
    return lines


# The test videos' scales, so that the exports of the inference commands
# print floats below 1e-4 and from 1e16, where repr writes exponent form.
TEST_SCALES = (1e-8, 1e-2, 1.0, 1e2, 1e3, 1e20)


def write_tiny(out: Path) -> None:
    """A 6-dim, 2-class dataset with train, val and test videos of 3 to 70 frames."""
    rng = np.random.default_rng(0)
    (out / "features").mkdir(parents=True)
    samples = []
    for split, count in (("train", 12), ("val", 6), ("test", 6)):
        for i in range(count):
            T = (3, 8, 13, 70)[i % 4]
            rel = f"features/{split}-{i:02d}.difx"
            scale = TEST_SCALES[i] if split == "test" else 1.0
            frames = (rng.normal(size=(T, 6)) * scale).astype("<f4")
            (out / rel).write_bytes(struct.pack("<4sHIH", b"DIFX", 1, T, 6) + frames.tobytes())
            samples.append({"id": f"{split}-{i:02d}", "feature_path": rel, "label": i % 2,
                            "split": split})
    (out / "manifest.json").write_text(json.dumps({"classes": ["a", "b"], "samples": samples}))
    shape = {"raw_dim": 6, "feat_dim": 4, "num_frames": 8, "widths": [2, 3], "num_filters": 4,
             "num_classes": 2}
    # At patience 1 the rate decays within the resumed run's three epochs.
    train = {"batch_size": 4, "initial_lr": 0.05, "dropout_keep": 0.8, "max_epochs": 2,
             "plateau_patience": 1, "seed": 1}
    synth = {"feature_dim": 6, "samples_per_class": 8, "seed": 1}
    (out / "config.json").write_text(json.dumps({"shape": shape, "train": train,
                                                 "synth": synth}))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", type=Path)
    parser.add_argument("inputs", type=Path)
    parser.add_argument("--write-tiny", action="store_true",
                        help="write the tiny dataset to INPUTS instead")
    parser.add_argument("--against", type=Path, metavar="OTHER_CHECKOUT",
                        help="diff CHECKOUT's digest against this checkout's")
    args = parser.parse_args()
    if args.write_tiny:
        write_tiny(args.inputs)
        return
    if args.checkout is None:
        parser.error("CHECKOUT is required")
    ours = digest(args.checkout.resolve(), args.inputs.resolve())
    if args.against is None:
        print("\n".join(ours))
        return
    theirs = digest(args.against.resolve(), args.inputs.resolve())
    diff = list(difflib.unified_diff(ours, theirs, str(args.checkout), str(args.against),
                                     lineterm=""))
    changed = sum(line.startswith(("+", "-")) for line in diff[2:])  # past the two headers
    print("\n".join([*diff, f"{changed} lines differ" if diff else "identical"]))
    sys.exit(1 if diff else 0)


if __name__ == "__main__":
    main()
