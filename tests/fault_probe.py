"""Wall time, minor page faults and peak RSS of each perfbench command, each in a fresh process.

    python3 tests/fault_probe.py CHECKOUT INPUTS [--runs N] [--against OTHER_CHECKOUT] [--phases]

INPUTS is a perfbench inputs directory, as perfbench writes them under
.perfbench_work/<workload>/inputs/. A ``paper_infer`` one (manifest.json
and model/checkpoint.ckpt) runs the workload's four commands on the test
split, one after another: eval, predict to a file, export-features and
export-responses at width 3. A ``paper_train`` one (config.json and
manifest.json, no model/) runs ``din train`` on that config and manifest,
then ``din train --resume`` of its checkpoint with a copy of the config
whose max_epochs is one more (resume.json, written beside the two runs),
each into an output directory of its own, new each run. Each command is ``python -m din.cli`` in a new process, with
CHECKOUT/src first on PYTHONPATH and one BLAS thread, writing into a
temporary directory.

For every command it prints the wall time from spawn to exit, the child's
own ``ru_minflt`` (os.wait4), which counts every page the process touched
for the first time, from interpreter start to exit, and the child's own
``ru_maxrss`` in MB, its peak resident set; then the median of each over
the runs. perfbench reports no fault counts, and its ``peak_rss_mb``
includes run.py's own high-water mark, so this is how an allocation
change shows in a fresh process.

With ``--against``, CHECKOUT (side A) and OTHER_CHECKOUT (side B) run in
alternation on the same INPUTS: each run takes all commands of one side,
then of the other, and the side that goes first flips from run to run.
For each command it then prints both sides' medians and, for
``maxrss_mb``, ``minflt`` and ``wall_s``, the number of runs in which each
side read lower (a tie counts for neither).

With ``--phases``, each command runs as ``perfbench/child.py RECORD
boundary 0 -- ARGV`` (the child.py beside this file, for both sides), which
times every sample-processing call perfbench times: each
``trainer.train_epoch``, each ``trainer.evaluate`` and each export. Per
run and command it prints each phase's time, summed over its calls; then
each side's median and, with ``--against``, the runs in which each side
read lower. These are the same code paths perfbench's
``samples_per_s`` and ``eval_samples_per_s`` time, compared run by run
in alternation, so a change smaller than perfbench's spread between runs
can show.

Each side writes its artifacts into a directory of its own per run. After
every run it prints the sha256 of each artifact, side by side (the
checkpoint, history.json and config.json of both ``din train`` runs and
resume.json, or
the three CSVs of the inference commands; run_meta.json holds wall-clock
times and is skipped), marks each ``same`` or ``MISMATCH`` with
``--against``, and removes them. The last line says in how many runs the
sides' artifacts differed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def commands(inputs: Path, out: Path) -> list[tuple[str, list[str]]]:
    """(name, argv) of each command, writing its artifacts under `out`; for
    paper_train inputs, writes the resumed run's config there first."""
    if not (inputs / "model").exists():  # paper_train inputs
        manifest = ["--manifest", str(inputs / "manifest.json")]
        config = json.loads((inputs / "config.json").read_text())
        config["train"]["max_epochs"] += 1
        (out / "resume.json").write_text(json.dumps(config))
        return [("train", ["train", "--config", str(inputs / "config.json"), *manifest,
                           "--out-dir", str(out / "run")]),
                ("train-resume", ["train", "--config", str(out / "resume.json"), *manifest,
                                  "--resume", str(out / "run" / "checkpoint.ckpt"),
                                  "--out-dir", str(out / "resumed")])]
    model = ["--checkpoint", str(inputs / "model" / "checkpoint.ckpt"),
             "--manifest", str(inputs / "manifest.json"), "--split", "test"]
    return [
        ("eval", ["eval", *model]),
        ("predict", ["predict", *model, "--out", str(out / "predictions.csv")]),
        ("export-features", ["export-features", *model, "--out", str(out / "features.csv")]),
        ("export-responses", ["export-responses", *model, "--width", "3",
                              "--out", str(out / "responses.csv")]),
    ]


def artifact_digests(out: Path) -> dict[str, str]:
    """Path under `out` -> sha256 of every file the commands wrote there,
    except run_meta.json (wall-clock times)."""
    return {str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*")) if path.is_file() and path.name != "run_meta.json"}


CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def phase_times(record: Path) -> dict[str, float]:
    """Phase name -> seconds, summed over its calls, from a child.py
    boundary record."""
    times: dict[str, float] = {}
    for name, start, end, _ in json.loads(record.read_text())["phases"]:
        times[name] = times.get(name, 0.0) + end - start
    return times


def run_once(argv: list[str], env: dict[str, str], cwd: Path,
             record: Path | None = None) -> tuple[float, int, float]:
    """(wall seconds, minor faults, peak RSS in MB) of one `python -m din.cli
    ARGV` child, or with `record` of one `child.py RECORD boundary 0 -- ARGV`
    child."""
    start = time.perf_counter()
    launcher = ["-m", "din.cli"] if record is None else [str(CHILD), str(record), "boundary",
                                                          "0", "--"]
    proc = subprocess.Popen([sys.executable, *launcher, *argv], cwd=cwd, env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"din {' '.join(argv)} exited {proc.returncode}: "
                         f"{proc.stderr.read().decode(errors='replace').strip()}")
    proc.stderr.close()
    return wall, usage.ru_minflt, usage.ru_maxrss / 1024  # Linux reports KiB


def child_env(checkout: Path) -> dict[str, str]:
    return dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
                PYTHONPATH=os.pathsep.join(filter(None, [str(checkout / "src"),
                                                         os.environ.get("PYTHONPATH")])))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("inputs", type=Path)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--against", type=Path, metavar="OTHER_CHECKOUT")
    parser.add_argument("--phases", action="store_true",
                        help="run each command through perfbench/child.py and time its phases")
    args = parser.parse_args()
    inputs = args.inputs.resolve()
    sides = {"A": args.checkout.resolve()}
    if args.against:
        sides["B"] = args.against.resolve()
    for side, checkout in sides.items():
        print(f"side {side} {checkout}")
    envs = {side: child_env(checkout) for side, checkout in sides.items()}
    # results[side][command] holds one (wall, faults, rss) row per run.
    results: dict[str, dict[str, list[tuple[float, int, float]]]] = {side: {} for side in sides}
    # phases[side][(command, phase)] holds the phase's seconds per run.
    phases: dict[str, dict[tuple[str, str], list[float]]] = {side: {} for side in sides}
    mismatches = 0
    with tempfile.TemporaryDirectory(prefix="fault_probe_") as tmp:
        work = Path(tmp)
        for run in range(args.runs):
            order = list(sides) if run % 2 == 0 else list(sides)[::-1]
            digests = {}
            for side in order:
                out = work / f"{side}{run}"
                out.mkdir()
                for name, argv in commands(inputs, out):
                    record = work / "record.json" if args.phases else None
                    wall, faults, rss = run_once(argv, envs[side], work, record)
                    results[side].setdefault(name, []).append((wall, faults, rss))
                    print(f"run {run} {side} {name:<16} wall_s {wall:.4f} minflt {faults} "
                          f"maxrss_mb {rss:.2f}")
                    for phase, seconds in (phase_times(record) if record else {}).items():
                        phases[side].setdefault((name, phase), []).append(seconds)
                        print(f"run {run} {side} {name:<16} phase {phase} {seconds:.4f}")
                digests[side] = artifact_digests(out)
                shutil.rmtree(out)
            for artifact in sorted(set().union(*digests.values())):
                found = [digests[side].get(artifact, "missing") for side in sides]
                verdict = ("" if len(sides) == 1 else
                           " same" if len(set(found)) == 1 else " MISMATCH")
                mismatches += verdict == " MISMATCH"
                print(f"run {run} sha256 {artifact:<24} "
                      f"{' '.join(f'{side} {d}' for side, d in zip(sides, found))}{verdict}")
    for side, commands_run in results.items():
        for name, rows in commands_run.items():
            wall, faults, rss = (statistics.median(column) for column in zip(*rows))
            print(f"median {side} {name:<16} wall_s {wall:.4f} minflt {faults:.0f} "
                  f"maxrss_mb {rss:.2f}")
        for (name, phase), seconds in phases[side].items():
            print(f"median {side} {name:<16} phase {phase} {statistics.median(seconds):.4f}")
    if len(sides) == 2:
        for name in results["A"]:
            pairs = list(zip(results["A"][name], results["B"][name]))
            counts = []
            for metric, column in (("maxrss_mb", 2), ("minflt", 1), ("wall_s", 0)):
                a = sum(ra[column] < rb[column] for ra, rb in pairs)
                b = sum(rb[column] < ra[column] for ra, rb in pairs)
                counts.append(f"{metric} A {a} B {b}")
            print(f"lower {name:<16} {' '.join(counts)} of {len(pairs)} runs")
        for (name, phase), seconds in phases["A"].items():
            pairs = list(zip(seconds, phases["B"][name, phase]))
            a = sum(ta < tb for ta, tb in pairs)
            b = sum(tb < ta for ta, tb in pairs)
            print(f"lower {name:<16} phase {phase} A {a} B {b} of {len(pairs)} runs")
        print(f"artifacts differ in {mismatches} of {args.runs} runs" if mismatches
              else f"artifacts identical in all {args.runs} runs")


if __name__ == "__main__":
    main()
