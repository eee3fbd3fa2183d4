"""Wall time, minor page faults and peak RSS of each perfbench command, each in a fresh process.

    python3 tests/fault_probe.py CHECKOUT INPUTS [--runs N]

INPUTS is a perfbench inputs directory, as perfbench writes them under
.perfbench_work/<workload>/inputs/. A ``paper_infer`` one (manifest.json
and model/checkpoint.ckpt) runs the workload's four commands on the test
split, one after another: eval, predict to a file, export-features and
export-responses at width 3. A ``paper_train`` one (config.json and
manifest.json, no model/) runs ``din train`` on that config and manifest,
into a new output directory each run. Each command is ``python -m
din.cli`` in a new process, with CHECKOUT/src first on PYTHONPATH and one
BLAS thread, writing into a temporary directory.

For every command it prints the wall time from spawn to exit, the child's
own ``ru_minflt`` (os.wait4), which counts every page the process touched
for the first time, from interpreter start to exit, and the child's own
``ru_maxrss`` in MB, its peak resident set; then the median of each over
the runs. perfbench reports no fault counts, and its ``peak_rss_mb``
includes run.py's own high-water mark, so this is how an allocation
change shows in a fresh process. Compare two checkouts with alternating
invocations on the same INPUTS.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def commands(inputs: Path, work: Path, run: int) -> list[tuple[str, list[str]]]:
    if not (inputs / "model").exists():  # paper_train inputs
        return [("train", ["train", "--config", str(inputs / "config.json"), "--manifest",
                           str(inputs / "manifest.json"), "--out-dir", str(work / f"run{run}")])]
    model = ["--checkpoint", str(inputs / "model" / "checkpoint.ckpt"),
             "--manifest", str(inputs / "manifest.json"), "--split", "test"]
    return [
        ("eval", ["eval", *model]),
        ("predict", ["predict", *model, "--out", str(work / "predictions.csv")]),
        ("export-features", ["export-features", *model, "--out", str(work / "features.csv")]),
        ("export-responses", ["export-responses", *model, "--width", "3",
                              "--out", str(work / "responses.csv")]),
    ]


def run_once(argv: list[str], env: dict[str, str], cwd: Path) -> tuple[float, int, float]:
    """(wall seconds, minor faults, peak RSS in MB) of one `python -m din.cli
    ARGV` child."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "din.cli", *argv], cwd=cwd, env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"din {' '.join(argv)} exited {proc.returncode}: "
                         f"{proc.stderr.read().decode(errors='replace').strip()}")
    proc.stderr.close()
    return wall, usage.ru_minflt, usage.ru_maxrss / 1024  # Linux reports KiB


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("inputs", type=Path)
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args()
    checkout, inputs = args.checkout.resolve(), args.inputs.resolve()
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(checkout / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    results: dict[str, list[tuple[float, int, float]]] = {}
    with tempfile.TemporaryDirectory(prefix="fault_probe_") as tmp:
        work = Path(tmp)
        for run in range(args.runs):
            for name, argv in commands(inputs, work, run):
                wall, faults, rss = run_once(argv, env, work)
                results.setdefault(name, []).append((wall, faults, rss))
                print(f"run {run} {name:<16} wall_s {wall:.4f} minflt {faults} maxrss_mb {rss:.2f}")
    for name, rows in results.items():
        wall, faults, rss = (statistics.median(column) for column in zip(*rows))
        print(f"median {name:<16} wall_s {wall:.4f} minflt {faults:.0f} maxrss_mb {rss:.2f}")


if __name__ == "__main__":
    main()
