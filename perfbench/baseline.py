"""Run the benchmark on several seeds and summarise each metric's spread.

    python3 perfbench/baseline.py --runs 10 [--workload paper_infer ...] [--write FILE]

Run it from the root of a checkout. For each workload (by default those
in BENCHMARK.json) it makes ``--runs`` untraced runs of perfbench/run.py,
seeds ``--first-seed`` upwards, and one traced run. For each end-to-end
metric it prints the median and the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the median,
next to the bound BENCHMARK.json allows. ``--write`` stores the figures together
with a record of the environment they were measured in.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve().parent / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / abs(statistics.median(values))


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "child_blas_threads": run.CHILD_THREADS,
        "cpu_count": os.cpu_count(),
    }


def main(argv) -> int:
    doc = json.loads(Path("BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=doc["run_seconds"])
    p.add_argument("--workload", action="append", choices=run.WORKLOADS)
    p.add_argument("--write", type=Path)
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    report = {"environment": environment(), "seconds": args.seconds, "seeds": seeds,
              "workloads": {}}
    ok = True
    for workload in args.workload or [w["name"] for w in doc["workloads"]]:
        results = [bench(workload, seed, args.seconds, 0) for seed in seeds]
        traced = bench(workload, seeds[0], args.seconds, 1)
        ok &= all(r["correct"] for r in results) and traced["correct"]
        why = {w["name"]: w["why"] for w in doc["workloads"]}.get(
            workload, "run.py workload not listed in BENCHMARK.json")
        entry = {"why": why, "failed": sum(r["failed"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "end_to_end": {}, "per_layer": {
                     k: v["value"] for k, v in traced["metrics"].items()}}
        print(f"{workload}: {entry['failed']} of {entry['attempted']} checks failed")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            median, iqr = spread(values)
            entry["end_to_end"][name] = {"median": median, "iqr_share": iqr, "bound": bound,
                                         "values": values}
            flag = "" if iqr < bound / 3 else "  <-- above a third of the bound"
            print(f"  {name:<20} median {median:12.4f}  spread {iqr:7.2%}  "
                  f"bound {bound:.0%}{flag}")
        report["workloads"][workload] = entry
    if args.write:
        args.write.write_text(json.dumps(report, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
