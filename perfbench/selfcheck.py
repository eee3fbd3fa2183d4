"""Tiny-size self-check of the benchmark: schema only, no wall-clock gate.

    python3 perfbench/selfcheck.py

Run it from the root of a checkout; it exits non-zero on the first
problem. It validates BENCHMARK.json against the benchmark contract, runs
every workload run.py knows (BENCHMARK.json lists a subset) at the toy
size with tracing off and on, and checks that each run ends with a result
line holding exactly the declared metrics with their units and finite
values, and that every output check passed. It also checks that the
benchmark refuses to run, printing no result, in a directory that holds
only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_.\-/]{1,200}")
DRIVER_BUDGET_S = 3420

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import WORKLOADS  # noqa: E402


def fail(message: str) -> None:
    raise SystemExit(f"selfcheck: {message}")


def check_metric_list(metrics, keys, kind) -> None:
    for m in metrics:
        if set(m) != keys:
            fail(f"{kind} metric {m} must have exactly the keys {sorted(keys)}")
        if not NAME.fullmatch(m["name"]) or not UNIT.fullmatch(m["unit"]):
            fail(f"{kind} metric {m['name']!r} has a bad name or unit")
        if m["better"] not in ("lower", "higher"):
            fail(f"{kind} metric {m['name']} must be better lower or higher")


def check_benchmark_json(root: Path) -> dict:
    raw = (root / "BENCHMARK.json").read_bytes()
    if len(raw) > 64 * 1024:
        fail("BENCHMARK.json exceeds 64 KiB")
    doc = json.loads(raw)
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(doc) != keys:
        fail(f"BENCHMARK.json keys must be {sorted(keys)}")
    if not (1 <= len(doc["command"]) <= 32
            and all(isinstance(c, str) and len(c) <= 200 for c in doc["command"])):
        fail("command must be 1 to 32 strings of at most 200 characters")
    for path in doc["paths"]:
        if not PATH.fullmatch(path) or path.startswith("/") or ".." in path.split("/"):
            fail(f"bad path {path!r}")
    if not 1 <= len(doc["paths"]) <= 16:
        fail("paths must hold 1 to 16 directories")
    if not (isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60):
        fail("run_seconds must be a whole number from 1 to 60")
    workloads = doc["workloads"]
    if not 2 <= len(workloads) <= 8:
        fail("need 2 to 8 workloads")
    for w in workloads:
        if set(w) != {"name", "why"} or not NAME.fullmatch(w["name"]):
            fail(f"bad workload {w}")
        if len(w["why"]) > 200 or "\n" in w["why"]:
            fail(f"workload {w['name']} needs a one-line why of at most 200 characters")
    check_metric_list(doc["end_to_end"], {"name", "unit", "better", "bound"}, "end_to_end")
    check_metric_list(doc["per_layer"], {"name", "unit", "better"}, "per_layer")
    if not (1 <= len(doc["end_to_end"]) <= 16 and 1 <= len(doc["per_layer"]) <= 128):
        fail("need 1 to 16 end_to_end and 1 to 128 per_layer metrics")
    if any(not 0 < m["bound"] <= 0.25 for m in doc["end_to_end"]):
        fail("every bound must be in (0, 0.25]")
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    if not setup or (setup[0]["unit"], setup[0]["better"]) != ("s", "lower"):
        fail("end_to_end needs setup_s in s, better lower")
    if setup[0]["bound"] != max(m["bound"] for m in doc["end_to_end"]):
        fail("setup_s must have the largest bound")
    names = [x["name"] for x in workloads + doc["end_to_end"] + doc["per_layer"]]
    if len(names) != len(set(names)):
        fail("names must be unique")
    runs = 4 + 22 * len(workloads)
    if runs * doc["run_seconds"] >= DRIVER_BUDGET_S:
        fail(f"{runs} runs of {doc['run_seconds']} s cannot fit {DRIVER_BUDGET_S} s")
    return doc


def last_result(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    if not lines:
        fail("no output")
    return json.loads(lines[-1])


def check_run(root: Path, doc: dict, workload: str, trace: int) -> None:
    cmd = [*doc["command"], "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        fail(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr.strip()}")
    result = last_result(proc.stdout)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        fail(f"{workload} trace={trace}: checks failed: {proc.stderr.strip()}")
    if not (type(result["attempted"]) is int and result["attempted"] >= 1):
        fail(f"{workload}: attempted must be a whole number >= 1")
    declared = {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(declared):
        fail(f"{workload} trace={trace}: metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(declared) - set(got))}, extra {sorted(set(got) - set(declared))}")
    for name, entry in got.items():
        value = entry["value"]
        if set(entry) != {"value", "unit"} or entry["unit"] != declared[name]:
            fail(f"{workload}: metric {name} must carry unit {declared[name]}")
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            fail(f"{workload}: metric {name} has non-finite value {value!r}")
    print(f"ok  {workload} trace={trace}: {len(got)} metrics, {result['attempted']} checks")


def check_refuses_without_program(root: Path, doc: dict) -> None:
    bare = root / ".perfbench_work" / "selfcheck-bare"
    if bare.exists():
        shutil.rmtree(bare)
    bare.mkdir(parents=True)
    shutil.copy(root / "BENCHMARK.json", bare)
    for path in doc["paths"]:
        shutil.copytree(root / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [*doc["command"], "--workload", doc["workloads"][0]["name"], "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("the benchmark must fail, printing no result, without the program")
    print("ok  refuses to run without the program")


def main() -> int:
    root = Path.cwd()
    doc = check_benchmark_json(root)
    print("ok  BENCHMARK.json")
    check_refuses_without_program(root, doc)
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_run(root, doc, workload, trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
