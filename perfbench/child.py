"""Run one `din` CLI command in this process and time it from outside the package.

    python3 perfbench/child.py RECORD MODE COMMAND_ID -- DIN_ARGS...
    python3 perfbench/child.py RECORD gemm

MODE is one of:

- ``boundary``: only the sample-processing calls in BOUNDARIES are
  timestamped (each epoch, each evaluation pass, each ``predict_sample``
  call made by ``din predict``, each export).
  This is the cheap mode the end-to-end metrics come from.
- ``trace``: every module-level function of every ``din`` module except
  ``din.selftest`` is wrapped, in every namespace that holds it, so a name
  brought in with ``from .x import y`` is traced under its defining module.
  Spans (name, start, end, parent, command id) stay in memory and are
  written once, after the command returns, to RECORD with ``.spans.npz``
  appended.
- ``gemm``: measure the float64 GEMM rate of this process's BLAS setting.

RECORD receives a JSON object with the child's own timestamps
(``time.perf_counter``, which is CLOCK_MONOTONIC on Linux and therefore
comparable with the parent's) around din's import (numpy is imported
first) and around the ``din.cli.main`` call, the exit code and
``ru_maxrss``.
"""

import functools
import importlib
import json
import pkgutil
import resource
import sys
import time
import types

# Functions whose calls process samples; predict_sample takes one, the
# others a sequence of samples as their second argument.
BOUNDARIES = ("trainer.train_epoch", "trainer.evaluate", "model.predict_sample",
              "analysis.export_responses", "analysis.export_pooled_features")


def din_modules():
    import din

    for info in pkgutil.iter_modules(din.__path__):
        importlib.import_module(f"din.{info.name}")
    return [m for name, m in sorted(sys.modules.items())
            if name == "din" or name.startswith("din.")]


def span_name(fn) -> str:
    return f"{fn.__module__.removeprefix('din.')}.{fn.__name__}"


def traceable_functions(modules):
    """Module-level functions defined in din source, keyed by span name."""
    found = {}
    for module in modules:
        for obj in vars(module).values():
            if (isinstance(obj, types.FunctionType)
                    and obj.__module__.startswith("din.")
                    and obj.__module__ != "din.selftest"):
                found[span_name(obj)] = obj
    return found


def replace_everywhere(modules, original, replacement) -> None:
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if obj is original:
                setattr(module, attr, replacement)


class BoundaryRecorder:
    """(function, start, end, samples) for each sample-processing call."""

    def __init__(self):
        self.phases = []

    def wrap(self, fn, name):
        phases = self.phases
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            samples = 1 if name == "model.predict_sample" else len(args[1])
            phases.append((name, start, clock(), samples))
            return result

        return timed

    def install(self, modules) -> None:
        functions = traceable_functions(modules)
        for name in BOUNDARIES:
            replace_everywhere(modules, functions[name], self.wrap(functions[name], name))

    def record(self) -> dict:
        return {"phases": self.phases}


class SpanRecorder:
    """Spans of every din function call, kept in flat lists until the end."""

    def __init__(self, command_id: int):
        self.command_id = command_id
        self.names: list[str] = []
        self.name_idx: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.stack = [-1]

    def wrap(self, fn, name):
        name_id = len(self.names)
        self.names.append(name)
        name_idx, start, end, parent, stack = (
            self.name_idx, self.start, self.end, self.parent, self.stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_idx.append(name_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self, modules) -> None:
        for name, fn in traceable_functions(modules).items():
            replace_everywhere(modules, fn, self.wrap(fn, name))

    def record(self, spans_path: str) -> dict:
        import numpy as np

        start = np.array(self.start)
        dur = np.array(self.end) - start
        parent = np.array(self.parent, dtype=np.int64)
        names = np.array(self.name_idx, dtype=np.int64)
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_time = dur - child_time
        width = len(self.names)
        calls = np.bincount(names, minlength=width)
        self_sum = np.bincount(names, weights=self_time, minlength=width)
        total_sum = np.bincount(names, weights=dur, minlength=width)
        functions = {
            self.names[i]: {"calls": int(calls[i]), "self_s": float(self_sum[i]),
                            "total_s": float(total_sum[i])}
            for i in np.flatnonzero(calls)
        }
        np.savez(spans_path, names=np.array(self.names), name=names, start=start,
                 end=start + dur, parent=parent,
                 command=np.full(len(dur), self.command_id, dtype=np.int64))
        return {"functions": functions, "spans": len(dur)}


def gemm_gflops(size: int = 1024, repeats: int = 9) -> float:
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((size, size))
    b = rng.standard_normal((size, size))
    a @ b
    rates = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        a @ b
        rates.append(2.0 * size**3 / (time.perf_counter() - t0) / 1e9)
    return sorted(rates)[len(rates) // 2]


def main(argv) -> int:
    record_path, mode = argv[0], argv[1]
    if mode == "gemm":
        with open(record_path, "w") as fh:
            json.dump({"gemm_gflops": gemm_gflops()}, fh)
        return 0
    command_id = int(argv[2])
    din_args = argv[argv.index("--") + 1:]
    import numpy  # noqa: F401  (the dependency loads outside din's import time)

    t_import = time.perf_counter()
    modules = din_modules()
    t_imported = time.perf_counter()
    recorder = SpanRecorder(command_id) if mode == "trace" else BoundaryRecorder()
    recorder.install(modules)
    import din.cli

    t_main = time.perf_counter()
    code = din.cli.main(din_args)
    t_end = time.perf_counter()
    sys.stdout.flush()
    if mode == "trace":
        record = recorder.record(record_path + ".spans.npz")
    else:
        record = recorder.record()
    record.update(
        t_import=t_import, t_imported=t_imported, t_main=t_main,
        t_end=t_end, exit_code=code,
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
