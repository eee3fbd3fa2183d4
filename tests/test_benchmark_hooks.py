"""Every din function the benchmark harness hooks or imports still exists.

perfbench/child.py wraps the functions named in its BOUNDARIES tuple by
their defining module, and perfbench/run.py imports a few more for its
reference checks and reads the spans of others. A rename must fail here,
not inside a benchmark run.
"""

import ast
import importlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from din.model import EVAL_BATCH, predict_sample

from conftest import child_env, write_test_split

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"

# Imported by perfbench/run.py, or read from its traces by name.
HARNESS_NAMES = (
    "selftest.naive_scale_responses",
    "data_io.read_checkpoint_tensors",
    "analysis.estimate_flops",
    "model.ModelShapeSpec",
    "temporal_conv.multiscale_forward",
    "model.forward_sample",
    "denseimage.sample_segments",
    "numerics.cross_entropy_from_logits",
    "data_io.read_feature_file",
    "data_io.save_checkpoint",
    "data_io.load_checkpoint",
)


def boundaries():
    for node in ast.parse(CHILD.read_text()).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "BOUNDARIES":
            return ast.literal_eval(node.value)
    raise AssertionError(f"no BOUNDARIES in {CHILD}")


@pytest.mark.parametrize("name", sorted(set(boundaries()) | set(HARNESS_NAMES)))
def test_name_resolves_in_its_defining_module(name):
    module_name, function_name = name.split(".")
    fn = getattr(importlib.import_module(f"din.{module_name}"), function_name)
    assert callable(fn)
    assert fn.__module__ == f"din.{module_name}"


# perfbench/child.py counts one sample per predict_sample call and
# len(args[1]) samples for every other boundary call. No command calls
# predict_sample: `din predict` is one trainer.evaluate call.
def test_predict_sample_takes_and_returns_one_video(tiny_params):
    features = np.ones((7, tiny_params.shape.raw_dim))
    label, probabilities = predict_sample(tiny_params, features)
    assert type(label) is int
    assert probabilities.shape == (tiny_params.shape.num_classes,)


@pytest.mark.parametrize("name", sorted(set(boundaries()) - {"model.predict_sample"}))
def test_second_parameter_is_the_sample_sequence(name):
    module_name, function_name = name.split(".")
    fn = getattr(importlib.import_module(f"din.{module_name}"), function_name)
    assert list(inspect.signature(fn).parameters)[1] == "samples"


def test_predict_is_counted_as_evaluate_calls_over_the_split(tmp_path):
    count = 2 * EVAL_BATCH + 1
    checkpoint, manifest = write_test_split(tmp_path, count)
    record = tmp_path / "record.json"
    proc = subprocess.run(
        [sys.executable, str(CHILD), str(record), "boundary", "0", "--", "predict",
         "--checkpoint", str(checkpoint), "--manifest", str(manifest), "--split", "test",
         "--out", str(tmp_path / "p.csv")],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    phases = json.loads(record.read_text())["phases"]
    assert phases and {name for name, *_ in phases} == {"trainer.evaluate"}
    assert sum(samples for *_, samples in phases) == count
