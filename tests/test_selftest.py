import re

import numpy as np
import pytest

from din import temporal_conv
from din.numerics import make_rng
from din.selftest import finite_difference_check, run_selftest

EPS, TOL = 1e-5, 1e-6


def cubes():
    """Two tensors in [-0.5, 0.5], so every |3a^2| < 1 and the bound is TOL,
    with the sum of their cubes and its exact gradient 3a^2."""
    rng = make_rng(50)
    arrays = {"a": rng.uniform(-0.5, 0.5, size=(3, 4)), "b": rng.uniform(-0.5, 0.5, size=5)}
    grads = {name: 3.0 * arr**2 for name, arr in arrays.items()}
    return arrays, grads, lambda: sum(float((arr**3).sum()) for arr in arrays.values())


def snapshot(arrays):
    return {name: arr.tobytes() for name, arr in arrays.items()}


class TestFiniteDifferenceCheck:
    def test_passes_on_analytic_gradient(self):
        arrays, grads, objective = cubes()
        before = snapshot(arrays)
        finite_difference_check(objective, arrays, grads, EPS, TOL)
        assert snapshot(arrays) == before

    def test_names_tensor_and_index_of_a_wrong_entry(self):
        # Both numbers read as plain float literals, never np.float64(...),
        # also when the objective returns a NumPy scalar.
        number = r"-?\d+\.\d+(e-?\d+)?"
        arrays, grads, objective = cubes()
        grads["a"][1, 2] += 10 * TOL
        before = snapshot(arrays)
        for returns in (objective, lambda: np.float64(objective())):
            with pytest.raises(AssertionError) as caught:
                finite_difference_check(returns, arrays, grads, EPS, TOL)
            assert re.fullmatch(rf"gradient mismatch in a at \(1, 2\): finite difference "
                                rf"{number}, gradient {number}", str(caught.value)), caught.value
        assert snapshot(arrays) == before

    def test_restores_the_entry_when_the_objective_raises(self):
        arrays, grads, _ = cubes()
        before = snapshot(arrays)

        def objective():
            raise ZeroDivisionError

        with pytest.raises(ZeroDivisionError):
            finite_difference_check(objective, arrays, grads, EPS, TOL)
        assert snapshot(arrays) == before


def reversed_pool_argmax(real):
    """pool_argmax with its batch rows reversed: each video's pool gradient
    goes to another video's argmax windows."""
    return lambda fmap, values: real(fmap, values)[::-1]


def offset_zero_rows(real):
    """_offset_rows feeding offset 0's rows for every offset."""
    return lambda X, a, num_windows, scratch: real(X, 0, num_windows, scratch)


@pytest.mark.parametrize("name, fault", [("pool_argmax", reversed_pool_argmax),
                                         ("_offset_rows", offset_zero_rows)])
def test_selftest_reports_an_engine_fault(monkeypatch, capsys, name, fault):
    # Both faults show only in a batch of two or more videos or in the
    # offset copy every command runs; the selftest must see each.
    monkeypatch.setattr(temporal_conv, name, fault(getattr(temporal_conv, name)))
    assert run_selftest() >= 1
    assert "[FAIL]" in capsys.readouterr().out
