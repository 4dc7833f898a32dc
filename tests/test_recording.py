"""Test-function sets: name lookup and the checks on what a function returns."""
import numpy as np
import pytest

from adasde.problems import QuadraticProblem
from adasde.recording import StateView, TestFunctionSet

PROBLEM = QuadraticProblem(np.eye(2))


def view(theta):
    return StateView(theta=np.asarray(theta), t=0.0, k=0, problem=PROBLEM)


class TestFromNames:
    def test_keeps_the_order_of_its_names(self):
        fns = TestFunctionSet.from_names(["loss", "theta_1", "theta_0"], dim=2)
        assert fns.names == ["loss", "theta_1", "theta_0"]
        out = fns.evaluate(view([[1.0, 3.0]]))
        assert list(out) == fns.names
        np.testing.assert_array_equal(out["theta_1"], [3.0])
        np.testing.assert_array_equal(out["loss"], [5.0])

    @pytest.mark.parametrize("names, match", [
        (["theta_0", "loss", "theta_0"], "duplicate"),
        (["theta_2"], "beyond dimension 2"),
        (["speed"], "unknown"),
        ([], "at least one"),
    ])
    def test_rejects(self, names, match):
        with pytest.raises(ValueError, match=match):
            TestFunctionSet.from_names(names, dim=2)


class TestEvaluate:
    def test_values_come_back_as_floats(self):
        out = TestFunctionSet.from_names(["theta_0"], dim=2).evaluate(view([[1, 2], [3, 4]]))
        assert out["theta_0"].dtype == float
        np.testing.assert_array_equal(out["theta_0"], [1.0, 3.0])

    def test_non_finite_value_names_the_function(self):
        fns = TestFunctionSet.from_names(["theta_0", "theta_1"], dim=2)
        with pytest.raises(ValueError, match="'theta_1' produced non-finite"):
            fns.evaluate(view([[1.0, np.inf]]))
