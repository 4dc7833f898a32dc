"""Test-function sets, and the checkpoint rule both runners share."""
import re

import numpy as np
import pytest

from adasde.ngos import GaussianOracle
from adasde.optimizers import HyperParams, OptimizerState, run_discrete
from adasde.problems import IsotropicCovariance, QuadraticProblem
from adasde.recording import StateView, TestFunctionSet
from adasde.sde import build_rmsprop_sde, euler_maruyama

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


STEPS = 4
THETA_0 = TestFunctionSet.from_names(["theta_0"], dim=2)


def discrete_run(checkpoints):
    # eta = 0.1: step k sits at t = k eta^2 = 0.01 k
    oracle = GaussianOracle(PROBLEM, IsotropicCovariance(1.0), sigma=1.0)
    init = OptimizerState.initial(np.ones((2, 2)), v0=1.0)
    return run_discrete(
        oracle, "rmsprop", HyperParams(eta=0.1), init, STEPS, THETA_0, checkpoints,
        np.random.default_rng(0),
    )


def normals(seed, paths, noise_dim):
    """A noise stream: one (paths, noise_dim) standard-normal block per step, drawn as read."""
    rng = np.random.default_rng(seed)
    while True:
        yield rng.standard_normal((paths, noise_dim))


def integrated_run(checkpoints):
    # dt = 0.01: step k sits at t = 0.01 k
    system = build_rmsprop_sde(PROBLEM, IsotropicCovariance(1.0), 1.0, 0.0, 1.0)
    return euler_maruyama(
        system, np.ones((2, 4)), 0.0, 0.01, STEPS, THETA_0, checkpoints, noise=normals(0, 2, 2)
    )


RUNNERS = {"run_discrete": discrete_run, "euler_maruyama": integrated_run}


class TestCheckpointRule:
    """Both runners take checkpoints as step indices, integers in [0, steps]."""

    @pytest.mark.parametrize("checkpoint", [-1, STEPS + 1, 2.5, True])
    @pytest.mark.parametrize("runner", list(RUNNERS))
    def test_rejects_anything_but_a_step_of_the_run(self, runner, checkpoint):
        # a fractional step used to be truncated (discrete) or snapped to the
        # nearest grid time (integrated), and True was read as step 1,
        # recording a step nobody asked for
        message = f"checkpoints must be integers in [0, {STEPS}], got {checkpoint!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            RUNNERS[runner]([0, checkpoint])

    @pytest.mark.parametrize("runner", list(RUNNERS))
    def test_records_each_step_once_in_step_order(self, runner):
        rec = RUNNERS[runner]([STEPS, 0, 2, 2])
        np.testing.assert_allclose(rec.times, [0.0, 0.02, 0.04], rtol=0, atol=1e-15)
