from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adasde import optimizers
from adasde.ngos import GaussianOracle
from adasde.optimizers import (
    ALGORITHMS,
    HyperParams,
    NonFiniteError,
    OptimizerState,
    adam_step,
    rmsprop_step,
    run_discrete,
    sgd_step,
    step_function,
)
from adasde.problems import IsotropicCovariance, LinearProblem, QuadraticProblem
from adasde.recording import TestFunctionSet
from adasde.scaling import hyperparams_from_constants, svag_transform_hparams


def state(theta, v=1.0, m=0.0, k=0):
    """A hand-built state: float arrays of theta's shape, as ``OptimizerState.initial`` makes."""
    theta = np.atleast_1d(np.asarray(theta, float))

    def full(x):
        return np.broadcast_to(np.asarray(x, float), theta.shape).copy()

    return OptimizerState(theta, m=full(m), v=full(v), k=k)


class TestInitial:
    def test_arrays_share_theta_shape_with_zero_momentum(self):
        s = OptimizerState.initial(np.ones((3, 2)), v0=[1.0, 2.0])
        assert s.theta.shape == s.m.shape == s.v.shape == (3, 2)
        assert s.k == 0
        np.testing.assert_array_equal(s.m, 0.0)
        np.testing.assert_array_equal(s.v, [[1.0, 2.0]] * 3)

    def test_v_is_a_copy_of_the_callers_array(self):
        v0 = np.ones((3, 2))
        s = OptimizerState.initial(np.ones((3, 2)), v0=v0)
        assert not np.shares_memory(s.v, v0)

    def test_negative_v0_rejected(self):
        with pytest.raises(ValueError, match="v must be nonnegative"):
            OptimizerState.initial(np.zeros((2, 2)), v0=[1.0, -1e-3])


class TestStepContract:
    """A step builds its successor from the arrays it computed and writes into none of its input's."""

    HP = HyperParams(eta=0.1, beta=0.9, beta1=0.8, beta2=0.95, epsilon=0.01)

    @staticmethod
    def start():
        rng = np.random.default_rng(8)
        s = OptimizerState(
            rng.standard_normal((3, 2)), m=rng.standard_normal((3, 2)),
            v=rng.uniform(0.5, 2.0, (3, 2)), k=2,
        )
        return s, rng.standard_normal((3, 2))

    @pytest.mark.parametrize("step", [rmsprop_step, sgd_step])
    def test_a_step_that_keeps_m_passes_the_same_array_on(self, step):
        s, g = self.start()
        assert step(s, g, self.HP).m is s.m

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_no_step_writes_into_its_input(self, algo):
        s, g = self.start()
        before = {name: getattr(s, name).copy() for name in ("theta", "m", "v")}
        g_before = g.copy()
        out = step_function(algo)(s, g, self.HP)
        assert out.k == s.k + 1
        for name, values in before.items():
            np.testing.assert_array_equal(getattr(s, name), values, err_msg=name)
        np.testing.assert_array_equal(g, g_before)


class TestRmspropStep:
    def test_direct_formula(self):
        hp = HyperParams(eta=0.1, beta=0.5, epsilon=0.0)
        out = rmsprop_step(state([1.0], v=4.0), np.array([2.0]), hp)
        assert out.theta[0] == pytest.approx(0.9)
        assert out.v[0] == pytest.approx(4.0)
        assert out.k == 1

    def test_zero_gradient(self):
        hp = HyperParams(eta=0.1, beta=0.7)
        out = rmsprop_step(state([2.0], v=3.0), np.array([0.0]), hp)
        assert out.theta[0] == 2.0
        assert out.v[0] == pytest.approx(0.7 * 3.0)

    def test_beta_one_freezes_v(self):
        hp = HyperParams(eta=0.1, beta=1.0)
        s = state([0.0], v=5.0)
        for g in ([1.0], [-3.0], [0.5]):
            s = rmsprop_step(s, np.array(g), hp)
            assert s.v[0] == 5.0

    def test_zero_denominator_rejected(self):
        hp = HyperParams(eta=0.1, beta=0.5, epsilon=0.0)
        with pytest.raises(ValueError):
            rmsprop_step(state([1.0], v=0.0), np.array([1.0]), hp)

    def test_v_closed_form_matches_iteration(self):
        # v_k = beta^k v0 + (1-beta) sum_j beta^(k-1-j) g_j^2
        rng = np.random.default_rng(0)
        grads = rng.standard_normal(12)
        beta, v0 = 0.9, 2.0
        hp = HyperParams(eta=0.1, beta=beta)
        s = state([0.0], v=v0)
        for g in grads:
            s = rmsprop_step(s, np.array([g]), hp)
        k = len(grads)
        closed = beta**k * v0 + (1 - beta) * sum(
            beta ** (k - 1 - j) * grads[j] ** 2 for j in range(k)
        )
        assert s.v[0] == pytest.approx(closed, abs=1e-12)


class TestAdamStep:
    def test_first_step_with_k0_convention(self):
        hp = HyperParams(eta=0.1, beta1=0.9, beta2=0.99, epsilon=0.0)
        out = adam_step(state([1.0], v=1.0), np.array([2.0]), hp)
        # m' = 0.2, mhat = 2, vhat = v, update = -0.1 * 2 / 1
        assert out.m[0] == pytest.approx(0.2)
        assert out.theta[0] == pytest.approx(0.8)

    def test_zero_gradient_zero_momentum_fixed_point(self):
        hp = HyperParams(eta=0.1, beta1=0.9, beta2=0.99)
        out = adam_step(state([3.0], v=1.0, m=0.0), np.array([0.0]), hp)
        assert out.theta[0] == 3.0

    def test_sign_update_with_zero_decays(self):
        hp = HyperParams(eta=0.1, beta1=0.0, beta2=0.0, epsilon=0.0)
        g = np.array([-2.5])
        s = state([0.0], v=g**2, k=1)  # constant gradient stream: v already g^2
        out = adam_step(s, g, hp)
        assert out.theta[0] - s.theta[0] == pytest.approx(0.1)  # -eta * g / |g|
        assert np.sign(out.theta[0] - s.theta[0]) == -np.sign(g[0])

    def test_beta1_zero_matches_rmsprop_once_corrections_decay(self):
        rng = np.random.default_rng(1)
        hp_adam = HyperParams(eta=0.05, beta1=0.0, beta2=0.5, epsilon=0.1)
        hp_rms = HyperParams(eta=0.05, beta=0.5, epsilon=0.1)
        sa = state([1.0], v=1.0)
        sr = state([1.0], v=1.0)
        for k in range(80):
            g = rng.standard_normal(1)
            theta_before = sa.theta.copy()
            sa = adam_step(sa, g, hp_adam)
            sr_next = rmsprop_step(sr, g, hp_rms)
            if k == 0 or k >= 60:  # exact at k=0; corrections ~ beta2^k below 1e-12 later
                assert sa.theta[0] - theta_before[0] == pytest.approx(
                    sr_next.theta[0] - sr.theta[0], abs=1e-12
                )
            sr = sr_next
            sa = OptimizerState(sa.theta, m=sa.m, v=sa.v, k=sa.k)

    def test_beta1_one_rejected(self):
        hp = HyperParams(eta=0.1, beta1=1.0, beta2=0.99)
        with pytest.raises(ValueError):
            adam_step(state([1.0], v=1.0), np.array([1.0]), hp)

    def test_negative_step_index_rejected(self):
        hp = HyperParams(eta=0.1, beta1=0.9, beta2=0.99)
        with pytest.raises(ValueError, match="step index must be nonnegative"):
            adam_step(state([1.0], v=1.0, k=-1), np.array([1.0]), hp)

    def test_beta2_one_rejected_after_first_step(self):
        hp = HyperParams(eta=0.1, beta1=0.9, beta2=1.0)
        adam_step(state([1.0], v=1.0, k=0), np.array([1.0]), hp)  # k=0 convention is fine
        with pytest.raises(ValueError):
            adam_step(state([1.0], v=1.0, k=3), np.array([1.0]), hp)


class TestSgdStep:
    def test_zero_gradient_identity(self):
        out = sgd_step(state([1.0, 2.0]), np.zeros(2), HyperParams(eta=0.5))
        np.testing.assert_array_equal(out.theta, [1.0, 2.0])

    def test_direct(self):
        out = sgd_step(state([0.0, 0.0]), np.array([1.0, -1.0]), HyperParams(eta=0.5))
        np.testing.assert_allclose(out.theta, [-0.5, 0.5])

    def test_two_steps_equal_one_double_step(self):
        g = np.array([0.3, -0.7])
        s2 = sgd_step(sgd_step(state([1.0, 1.0]), g, HyperParams(eta=0.2)), g, HyperParams(eta=0.2))
        s1 = sgd_step(state([1.0, 1.0]), g, HyperParams(eta=0.4))
        np.testing.assert_allclose(s2.theta, s1.theta)


class TestSvagTransform:
    def test_identity_at_ell_one(self):
        hp = HyperParams(eta=1e-3, beta=0.999, epsilon=1e-8)
        assert svag_transform_hparams(hp, 1.0, "rmsprop") == hp

    def test_frozen_example(self):
        hp = HyperParams(eta=1e-3, beta=0.999, epsilon=1e-8)
        out = svag_transform_hparams(hp, 2.0, "rmsprop")
        assert out.eta == pytest.approx(5e-4)
        assert out.beta == pytest.approx(0.99975)
        assert out.epsilon == pytest.approx(2e-8)

    @given(
        st.floats(min_value=1.0, max_value=8.0),
        st.floats(min_value=1.0, max_value=8.0),
        st.floats(min_value=0.5, max_value=0.9999),
    )
    @settings(max_examples=60, deadline=None)
    def test_composition(self, a, b, beta):
        hp = HyperParams(eta=1e-2, beta1=beta, beta2=beta, epsilon=1e-8)
        two_hops = svag_transform_hparams(svag_transform_hparams(hp, a, "adam"), b, "adam")
        one_hop = svag_transform_hparams(hp, a * b, "adam")
        assert two_hops.eta == pytest.approx(one_hop.eta, rel=1e-12)
        assert two_hops.beta1 == pytest.approx(one_hop.beta1, abs=1e-12)
        assert two_hops.beta2 == pytest.approx(one_hop.beta2, abs=1e-12)

    def test_decay_rate_invariant(self):
        hp = HyperParams(eta=1e-2, beta=0.99)
        for ell in (1.0, 2.0, 4.0):
            out = svag_transform_hparams(hp, ell, "rmsprop")
            assert (1 - out.beta) * ell**2 == pytest.approx(1 - hp.beta, abs=1e-12)

    @pytest.mark.parametrize("algo", ["rmsprop", "adam"])
    @pytest.mark.parametrize("ell", [2, 4, 8])
    def test_bits_match_direct_formula_at_powers_of_two(self, algo, ell):
        # the harness's hyperparameters; the direct eta/ell, eps*ell, (1-beta)/ell^2 form
        hp, _ = hyperparams_from_constants(algo, 0.2, 1.0, 0.1, 1.0, c1=1.0)
        decays = {"rmsprop": ["beta"], "adam": ["beta1", "beta2"]}[algo]
        direct = dict(eta=hp.eta / ell, epsilon=hp.epsilon * ell)
        direct.update({name: 1.0 - (1.0 - getattr(hp, name)) / ell**2 for name in decays})
        out = svag_transform_hparams(hp, ell, algo)
        for name, value in direct.items():
            assert getattr(out, name).hex() == value.hex(), name


class TestRunDiscrete:
    def setup_method(self):
        self.problem = QuadraticProblem(np.diag([1.0, 2.0]))
        self.cov = IsotropicCovariance(1.0)
        self.fns = TestFunctionSet.from_names(
            ["theta_0", "theta_1", "theta_norm_sq", "loss", "grad_norm", "u_0", "u_1"], 2
        )
        self.hp = HyperParams(eta=0.1, beta=0.96)
        self.init = OptimizerState.initial(np.tile([1.0, -1.0], (8, 1)), v0=1.0)

    def test_zero_steps_records_initial_checkpoint_only(self):
        oracle = GaussianOracle(self.problem, self.cov, sigma=1.0)
        rec = run_discrete(
            oracle, "rmsprop", self.hp, self.init, 0, self.fns, [0],
            np.random.default_rng(0),
        )
        assert rec.times.tolist() == [0.0]
        assert rec.seed_count == 8

    def test_noiseless_run_is_deterministic_across_seeds(self):
        oracle = GaussianOracle(self.problem, self.cov, sigma=0.0)
        fns = TestFunctionSet.from_names(["theta_0", "theta_1", "theta_norm_sq", "loss", "grad_norm"], 2)
        rec = run_discrete(
            oracle, "sgd", self.hp, self.init, 5, fns, [5],
            np.random.default_rng(0),
        )
        vals = rec.values["theta_0"][0]
        assert np.ptp(vals) == 0.0

    def test_same_seed_bit_identical(self):
        oracle = GaussianOracle(self.problem, self.cov, sigma=1.0)
        recs = [
            run_discrete(
                oracle, "rmsprop", self.hp, self.init, 20, self.fns,
                [0, 10, 20], np.random.default_rng(123),
            )
            for _ in range(2)
        ]
        for name in recs[0].names:
            np.testing.assert_array_equal(recs[0].values[name], recs[1].values[name])

    def test_continuous_time_scaling(self):
        oracle = GaussianOracle(self.problem, self.cov, sigma=1.0)
        rec = run_discrete(
            oracle, "rmsprop", self.hp, self.init, 10, self.fns, [10],
            np.random.default_rng(0),
        )
        assert rec.times[-1] == pytest.approx(10 * 0.1**2)
        fns = TestFunctionSet.from_names(["theta_0", "theta_1", "theta_norm_sq", "loss", "grad_norm"], 2)
        rec_sgd = run_discrete(
            oracle, "sgd", self.hp, self.init, 10, fns, [10],
            np.random.default_rng(0),
        )
        assert rec_sgd.times[-1] == pytest.approx(10 * 0.1)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_nonfinite_detection_reports_step(self):
        p = LinearProblem([1.0])
        oracle = GaussianOracle(p, IsotropicCovariance(1.0), sigma=1e160)
        init = OptimizerState.initial(np.zeros((4, 1)), v0=1.0)
        fns = TestFunctionSet.from_names(["theta_0", "theta_norm_sq", "loss", "grad_norm"], 1)
        with pytest.raises(NonFiniteError) as err:
            run_discrete(
                oracle, "sgd", HyperParams(eta=1e160), init, 10, fns, [10],
                np.random.default_rng(0),
            )
        assert err.value.step >= 1


class TestRunStart:
    """``run_discrete`` takes an ensemble, and checks the state it starts from once."""

    def setup_method(self):
        self.problem = QuadraticProblem(np.diag([1.0, 2.0]))
        self.fns = TestFunctionSet.from_names(["theta_0", "theta_1"], 2)
        self.init = OptimizerState.initial(np.tile([1.0, -1.0], (8, 1)), v0=1.0)

    def run(self, init, algo="rmsprop"):
        oracle = GaussianOracle(self.problem, IsotropicCovariance(1.0), sigma=1.0)
        return run_discrete(
            oracle, algo, HyperParams(eta=0.1, beta=0.96), init, 3, self.fns, [3],
            np.random.default_rng(0),
        )

    @pytest.mark.parametrize("shape", [(3, 4, 2), (2,)])
    def test_a_start_that_is_not_one_ensemble_is_rejected(self, shape):
        # a (3, 4, 2) start must not run with theta[:, 0, :] recorded as 3 seeds
        with pytest.raises(ValueError, match=r"one \(seeds, d\) shape"):
            self.run(OptimizerState.initial(np.ones(shape), v0=1.0))

    @pytest.mark.parametrize("field", ["m", "v"])
    def test_an_m_or_v_of_another_shape_is_rejected(self, field):
        init = replace(self.init, **{field: getattr(self.init, field)[:, :1]})
        with pytest.raises(ValueError, match=r"one \(seeds, d\) shape"):
            self.run(init, "adam")

    def test_negative_v_rejected(self):
        v = self.init.v.copy()
        v[3, 1] = -1e-3
        with pytest.raises(ValueError, match="v must be nonnegative"):
            self.run(replace(self.init, v=v))

    @pytest.mark.parametrize("algo", ALGORITHMS)
    @pytest.mark.parametrize("field", ["theta", "m", "v"])
    def test_a_non_finite_start_raises_at_step_zero(self, algo, field):
        # before the start is recorded, as euler_maruyama checks its start
        bad = getattr(self.init, field).copy()
        bad[5, 0] = np.nan
        with pytest.raises(NonFiniteError) as err:
            self.run(replace(self.init, **{field: bad}), algo)
        assert err.value.step == 0

    @pytest.mark.parametrize("algo, field", [
        ("rmsprop", "theta"), ("rmsprop", "v"), ("sgd", "theta"),
        ("adam", "theta"), ("adam", "m"), ("adam", "v"),
    ])
    def test_a_nan_entering_a_rebuilt_array_raises_with_its_step(self, algo, field, monkeypatch):
        # each step reads only the arrays it rebuilt; a NaN in any of them is caught where it enters
        clean = optimizers.step_function(algo)

        def poisoned(state, g, hp):
            new = clean(state, g, hp)
            if new.k != 2:
                return new
            bad = getattr(new, field).copy()
            bad[3, 1] = np.nan
            return replace(new, **{field: bad})

        monkeypatch.setitem(optimizers._STEPS, algo, poisoned)
        with pytest.raises(NonFiniteError) as err:
            self.run(self.init, algo)
        assert err.value.step == 2

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_negative_step_index_rejected(self, algo):
        with pytest.raises(ValueError, match="step index must be nonnegative"):
            self.run(replace(self.init, k=-1), algo)
