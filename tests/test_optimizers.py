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
from adasde.problems import ConstantCovariance, IsotropicCovariance, LinearProblem, QuadraticProblem
from adasde.recording import TestFunctionSet
from adasde.scaling import hyperparams_from_constants, scale_sqrt


def state(theta, v=1.0, m=0.0, k=0):
    """A hand-built state: float arrays of theta's shape, as ``OptimizerState.initial`` makes."""
    theta = np.atleast_1d(np.asarray(theta, float))

    def full(x):
        return np.broadcast_to(np.asarray(x, float), theta.shape).copy()

    return OptimizerState(theta, m=full(m), v=full(v), k=k)


class TestHyperParams:
    @pytest.mark.parametrize("eta", [0.0, -0.1, float("nan")])
    def test_rejects_an_eta_that_is_not_positive(self, eta):
        with pytest.raises(ValueError, match="eta must be positive"):
            HyperParams(eta=eta)

    @pytest.mark.parametrize("name", ["beta", "beta1", "beta2"])
    @pytest.mark.parametrize("value", [-0.1, 1.1])
    def test_rejects_a_decay_outside_the_unit_interval(self, name, value):
        with pytest.raises(ValueError, match=f"{name} out of"):
            HyperParams(eta=0.1, **{name: value})

    @pytest.mark.parametrize("name", ["beta", "beta1", "beta2"])
    def test_accepts_a_decay_at_either_end(self, name):
        # 0 and 1 are legal decays; a step rejects the one it cannot correct
        for value in (0.0, 1.0):
            assert getattr(HyperParams(eta=0.1, **{name: value}), name) == value

    def test_rejects_a_negative_epsilon(self):
        with pytest.raises(ValueError, match="epsilon must be nonnegative"):
            HyperParams(eta=0.1, epsilon=-1e-12)


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
    def start(k=2):
        rng = np.random.default_rng(8)
        s = OptimizerState(
            rng.standard_normal((3, 2)), m=rng.standard_normal((3, 2)),
            v=rng.uniform(0.5, 2.0, (3, 2)), k=k,
        )
        return s, rng.standard_normal((3, 2))

    @pytest.mark.parametrize("step", [rmsprop_step, sgd_step])
    def test_a_step_that_keeps_m_passes_the_same_array_on(self, step):
        s, g = self.start()
        assert step(s, g, self.HP).m is s.m

    # at k = 0 Adam's v_hat is v itself
    @pytest.mark.parametrize("k", [0, 2])
    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_no_step_writes_into_its_input(self, algo, k):
        s, g = self.start(k)
        before = {name: getattr(s, name).copy() for name in ("theta", "m", "v")}
        g_before = g.copy()
        out = step_function(algo)(s, g, self.HP)
        assert out.k == s.k + 1
        for name, values in before.items():
            np.testing.assert_array_equal(getattr(s, name), values, err_msg=name)
        np.testing.assert_array_equal(g, g_before)

    # sqrt(-0.0) is -0.0, and -0.0 + 0.0 is a zero denominator too; at k = 0
    # Adam's v_hat is v itself
    @pytest.mark.parametrize("v", [[0.0], [-0.0], [1.0, 0.0]], ids=["zero", "negative-zero", "one-coordinate"])
    @pytest.mark.parametrize("step", [rmsprop_step, adam_step], ids=["rmsprop", "adam"])
    def test_zero_denominator_rejected(self, step, v):
        hp = HyperParams(eta=0.1, beta=0.5, beta1=0.9, beta2=0.99, epsilon=0.0)
        with pytest.raises(ValueError, match="vanishes in some coordinate"):
            step(state(np.ones(len(v)), v=v), np.ones(len(v)), hp)

    @pytest.mark.parametrize("k", [0, 2])
    def test_bits_match_the_written_formulas(self, k):
        # the steps build their temporaries in place, in the order these
        # expressions evaluate, so the results are the same to the bit
        s, g, hp = *self.start(k), self.HP
        rms = rmsprop_step(s, g, hp)
        np.testing.assert_array_equal(rms.theta, s.theta - hp.eta * g / (np.sqrt(s.v) + hp.epsilon))
        np.testing.assert_array_equal(rms.v, hp.beta * s.v + (1.0 - hp.beta) * g * g)
        adam = adam_step(s, g, hp)
        m = hp.beta1 * s.m + (1.0 - hp.beta1) * g
        v_hat = s.v if k == 0 else s.v / (1.0 - hp.beta2**k)
        denom = np.sqrt(v_hat) + hp.epsilon
        np.testing.assert_array_equal(adam.m, m)
        np.testing.assert_array_equal(adam.theta, s.theta - hp.eta * (m / (1.0 - hp.beta1 ** (k + 1))) / denom)
        np.testing.assert_array_equal(adam.v, hp.beta2 * s.v + (1.0 - hp.beta2) * g * g)


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

    def test_direct_formula_with_bias_corrections(self):
        # at k = 2: m' = 0.5 * 0.5 + 0.5 * 2 = 1.25, corrected by 1 - 0.5^3;
        # v = 1.75 is corrected by 1 - 0.75^2 to 4, so the denominator is 2 + 0.5
        hp = HyperParams(eta=0.1, beta1=0.5, beta2=0.75, epsilon=0.5)
        out = adam_step(state([1.0], v=1.75, m=0.5, k=2), np.array([2.0]), hp)
        assert out.m[0] == 1.25
        assert out.theta[0] == pytest.approx(1.0 - 0.1 * (1.25 / 0.875) / 2.5, abs=1e-15)
        assert out.v[0] == pytest.approx(0.75 * 1.75 + 0.25 * 4.0, abs=1e-15)
        assert out.k == 3

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


def one_step_increments(oracle, algo, hp, theta, u, samples, seed, m=None, k=1):
    """samples draws of one step's increment from a fixed state, in (theta[, m], u) coordinates.

    The state is given in u = v / sigma_effective^2 (u read as v when the oracle
    is noiseless), and each row steps from it with its own gradient draw.
    """
    sigma = oracle.sigma_effective if oracle.sigma_effective > 0 else 1.0
    d = len(theta)
    start = state(np.broadcast_to(theta, (samples, d)), v=np.asarray(u) * sigma**2,
                  m=0.0 if m is None else m, k=k)
    new = step_function(algo)(start, oracle.sample(start.theta, np.random.default_rng(seed)), hp)
    blocks = [new.theta - start.theta]
    if algo == "adam":
        blocks.append(new.m - start.m)
    blocks.append((new.v - start.v) / sigma**2)
    return np.concatenate(blocks, axis=1)


def mean_and_se(terms):
    """The mean of per-sample terms over axis 0, with its standard error."""
    return terms.mean(axis=0), terms.std(axis=0, ddof=1) / np.sqrt(terms.shape[0])


class TestOneStepLaws:
    """Raw moments of one RMSprop or Adam step under Gaussian noise against closed forms.

    Each is a sample mean of per-draw products, within 4 SE of its exact value.
    """

    THETA, U = np.array([1.0, -0.5]), np.array([1.1, 0.9])

    def setup_method(self):
        self.p = QuadraticProblem(np.diag([1.0, 3.0]))
        self.sig = np.array([[1.0, 0.2], [0.2, 0.6]])
        self.cov = ConstantCovariance(self.sig)

    def oracle(self, sigma):
        return GaussianOracle(self.p, self.cov, sigma=sigma)

    def _u_drift(self, decay, grad, sigma):
        # E[Delta u] with v = u sigma^2 and E[g^2] = grad^2 + sigma^2 diag(Sigma)
        return (1.0 - decay) * ((grad**2 + sigma**2 * np.diag(self.sig)) / sigma**2 - self.U)

    def _gaussian_moments(self, grad, sigma):
        # E[g_i g_j], E[g_i g_j g_k] and E[g_i^2 g_j^2] for g ~ N(grad, sigma^2 Sigma)
        c = sigma**2 * self.sig
        second = np.outer(grad, grad) + c
        third = (
            np.einsum("i,j,k->ijk", grad, grad, grad)
            + np.einsum("i,jk->ijk", grad, c)
            + np.einsum("j,ik->ijk", grad, c)
            + np.einsum("k,ij->ijk", grad, c)
        )
        sq = grad**2 + np.diag(c)
        fourth = np.outer(sq, sq) + 2 * c**2 + 4 * np.outer(grad, grad) * c
        return second, third, fourth

    def assert_first(self, delta, exact, cols=slice(None)):
        first, se = mean_and_se(delta[:, cols])
        np.testing.assert_array_less(np.abs(first - exact), 4 * se + 1e-15)

    def assert_second(self, delta, exact, cols=slice(None)):
        block = delta[:, cols]
        second, se = mean_and_se(block[:, :, None] * block[:, None, :])
        np.testing.assert_array_less(np.abs(second - exact), 4 * se)

    def test_zero_noise_is_deterministic(self):
        hp = hyperparams_from_constants("rmsprop", 0.1, sigma0=1.0, epsilon0=0.1, c2=1.0)[0]
        delta = one_step_increments(self.oracle(0.0), "rmsprop", hp, [1.0, 1.0], [1.0, 1.0], 1000, 0)
        first, se = mean_and_se(delta)
        np.testing.assert_allclose(se, 0.0, atol=1e-14)
        second = (delta[:, :, None] * delta[:, None, :]).mean(axis=0)
        assert np.all(np.abs(second - np.outer(first, first)) < 1e-14)

    def test_rmsprop_matches_exact_first_moments(self):
        eta = 0.1
        hp, sigma = hyperparams_from_constants("rmsprop", eta, sigma0=1.0, epsilon0=0.0, c2=1.0)
        delta = one_step_increments(self.oracle(sigma), "rmsprop", hp, self.THETA, self.U, 100_000, 1)
        grad = self.p.full_gradient(self.THETA)
        den = np.sqrt(self.U * sigma**2) + hp.epsilon
        self.assert_first(delta, np.concatenate([-eta * grad / den, self._u_drift(hp.beta, grad, sigma)]))

    def test_adam_matches_exact_first_moments(self):
        eta, k = 0.1, 4
        hp, sigma = hyperparams_from_constants("adam", eta, sigma0=1.0, epsilon0=0.1, c2=1.0, c1=2.0)
        m = np.array([0.3, 0.0])
        delta = one_step_increments(self.oracle(sigma), "adam", hp, self.THETA, self.U, 100_000, 2, m=m, k=k)
        grad = self.p.full_gradient(self.THETA)
        m_new = hp.beta1 * m + (1.0 - hp.beta1) * grad
        den = np.sqrt(self.U * sigma**2 / (1.0 - hp.beta2**k)) + hp.epsilon
        self.assert_first(delta, np.concatenate([
            -eta * (m_new / (1.0 - hp.beta1 ** (k + 1))) / den,
            m_new - m,
            self._u_drift(hp.beta2, grad, sigma),
        ]))

    @pytest.mark.parametrize("eta", [0.1, 0.2])
    def test_rmsprop_matches_exact_theta_second_moment(self, eta):
        # E[Delta theta_i Delta theta_j] = eta^2 E[g_i g_j] / (den_i den_j), exactly
        hp, sigma = hyperparams_from_constants("rmsprop", eta, sigma0=1.0, epsilon0=0.0, c2=1.0)
        delta = one_step_increments(self.oracle(sigma), "rmsprop", hp, self.THETA, self.U, 100_000, 7)
        grad = self.p.full_gradient(self.THETA)
        den = np.sqrt(self.U * sigma**2) + hp.epsilon
        exact = eta**2 * (np.outer(grad, grad) + sigma**2 * self.sig) / np.outer(den, den)
        self.assert_second(delta, exact, cols=slice(0, 2))

    def test_fixed_point_has_zero_first_moments(self):
        # at the minimum with u = diag(Sigma), E[g] = 0 and E[g^2] / sigma^2 = u
        hp, sigma = hyperparams_from_constants("rmsprop", 0.1, sigma0=1.0, epsilon0=0.1, c2=1.0)
        delta = one_step_increments(
            self.oracle(sigma), "rmsprop", hp, np.zeros(2), np.diag(self.sig), 100_000, 8
        )
        self.assert_first(delta, 0.0)

    def test_adam_momentum_equilibrium(self):
        # m = grad is the momentum's fixed point: E[Delta m] = 0
        hp, sigma = hyperparams_from_constants("adam", 0.1, sigma0=1.0, epsilon0=0.1, c2=1.0, c1=2.0)
        grad = self.p.full_gradient(self.THETA)
        delta = one_step_increments(
            self.oracle(sigma), "adam", hp, self.THETA, self.U, 100_000, 9, m=grad, k=3
        )
        self.assert_first(delta, 0.0, cols=slice(2, 4))

    @pytest.mark.parametrize("k", [0, 1000])
    def test_adam_theta_first_moment_bias_corrections(self, k):
        # k = 0 reads v uncorrected; at k = 1000 the v correction is all but gone
        eta = 0.1
        hp, sigma = hyperparams_from_constants("adam", eta, sigma0=1.0, epsilon0=0.1, c2=1.0, c1=2.0)
        m = np.array([0.3, 0.0])
        delta = one_step_increments(self.oracle(sigma), "adam", hp, self.THETA, self.U, 100_000, 10, m=m, k=k)
        grad = self.p.full_gradient(self.THETA)
        m_new = hp.beta1 * m + (1.0 - hp.beta1) * grad
        bc2 = 1.0 if k == 0 else 1.0 - hp.beta2**k
        den = np.sqrt(self.U * sigma**2 / bc2) + hp.epsilon
        self.assert_first(delta, -eta * (m_new / (1.0 - hp.beta1 ** (k + 1))) / den, cols=slice(0, 2))

    def test_adam_matches_exact_m_block_second_moment(self):
        # Delta m = m' - m + (1 - beta1) (g - grad), so its noise is (1 - beta1)^2 sigma^2 Sigma
        hp, sigma = hyperparams_from_constants("adam", 0.1, sigma0=1.0, epsilon0=0.1, c2=1.0, c1=2.0)
        m = np.array([0.3, 0.0])
        delta = one_step_increments(self.oracle(sigma), "adam", hp, self.THETA, self.U, 100_000, 11, m=m, k=4)
        grad = self.p.full_gradient(self.THETA)
        dm = (1.0 - hp.beta1) * (grad - m)
        exact = np.outer(dm, dm) + (1.0 - hp.beta1) ** 2 * sigma**2 * self.sig
        self.assert_second(delta, exact, cols=slice(2, 4))

    def test_rmsprop_matches_exact_full_second_moment(self):
        # Delta theta = -eta g / den and Delta u = (1 - beta) (g^2 / sigma^2 - u)
        eta = 0.1
        hp, sigma = hyperparams_from_constants("rmsprop", eta, sigma0=1.0, epsilon0=0.1, c2=1.0)
        delta = one_step_increments(self.oracle(sigma), "rmsprop", hp, self.THETA, self.U, 100_000, 12)
        grad = self.p.full_gradient(self.THETA)
        den = np.sqrt(self.U * sigma**2) + hp.epsilon
        gg, ggg, gggg = self._gaussian_moments(grad, sigma)
        a, s2 = -eta / den, sigma**2
        tt = np.outer(a, a) * gg
        # E[g_i (g_j^2 / sigma^2 - u_j)]
        tu = a[:, None] * (1.0 - hp.beta) * (np.einsum("ijj->ij", ggg) / s2 - np.outer(grad, self.U))
        eg2 = np.diag(gg) / s2
        uu = (1.0 - hp.beta) ** 2 * (
            gggg / s2**2 - np.outer(eg2, self.U) - np.outer(self.U, eg2) + np.outer(self.U, self.U)
        )
        self.assert_second(delta, np.block([[tt, tu], [tu.T, uu]]))

    def test_rmsprop_matches_exact_theta_third_moments(self):
        eta = 0.1
        hp, sigma = hyperparams_from_constants("rmsprop", eta, sigma0=1.0, epsilon0=0.1, c2=1.0)
        delta = one_step_increments(self.oracle(sigma), "rmsprop", hp, self.THETA, self.U, 100_000, 13)
        grad = self.p.full_gradient(self.THETA)
        a = -eta / (np.sqrt(self.U * sigma**2) + hp.epsilon)
        exact = np.einsum("i,j,k,ijk->ijk", a, a, a, self._gaussian_moments(grad, sigma)[1])
        t = delta[:, :2]
        third, se = mean_and_se(t[:, :, None, None] * t[:, None, :, None] * t[:, None, None, :])
        np.testing.assert_array_less(np.abs(third - exact), 4 * se)


class TestSvagTransform:
    """The noise-amplified transform: the square-root rule at kappa = 1/ell^2."""

    def test_identity_at_ell_one(self):
        hp = HyperParams(eta=1e-3, beta=0.999, epsilon=1e-8)
        assert scale_sqrt(hp, 1.0**-2, "rmsprop") == hp

    def test_frozen_example(self):
        hp = HyperParams(eta=1e-3, beta=0.999, epsilon=1e-8)
        out = scale_sqrt(hp, 2.0**-2, "rmsprop")
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
        two_hops = scale_sqrt(scale_sqrt(hp, a**-2, "adam"), b**-2, "adam")
        one_hop = scale_sqrt(hp, (a * b) ** -2, "adam")
        assert two_hops.eta == pytest.approx(one_hop.eta, rel=1e-12)
        assert two_hops.beta1 == pytest.approx(one_hop.beta1, abs=1e-12)
        assert two_hops.beta2 == pytest.approx(one_hop.beta2, abs=1e-12)

    def test_decay_rate_invariant(self):
        hp = HyperParams(eta=1e-2, beta=0.99)
        for ell in (1.0, 2.0, 4.0):
            out = scale_sqrt(hp, ell**-2, "rmsprop")
            assert (1 - out.beta) * ell**2 == pytest.approx(1 - hp.beta, abs=1e-12)

    @pytest.mark.parametrize("algo", ["rmsprop", "adam"])
    @pytest.mark.parametrize("ell", [2, 4, 8])
    def test_bits_match_direct_formula_at_powers_of_two(self, algo, ell):
        # the harness's hyperparameters; the direct eta/ell, eps*ell, (1-beta)/ell^2 form
        hp, _ = hyperparams_from_constants(algo, 0.2, 1.0, 0.1, 1.0, c1=1.0)
        decays = {"rmsprop": ["beta"], "adam": ["beta1", "beta2"]}[algo]
        direct = dict(eta=hp.eta / ell, epsilon=hp.epsilon * ell)
        direct.update({name: 1.0 - (1.0 - getattr(hp, name)) / ell**2 for name in decays})
        out = scale_sqrt(hp, ell**-2, algo)
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
