import numpy as np
import pytest

from adasde.moments import mc_discrete_moments
from adasde.ngos import GaussianOracle
from adasde.problems import ConstantCovariance, QuadraticProblem
from adasde.scaling import hyperparams_from_constants
from adasde.stats import Moments


def rng(seed=0):
    return np.random.default_rng(seed)


class TestMcDiscrete:
    THETA, U = np.array([1.0, -0.5]), np.array([1.1, 0.9])

    def setup_method(self):
        self.p = QuadraticProblem(np.diag([1.0, 3.0]))
        self.sig = np.array([[1.0, 0.2], [0.2, 0.6]])
        self.cov = ConstantCovariance(self.sig)

    def _u_drift(self, decay, grad, sigma):
        # E[Delta u] with v = u sigma^2 and E[g^2] = grad^2 + sigma^2 diag(Sigma)
        return (1.0 - decay) * ((grad**2 + sigma**2 * np.diag(self.sig)) / sigma**2 - self.U)

    def test_zero_noise_is_deterministic(self):
        oracle = GaussianOracle(self.p, self.cov, sigma=0.0)
        hp = hyperparams_from_constants("rmsprop", 0.1, sigma0=1.0, epsilon0=0.1, c2=1.0)[0]
        mom = mc_discrete_moments(
            oracle, "rmsprop", [1.0, 1.0], [1.0, 1.0], hp, 1000, rng()
        )
        assert type(mom) is Moments
        np.testing.assert_allclose(mom.first_se, 0.0, atol=1e-14)
        assert np.all(np.abs(mom.second - np.outer(mom.first, mom.first)) < 1e-14)

    def test_rmsprop_matches_exact_first_moments(self):
        eta = 0.1
        hp, sigma = hyperparams_from_constants("rmsprop", eta, sigma0=1.0, epsilon0=0.0, c2=1.0)
        oracle = GaussianOracle(self.p, self.cov, sigma=sigma)
        mc = mc_discrete_moments(oracle, "rmsprop", self.THETA, self.U, hp, 100_000, rng(1))
        grad = self.p.full_gradient(self.THETA)
        den = np.sqrt(self.U * sigma**2) + hp.epsilon
        exact = np.concatenate([-eta * grad / den, self._u_drift(hp.beta, grad, sigma)])
        np.testing.assert_array_less(np.abs(mc.first - exact), 4 * mc.first_se + 1e-15)

    def test_adam_matches_exact_first_moments(self):
        eta, k = 0.1, 4
        hp, sigma = hyperparams_from_constants("adam", eta, sigma0=1.0, epsilon0=0.1, c2=1.0, c1=2.0)
        oracle = GaussianOracle(self.p, self.cov, sigma=sigma)
        m = np.array([0.3, 0.0])
        mc = mc_discrete_moments(
            oracle, "adam", self.THETA, self.U, hp, 100_000, rng(2), m=m, k=k
        )
        grad = self.p.full_gradient(self.THETA)
        m_new = hp.beta1 * m + (1.0 - hp.beta1) * grad
        den = np.sqrt(self.U * sigma**2 / (1.0 - hp.beta2**k)) + hp.epsilon
        exact = np.concatenate([
            -eta * (m_new / (1.0 - hp.beta1 ** (k + 1))) / den,
            m_new - m,
            self._u_drift(hp.beta2, grad, sigma),
        ])
        np.testing.assert_array_less(np.abs(mc.first - exact), 4 * mc.first_se + 1e-15)

    @pytest.mark.parametrize("eta", [0.1, 0.2])
    def test_rmsprop_matches_exact_theta_second_moment(self, eta):
        # E[Delta theta_i Delta theta_j] = eta^2 E[g_i g_j] / (den_i den_j), exactly
        hp, sigma = hyperparams_from_constants("rmsprop", eta, sigma0=1.0, epsilon0=0.0, c2=1.0)
        oracle = GaussianOracle(self.p, self.cov, sigma=sigma)
        mc = mc_discrete_moments(oracle, "rmsprop", self.THETA, self.U, hp, 100_000, rng(7))
        grad = self.p.full_gradient(self.THETA)
        den = np.sqrt(self.U * sigma**2) + hp.epsilon
        exact = eta**2 * (np.outer(grad, grad) + sigma**2 * self.sig) / np.outer(den, den)
        np.testing.assert_array_less(np.abs(mc.second[:2, :2] - exact), 4 * mc.second_se[:2, :2])

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

    def test_fixed_point_has_zero_first_moments(self):
        # at the minimum with u = diag(Sigma), E[g] = 0 and E[g^2] / sigma^2 = u
        hp, sigma = hyperparams_from_constants("rmsprop", 0.1, sigma0=1.0, epsilon0=0.1, c2=1.0)
        oracle = GaussianOracle(self.p, self.cov, sigma=sigma)
        mc = mc_discrete_moments(
            oracle, "rmsprop", np.zeros(2), np.diag(self.sig), hp, 100_000, rng(8)
        )
        np.testing.assert_array_less(np.abs(mc.first), 4 * mc.first_se)

    def test_adam_momentum_equilibrium(self):
        # m = grad is the momentum's fixed point: E[Delta m] = 0
        hp, sigma = hyperparams_from_constants("adam", 0.1, sigma0=1.0, epsilon0=0.1, c2=1.0, c1=2.0)
        oracle = GaussianOracle(self.p, self.cov, sigma=sigma)
        grad = self.p.full_gradient(self.THETA)
        mc = mc_discrete_moments(
            oracle, "adam", self.THETA, self.U, hp, 100_000, rng(9), m=grad, k=3
        )
        np.testing.assert_array_less(np.abs(mc.first[2:4]), 4 * mc.first_se[2:4])

    @pytest.mark.parametrize("k", [0, 1000])
    def test_adam_theta_first_moment_bias_corrections(self, k):
        # k = 0 reads v uncorrected; at k = 1000 the v correction is all but gone
        eta = 0.1
        hp, sigma = hyperparams_from_constants("adam", eta, sigma0=1.0, epsilon0=0.1, c2=1.0, c1=2.0)
        oracle = GaussianOracle(self.p, self.cov, sigma=sigma)
        m = np.array([0.3, 0.0])
        mc = mc_discrete_moments(
            oracle, "adam", self.THETA, self.U, hp, 100_000, rng(10), m=m, k=k
        )
        grad = self.p.full_gradient(self.THETA)
        m_new = hp.beta1 * m + (1.0 - hp.beta1) * grad
        bc2 = 1.0 if k == 0 else 1.0 - hp.beta2**k
        den = np.sqrt(self.U * sigma**2 / bc2) + hp.epsilon
        exact = -eta * (m_new / (1.0 - hp.beta1 ** (k + 1))) / den
        np.testing.assert_array_less(np.abs(mc.first[:2] - exact), 4 * mc.first_se[:2])

    def test_adam_matches_exact_m_block_second_moment(self):
        # Delta m = m' - m + (1 - beta1) (g - grad), so its noise is (1 - beta1)^2 sigma^2 Sigma
        hp, sigma = hyperparams_from_constants("adam", 0.1, sigma0=1.0, epsilon0=0.1, c2=1.0, c1=2.0)
        oracle = GaussianOracle(self.p, self.cov, sigma=sigma)
        m = np.array([0.3, 0.0])
        mc = mc_discrete_moments(
            oracle, "adam", self.THETA, self.U, hp, 100_000, rng(11), m=m, k=4
        )
        grad = self.p.full_gradient(self.THETA)
        dm = (1.0 - hp.beta1) * (grad - m)
        exact = np.outer(dm, dm) + (1.0 - hp.beta1) ** 2 * sigma**2 * self.sig
        np.testing.assert_array_less(
            np.abs(mc.second[2:4, 2:4] - exact), 4 * mc.second_se[2:4, 2:4]
        )

    def test_rmsprop_matches_exact_full_second_moment(self):
        # Delta theta = -eta g / den and Delta u = (1 - beta) (g^2 / sigma^2 - u)
        eta = 0.1
        hp, sigma = hyperparams_from_constants("rmsprop", eta, sigma0=1.0, epsilon0=0.1, c2=1.0)
        oracle = GaussianOracle(self.p, self.cov, sigma=sigma)
        mc = mc_discrete_moments(oracle, "rmsprop", self.THETA, self.U, hp, 100_000, rng(12))
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
        exact = np.block([[tt, tu], [tu.T, uu]])
        np.testing.assert_array_less(np.abs(mc.second - exact), 4 * mc.second_se)

    def test_rmsprop_matches_exact_theta_third_moments(self):
        eta = 0.1
        hp, sigma = hyperparams_from_constants("rmsprop", eta, sigma0=1.0, epsilon0=0.1, c2=1.0)
        oracle = GaussianOracle(self.p, self.cov, sigma=sigma)
        mc = mc_discrete_moments(oracle, "rmsprop", self.THETA, self.U, hp, 100_000, rng(13))
        grad = self.p.full_gradient(self.THETA)
        a = -eta / (np.sqrt(self.U * sigma**2) + hp.epsilon)
        ttt = np.einsum("i,j,k,ijk->ijk", a, a, a, self._gaussian_moments(grad, sigma)[1])
        diag = np.array([ttt[i, i, i] for i in range(2)])
        np.testing.assert_array_less(np.abs(mc.third_diag[:2] - diag), 4 * mc.third_diag_se[:2])
        theta_only = [t for t, (i, j, k) in enumerate(mc.triples) if k < 2]
        assert theta_only  # (0, 0, 1) and (0, 1, 1) are measured at dim 4
        for t in theta_only:
            assert abs(mc.triple_values[t] - ttt[mc.triples[t]]) < 4 * mc.triple_se[t]

    def test_same_generator_state_gives_same_moments(self):
        hp, sigma = hyperparams_from_constants("adam", 0.1, sigma0=1.0, epsilon0=0.1, c2=1.0, c1=2.0)
        oracle = GaussianOracle(self.p, self.cov, sigma=sigma)
        first, second = rng(14), rng(14)
        a = mc_discrete_moments(oracle, "adam", self.THETA, self.U, hp, 2000, first, m=[0.3, 0.0], k=2)
        b = mc_discrete_moments(oracle, "adam", self.THETA, self.U, hp, 2000, second, m=[0.3, 0.0], k=2)
        for name in ("first", "second", "third_diag", "triple_values", "triple_se"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        assert a.triples == b.triples
        assert first.bit_generator.state == second.bit_generator.state

    @pytest.mark.parametrize("algo, kwargs, match", [
        ("sgd", {}, "adaptive algorithms"),
        ("rmsprop", {"samples": 999}, "at least 1000 samples"),
        ("rmsprop", {"u": [1.0, 0.0]}, "u must be positive"),
        ("rmsprop", {"m": [0.3, 0.0]}, "ignore m"),
        ("adam", {"k": -1}, "step index must be nonnegative"),
    ], ids=["sgd", "few-samples", "zero-u", "rmsprop-m", "negative-k"])
    def test_rejects(self, algo, kwargs, match):
        hp, sigma = hyperparams_from_constants("adam", 0.1, sigma0=1.0, epsilon0=0.1, c2=1.0, c1=2.0)
        oracle = GaussianOracle(self.p, self.cov, sigma=sigma)
        args = {"theta": [1.0, 0.0], "u": [1.0, 1.0], "samples": 1000, **kwargs}
        with pytest.raises(ValueError, match=match):
            mc_discrete_moments(oracle, algo, hp=hp, rng=rng(5), **args)

    def test_se_shrinks_with_sqrt_samples(self):
        hp, sigma = hyperparams_from_constants("rmsprop", 0.1, sigma0=1.0, epsilon0=0.0, c2=1.0)
        oracle = GaussianOracle(self.p, self.cov, sigma=sigma)
        small = mc_discrete_moments(oracle, "rmsprop", [1.0, 0.0], [1.0, 1.0], hp, 20_000, rng(3))
        large = mc_discrete_moments(oracle, "rmsprop", [1.0, 0.0], [1.0, 1.0], hp, 80_000, rng(4))
        ratio = np.median(small.first_se / large.first_se)
        assert ratio == pytest.approx(2.0, rel=0.15)
