import numpy as np
import pytest

from adasde.moments import (
    analytic_adam_moments,
    analytic_rmsprop_moments,
    compare_moments,
    hyperparams_from_constants,
    mc_discrete_moments,
    mc_sde_moments,
    residual_decay_sweep,
)
from adasde.ngos import GaussianOracle
from adasde.problems import ConstantCovariance, IsotropicCovariance, QuadraticProblem
from adasde.sde import SdeState, SdeSystem, build_rmsprop_sde


def rng(seed=0):
    return np.random.default_rng(seed)


class TestAnalyticRmsprop:
    def test_theta_first_moment_frozen(self):
        p = QuadraticProblem(np.eye(1))
        mom = analytic_rmsprop_moments(
            p, IsotropicCovariance(1.0), theta=[2.0], u=[1.0], sigma0=1.0, epsilon0=0.0, c2=1.0, eta=0.1
        )
        assert mom.first[0] == pytest.approx(-0.02)

    def test_u_first_moment_frozen(self):
        p = QuadraticProblem(np.eye(1))
        mom = analytic_rmsprop_moments(
            p, IsotropicCovariance(1.0), theta=[2.0], u=[1.0], sigma0=1.0, epsilon0=0.0, c2=1.0, eta=0.1
        )
        # eta^2 c2 ((grad/sigma)^2 + Sigma - u) with sigma = sigma0/eta = 10
        assert mom.first[1] == pytest.approx(0.01 * ((2 / 10) ** 2 + 1 - 1))
        assert mom.first[1] == pytest.approx(4e-4)

    def test_fixed_point_has_zero_first_moments(self):
        p = QuadraticProblem(np.zeros((2, 2)))
        diag = np.array([0.7, 1.3])
        mom = analytic_rmsprop_moments(
            p, ConstantCovariance(np.diag(diag)), theta=[1.0, -1.0], u=diag,
            sigma0=1.0, epsilon0=0.0, c2=2.0, eta=0.1,
        )
        np.testing.assert_allclose(mom.first, 0.0, atol=1e-15)

    def test_rejects_nonpositive_u(self):
        p = QuadraticProblem(np.eye(1))
        with pytest.raises(ValueError):
            analytic_rmsprop_moments(
                p, IsotropicCovariance(1.0), [1.0], [0.0], sigma0=1.0, epsilon0=0.0, c2=1.0, eta=0.1
            )


class TestAnalyticAdam:
    def setup_method(self):
        self.p = QuadraticProblem(np.diag([1.0, 2.0]))
        self.cov = IsotropicCovariance(1.0)

    def test_momentum_equilibrium(self):
        theta = np.array([1.0, -0.5])
        grad = self.p.full_gradient(theta)
        mom = analytic_adam_moments(
            self.p, self.cov, theta, m=grad, u=[1.0, 1.0],
            sigma0=1.0, epsilon0=0.0, c1=1.0, c2=1.0, eta=0.1, k=5,
        )
        np.testing.assert_allclose(mom.first[2:4], 0.0, atol=1e-15)

    def test_large_k_limit(self):
        theta = np.array([0.0, 0.0])
        m = np.array([0.5, -0.5])
        u = np.array([1.0, 4.0])
        mom = analytic_adam_moments(
            self.p, self.cov, theta, m, u, sigma0=1.0, epsilon0=0.0, c1=1.0, c2=1.0, eta=0.02, k=10**7
        )
        limit = -(0.02**2) * m / np.sqrt(u)
        np.testing.assert_allclose(mom.first[:2], limit, atol=1e-6)

    def test_m_block_second_moment_leading(self):
        mom = analytic_adam_moments(
            self.p, self.cov, [0.0, 0.0], [0.0, 0.0], [1.0, 1.0],
            sigma0=1.0, epsilon0=0.0, c1=1.0, c2=1.0, eta=0.1, k=3,
        )
        np.testing.assert_allclose(np.diag(mom.second)[2:4], 0.1**2)

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            analytic_adam_moments(
                self.p, self.cov, [0.0, 0.0], [0.0, 0.0], [1.0, 1.0],
                sigma0=1.0, epsilon0=0.0, c1=1.0, c2=1.0, eta=0.1, k=0,
            )


class TestHyperparamsFromConstants:
    def test_sgd_has_no_decay_range(self):
        # SGD never uses beta2, so c2 eta^2 > 1 must not reject it
        hp, sigma = hyperparams_from_constants("sgd", 1.2, 1.0, 0.0, 1.0)
        assert hp.eta == 1.2
        assert sigma == 1.0

    @pytest.mark.parametrize("algo", ["rmsprop", "adam"])
    def test_adaptive_decay_range_still_checked(self, algo):
        with pytest.raises(ValueError, match="leaves the decay range"):
            hyperparams_from_constants(algo, 1.2, 1.0, 0.0, 1.0, c1=0.1)


class TestMcDiscrete:
    def setup_method(self):
        self.p = QuadraticProblem(np.diag([1.0, 3.0]))
        self.cov = ConstantCovariance(np.array([[1.0, 0.2], [0.2, 0.6]]))

    def test_zero_noise_is_deterministic(self):
        oracle = GaussianOracle(self.p, self.cov, sigma=0.0)
        hp = hyperparams_from_constants("rmsprop", 0.1, sigma0=1.0, epsilon0=0.1, c2=1.0)[0]
        mom = mc_discrete_moments(
            self.p, oracle, "rmsprop", [1.0, 1.0], [1.0, 1.0], hp, 1000, rng()
        )
        np.testing.assert_allclose(mom.first_se, 0.0, atol=1e-14)
        assert np.all(np.abs(mom.second - np.outer(mom.first, mom.first)) < 1e-14)

    def test_matches_analytic_first_moments(self):
        eta = 0.1
        hp, sigma = hyperparams_from_constants("rmsprop", eta, sigma0=1.0, epsilon0=0.0, c2=1.0)
        oracle = GaussianOracle(self.p, self.cov, sigma=sigma)
        theta, u = np.array([1.0, -0.5]), np.array([1.1, 0.9])
        mc = mc_discrete_moments(self.p, oracle, "rmsprop", theta, u, hp, 100_000, rng(1))
        an = analytic_rmsprop_moments(self.p, self.cov, theta, u, 1.0, 0.0, 1.0, eta)
        np.testing.assert_array_less(np.abs(mc.first - an.first), 4 * mc.first_se + 1e-15)

    def test_adam_matches_analytic_first_moments(self):
        eta = 0.1
        hp, sigma = hyperparams_from_constants("adam", eta, sigma0=1.0, epsilon0=0.1, c2=1.0, c1=2.0)
        oracle = GaussianOracle(self.p, self.cov, sigma=sigma)
        theta, m, u = np.array([1.0, -0.5]), np.array([0.3, 0.0]), np.array([1.1, 0.9])
        mc = mc_discrete_moments(
            self.p, oracle, "adam", theta, u, hp, 100_000, rng(2), m=m, k=4
        )
        an = analytic_adam_moments(self.p, self.cov, theta, m, u, 1.0, 0.1, 2.0, 1.0, eta, k=4)
        np.testing.assert_array_less(np.abs(mc.first - an.first), 4 * mc.first_se + 1e-15)

    def test_se_shrinks_with_sqrt_samples(self):
        hp, sigma = hyperparams_from_constants("rmsprop", 0.1, sigma0=1.0, epsilon0=0.0, c2=1.0)
        oracle = GaussianOracle(self.p, self.cov, sigma=sigma)
        small = mc_discrete_moments(self.p, oracle, "rmsprop", [1.0, 0.0], [1.0, 1.0], hp, 20_000, rng(3))
        large = mc_discrete_moments(self.p, oracle, "rmsprop", [1.0, 0.0], [1.0, 1.0], hp, 80_000, rng(4))
        ratio = np.median(small.first_se / large.first_se)
        assert ratio == pytest.approx(2.0, rel=0.15)


class TestMcSde:
    def test_zero_dynamics_zero_moments(self):
        system = SdeSystem(
            state_dim=1,
            noise_dim=1,
            drift=lambda x, t: np.zeros_like(x),
            apply_diffusion=lambda x, t, dw: np.zeros_like(x),
            dense_diffusion=lambda x, t: np.zeros(x.shape[:-1] + (1, 1)),
            blocks={"theta": slice(0, 1)},
            requires_positive_u=False,
        )
        mom = mc_sde_moments(system, [1.0], t=0.0, eta=0.1, samples=1000, dt=1e-3, rng=rng())
        np.testing.assert_array_equal(mom.first, 0.0)
        np.testing.assert_array_equal(mom.second, 0.0)

    def test_first_and_second_moments_match_drift_and_diffusion(self):
        p = QuadraticProblem(np.diag([1.0, 2.0]))
        cov = ConstantCovariance(np.array([[1.0, 0.3], [0.3, 0.8]]))
        system = build_rmsprop_sde(p, cov, sigma0=1.0, epsilon0=0.1, c2=1.0)
        x = np.concatenate([[1.0, -1.0], [1.2, 0.7]])
        eta = 0.1
        mom = mc_sde_moments(system, x, t=0.0, eta=eta, samples=60_000, dt=eta**2 / 20, rng=rng(5))
        b = system.drift(x[None, :], 0.0)[0]
        np.testing.assert_array_less(np.abs(mom.first - eta**2 * b), 4 * mom.first_se + 2e-4)
        s = system.dense_diffusion(x[None, :], 0.0)[0]
        target = eta**2 * s @ s.T
        np.testing.assert_array_less(np.abs(mom.second - target), 4 * mom.second_se + 2e-4)

    def test_dt_cap(self):
        p = QuadraticProblem(np.eye(1))
        system = build_rmsprop_sde(p, IsotropicCovariance(1.0), sigma0=1.0, epsilon0=0.0, c2=1.0)
        with pytest.raises(ValueError):
            mc_sde_moments(system, [1.0, 1.0], 0.0, eta=0.1, samples=1000, dt=0.01, rng=rng())


class TestCompareMoments:
    def test_identical_inputs_all_zero(self):
        p = QuadraticProblem(np.eye(1))
        mom = analytic_rmsprop_moments(
            p, IsotropicCovariance(1.0), [1.0], [1.0], sigma0=1.0, epsilon0=0.0, c2=1.0, eta=0.1
        )
        report = compare_moments(mom, mom)
        assert report.passed
        assert report.max_gap == 0.0

    def test_eta_mismatch_rejected(self):
        p = QuadraticProblem(np.eye(1))
        a = analytic_rmsprop_moments(p, IsotropicCovariance(1.0), [1.0], [1.0], 1.0, 0.0, 1.0, 0.1)
        b = analytic_rmsprop_moments(p, IsotropicCovariance(1.0), [1.0], [1.0], 1.0, 0.0, 1.0, 0.2)
        with pytest.raises(ValueError):
            compare_moments(a, b)

    def test_residual_sweep_slope_near_four(self):
        # the theta-block second moment drops an exactly-eta^4 deterministic term
        p = QuadraticProblem(np.diag([1.0, 3.0]))
        cov = ConstantCovariance(np.array([[1.0, 0.2], [0.2, 0.6]]))
        theta, u = np.array([1.0, -0.5]), np.array([1.2, 0.8])

        def make_analytic(eta):
            return analytic_rmsprop_moments(p, cov, theta, u, 1.0, 0.0, 1.0, eta)

        def make_mc(eta):
            hp, sigma = hyperparams_from_constants("rmsprop", eta, 1.0, 0.0, 1.0)
            oracle = GaussianOracle(p, cov, sigma=sigma)
            return mc_discrete_moments(p, oracle, "rmsprop", theta, u, hp, 600_000, rng(7))

        out = residual_decay_sweep(make_analytic, make_mc, [0.2, 0.1, 0.05], block=slice(0, 2))
        assert 3.2 <= out["slope"] <= 4.8
