import math

import numpy as np
import pytest

from adasde.ngos import (
    BernoulliNoiseOracle,
    GaussianOracle,
    MinibatchOracle,
    SvagOracle,
    estimate_noise_moments,
    noise_dominance_ratio,
    svag_coefficients,
)
from adasde.problems import (
    ConstantCovariance,
    EmpiricalCovariance,
    IsotropicCovariance,
    LeastSquaresProblem,
    LinearProblem,
    QuadraticProblem,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def random_least_squares(seed, n=16, d=3):
    r = np.random.default_rng(seed)
    return LeastSquaresProblem(r.standard_normal((n, d)), r.standard_normal(n))


class TestSvagCoefficients:
    def test_ell_one(self):
        assert svag_coefficients(1.0) == (0.0, 1.0)

    def test_ell_two_frozen(self):
        r1, r2 = svag_coefficients(2.0)
        # 0.5 * (1 -/+ sqrt(7)) evaluated independently
        assert r1 == pytest.approx(-0.8228756555322954, abs=1e-15)
        assert r2 == pytest.approx(1.8228756555322954, abs=1e-15)
        assert r1**2 + r2**2 == pytest.approx(4.0, abs=1e-12)

    @pytest.mark.parametrize("ell", [1, 1.5, 2, 4, 8, 16, 64])
    def test_identities(self, ell):
        r1, r2 = svag_coefficients(ell)
        assert abs(r1 + r2 - 1.0) <= 1e-12
        assert abs(r1**2 + r2**2 - ell**2) <= 1e-12 * max(1.0, ell**2)

    def test_rejects_small_ell(self):
        with pytest.raises(ValueError):
            svag_coefficients(0.5)


class TestSampleGradient:
    def test_gaussian_zero_sigma_is_exact(self):
        p = QuadraticProblem(np.diag([1.0, 2.0]))
        oracle = GaussianOracle(p, IsotropicCovariance(1.0), sigma=0.0)
        g = oracle.sample([1.0, 1.0], rng())
        np.testing.assert_array_equal(g, [1.0, 2.0])

    def test_svag_ell_one_replays_inner_stream(self):
        p = LinearProblem([1.0, -1.0])
        inner = GaussianOracle(p, IsotropicCovariance(1.0), sigma=0.5)
        wrapped = SvagOracle(inner, 1.0)
        theta = np.zeros(2)
        np.testing.assert_array_equal(
            wrapped.sample(theta, rng(3)), inner.sample(theta, rng(3))
        )

    def test_minibatch_requires_finite_sum(self):
        with pytest.raises(ValueError):
            MinibatchOracle(LinearProblem([1.0]), batch_size=2)

    @pytest.mark.parametrize("batch_size", [4.0, 2.5, True])
    def test_minibatch_rejects_a_batch_size_that_is_not_an_integer(self, batch_size):
        # caught here, not as a numpy TypeError inside the first draw
        with pytest.raises(ValueError, match="batch_size must be an integer"):
            MinibatchOracle(random_least_squares(seed=9), batch_size)

    def test_minibatch_takes_a_numpy_integer_batch_size(self):
        oracle = MinibatchOracle(random_least_squares(seed=9), np.int64(4))
        assert oracle.sample(np.zeros((3, 3)), rng(0)).shape == (3, 3)

    def test_seeded_stream_is_reproducible(self):
        p = random_least_squares(seed=9)
        for oracle in (
            GaussianOracle(p, EmpiricalCovariance(), sigma=1.0),
            MinibatchOracle(p, batch_size=4),
            SvagOracle(GaussianOracle(p, IsotropicCovariance(2.0), sigma=1.0), 2.0),
            BernoulliNoiseOracle(p, sigma=1.0),
        ):
            theta = np.array([0.1, 0.2, 0.3])
            a = oracle.sample(np.broadcast_to(theta, (50, 3)), rng(42))
            b = oracle.sample(np.broadcast_to(theta, (50, 3)), rng(42))
            np.testing.assert_array_equal(a, b)



class TestMinibatchSample:
    """The seed-minor contraction against the per-datum definition."""

    N, D = 16, 3

    def problem(self):
        return random_least_squares(seed=5, n=self.N, d=self.D)

    def definition(self, problem, theta, batch_size, seed):
        """Mean of the per-datum gradients at the indices a re-seeded rng draws."""
        idx = rng(seed).integers(0, problem.n_points, size=theta.shape[:-1] + (batch_size,))
        rows = np.take_along_axis(problem.per_datum_gradients(theta), idx[..., None], axis=-2)
        return rows.mean(axis=-2)

    @pytest.mark.parametrize("lead", [(), (7,), (3, 5)], ids=["single", "seeds", "grid"])
    @pytest.mark.parametrize("batch_size", [1, 4, 40], ids=["B=1", "B=4", "B>n"])
    def test_equals_the_per_datum_definition(self, lead, batch_size):
        p = self.problem()
        theta = np.random.default_rng(1).standard_normal(lead + (self.D,))
        got = MinibatchOracle(p, batch_size).sample(theta, rng(8))
        assert got.shape == lead + (self.D,)
        np.testing.assert_allclose(got, self.definition(p, theta, batch_size, 8), rtol=1e-12, atol=0)

    def test_draws_one_index_block_and_nothing_else(self):
        # the rng ends where one integers(0, n, lead + (B,)) call leaves it
        p, lead, batch_size = self.problem(), (4, 6), 5
        used = rng(2)
        MinibatchOracle(p, batch_size).sample(np.zeros(lead + (self.D,)), used)
        replay = rng(2)
        replay.integers(0, self.N, size=lead + (batch_size,))
        assert used.bit_generator.state == replay.bit_generator.state

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_returns_a_c_contiguous_array(self, order):
        theta = np.asarray(np.random.default_rng(1).standard_normal((9, self.D)), order=order)
        got = MinibatchOracle(self.problem(), 4).sample(theta, rng(0))
        assert got.shape == (9, self.D) and got.flags.c_contiguous and got.flags.owndata

    def test_a_broadcast_theta_gives_the_draws_of_its_copy(self):
        # estimate_noise_moments passes np.broadcast_to(theta, (samples, d))
        oracle = MinibatchOracle(self.problem(), 4)
        theta = np.array([0.3, -1.2, 0.5])
        broadcast = np.broadcast_to(theta, (200, self.D))
        np.testing.assert_array_equal(
            oracle.sample(broadcast, rng(6)), oracle.sample(broadcast.copy(), rng(6))
        )


class TestSvagOperator:
    def test_mean_preserved(self):
        p = QuadraticProblem(np.diag([1.0, 3.0]))
        sigma_mat = np.array([[1.0, 0.3], [0.3, 0.5]])
        inner = GaussianOracle(p, ConstantCovariance(sigma_mat), sigma=1.0)
        wrapped = SvagOracle(inner, 4.0)
        theta = np.array([1.0, -2.0])
        n = 100_000
        g = wrapped.sample(np.broadcast_to(theta, (n, 2)), rng(1))
        se = g.std(axis=0, ddof=1) / math.sqrt(n)
        np.testing.assert_array_less(np.abs(g.mean(axis=0) - p.full_gradient(theta)), 4 * se)

    def test_covariance_amplified_by_ell_squared(self):
        p = LinearProblem([0.5, -0.5])
        sigma_mat = np.array([[1.0, 0.3], [0.3, 0.5]])
        ell, sigma = 2.0, 0.7
        inner = GaussianOracle(p, ConstantCovariance(sigma_mat), sigma=sigma)
        wrapped = SvagOracle(inner, ell)
        n = 100_000
        g = wrapped.sample(np.broadcast_to(np.zeros(2), (n, 2)), rng(2))
        centered = g - g.mean(axis=0)
        emp = centered.T @ centered / (n - 1)
        target = ell**2 * sigma**2 * sigma_mat
        for i in range(2):
            for j in range(2):
                prods = centered[:, i] * centered[:, j]
                se = prods.std(ddof=1) / math.sqrt(n)
                assert abs(emp[i, j] - target[i, j]) < 4 * se

    def test_effective_scale(self):
        p = LinearProblem([1.0])
        inner = GaussianOracle(p, IsotropicCovariance(1.0), sigma=0.3)
        assert SvagOracle(inner, 8.0).sigma_effective == pytest.approx(2.4)


class TestEstimateNoiseMoments:
    def test_gaussian_third_moments_vanish(self):
        p = LinearProblem([1.0, 1.0])
        oracle = GaussianOracle(p, IsotropicCovariance(1.0), sigma=2.0)
        report = estimate_noise_moments(oracle, np.zeros(2), 50_000, rng(3))
        np.testing.assert_array_less(np.abs(report.third_diag), 4 * report.third_diag_se)

    def test_minibatch_covariance_matches_exact(self):
        p = random_least_squares(seed=13, n=24, d=3)
        oracle = MinibatchOracle(p, batch_size=4)
        theta = np.array([0.5, -0.2, 1.0])
        exact = EmpiricalCovariance().matrix(p, theta)
        report = estimate_noise_moments(oracle, theta, 100_000, rng(4))
        assert np.all(np.abs(report.second - exact) < 4 * report.second_se + 1e-12)

    def test_gaussian_on_empirical_covariance_matches_exact(self):
        # the noise factor is the Cholesky factor, not the symmetric root; the
        # law depends on L L' alone, so the draws still have covariance Sigma
        p = random_least_squares(seed=13, n=24, d=3)
        oracle = GaussianOracle(p, EmpiricalCovariance(), sigma=0.7)
        theta = np.array([0.5, -0.2, 1.0])
        exact = EmpiricalCovariance().matrix(p, theta)
        report = estimate_noise_moments(oracle, theta, 100_000, rng(8))
        assert np.all(np.abs(report.second - exact) < 4 * report.second_se + 1e-12)

    def test_skew_shrinks_by_known_factor(self):
        p = LinearProblem([0.0])
        inner = BernoulliNoiseOracle(p, sigma=1.0, p=0.2)
        base = estimate_noise_moments(inner, np.zeros(1), 200_000, rng(5))
        for ell in (2.0, 4.0):
            wrapped = SvagOracle(inner, ell)
            rep = estimate_noise_moments(wrapped, np.zeros(1), 200_000, rng(6))
            factor = (12 * ell**2 - 4) / (8 * ell**3)
            target = factor * inner.skewness
            assert abs(rep.third_diag[0] - target) < 4 * rep.third_diag_se[0]
            assert base.third_diag_se[0] < 0.1  # sanity: the baseline skew is resolved

    def test_zero_scale_rejected(self):
        p = LinearProblem([1.0])
        oracle = GaussianOracle(p, IsotropicCovariance(1.0), sigma=0.0)
        with pytest.raises(ValueError):
            estimate_noise_moments(oracle, np.zeros(1), 1000, rng())

    def test_minimum_samples(self):
        p = LinearProblem([1.0])
        oracle = GaussianOracle(p, IsotropicCovariance(1.0), sigma=1.0)
        with pytest.raises(ValueError):
            estimate_noise_moments(oracle, np.zeros(1), 99, rng())


class TestNoiseDominanceRatio:
    def test_linear_problem_closed_form(self):
        # E||sigma z||^2 = sigma^2 * d with Sigma = I; ratio = sigma^2 d / ||g||^2
        p = LinearProblem([1.0])
        oracle = GaussianOracle(p, IsotropicCovariance(1.0), sigma=100.0)
        ratio = noise_dominance_ratio(oracle, np.zeros(1), 20_000, rng(7))
        assert ratio == pytest.approx(1e4, rel=0.2)

    def test_zero_noise_gives_zero(self):
        p = LinearProblem([1.0])
        oracle = GaussianOracle(p, IsotropicCovariance(1.0), sigma=0.0)
        assert noise_dominance_ratio(oracle, np.zeros(1), 1000, rng()) == 0.0

    def test_zero_gradient_gives_infinity(self):
        p = QuadraticProblem(np.eye(1))
        oracle = GaussianOracle(p, IsotropicCovariance(1.0), sigma=1.0)
        assert noise_dominance_ratio(oracle, np.zeros(1), 1000, rng()) == math.inf

    def test_zero_gradient_zero_noise_rejected(self):
        p = QuadraticProblem(np.eye(1))
        oracle = GaussianOracle(p, IsotropicCovariance(1.0), sigma=0.0)
        with pytest.raises(ValueError):
            noise_dominance_ratio(oracle, np.zeros(1), 1000, rng())
