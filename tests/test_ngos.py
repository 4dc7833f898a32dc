import math

import numpy as np
import pytest

from adasde.ngos import (
    BernoulliNoiseOracle,
    GaussianOracle,
    MinibatchOracle,
    SvagOracle,
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
from adasde.optimizers import HyperParams
from adasde.scaling import scale_sqrt
from adasde.sde import build_adam_sde, build_rmsprop_sde, build_sgd_sde, euler_maruyama


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
        # OptimizerState.initial keeps the harness's np.broadcast_to(theta0, (seeds, d))
        # view, so every run's first oracle draw gets a broadcast theta
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


def normalized_noise(oracle, theta, n, seed):
    """n draws of z = (g - grad f) / sigma_effective at one theta, shape (n, d)."""
    theta = np.asarray(theta, dtype=float)
    g = oracle.sample(np.broadcast_to(theta, (n, theta.size)), rng(seed))
    return (g - oracle.problem.full_gradient(theta)) / oracle.sigma_effective


def mean_and_se(terms):
    """The mean of per-sample terms over axis 0, with its standard error."""
    return terms.mean(axis=0), terms.std(axis=0, ddof=1) / math.sqrt(terms.shape[0])


class TestNoiseLaws:
    """The law of z, estimated with a 4-SE bound from its per-sample terms."""

    def assert_covariance(self, z, target):
        centered = z - z.mean(axis=0)
        emp = centered.T @ centered / (z.shape[0] - 1)
        _, se = mean_and_se(centered[:, :, None] * centered[:, None, :])
        assert np.all(np.abs(emp - target) < 4 * se + 1e-12)

    def test_gaussian_third_moments_vanish(self):
        oracle = GaussianOracle(LinearProblem([1.0, 1.0]), IsotropicCovariance(1.0), sigma=2.0)
        third, se = mean_and_se(normalized_noise(oracle, np.zeros(2), 50_000, seed=3) ** 3)
        np.testing.assert_array_less(np.abs(third), 4 * se)

    def test_minibatch_covariance_matches_exact(self):
        p = random_least_squares(seed=13, n=24, d=3)
        theta = np.array([0.5, -0.2, 1.0])
        z = normalized_noise(MinibatchOracle(p, batch_size=4), theta, 100_000, seed=4)
        self.assert_covariance(z, EmpiricalCovariance().matrix(p, theta))

    def test_gaussian_on_empirical_covariance_matches_exact(self):
        # the noise factor is the Cholesky factor, not the symmetric root; the
        # law depends on L L' alone, so the draws still have covariance Sigma
        p = random_least_squares(seed=13, n=24, d=3)
        theta = np.array([0.5, -0.2, 1.0])
        z = normalized_noise(GaussianOracle(p, EmpiricalCovariance(), sigma=0.7), theta, 100_000, seed=8)
        self.assert_covariance(z, EmpiricalCovariance().matrix(p, theta))

    def test_skew_shrinks_by_known_factor(self):
        # ell = 1 replays the base oracle, whose own skew is (1 - 2p) / sqrt(p(1 - p))
        prob = 0.2
        skew = (1 - 2 * prob) / math.sqrt(prob * (1 - prob))
        inner = BernoulliNoiseOracle(LinearProblem([0.0]), sigma=1.0, p=prob)
        for ell in (1.0, 2.0, 4.0):
            z = normalized_noise(SvagOracle(inner, ell), np.zeros(1), 200_000, seed=6)
            third, se = mean_and_se(z[:, 0] ** 3)
            factor = (12 * ell**2 - 4) / (8 * ell**3)
            assert abs(third - factor * skew) < 4 * se
            assert se < 0.1  # sanity: the skew is resolved

    @pytest.mark.parametrize("prob", [0.2, 0.5, 0.8])
    def test_bernoulli_noise_is_standardised(self, prob):
        # centred and scaled by sqrt(p(1 - p)): mean zero and Sigma = I at any p
        oracle = BernoulliNoiseOracle(LinearProblem([0.5, -1.0]), sigma=1.5, p=prob)
        z = normalized_noise(oracle, np.zeros(2), 50_000, seed=21)
        mean, se = mean_and_se(z)
        np.testing.assert_array_less(np.abs(mean), 4 * se)
        self.assert_covariance(z, np.eye(2))

    @pytest.mark.parametrize("prob", [0.1, 0.5, 0.9])
    def test_bernoulli_skew_follows_p(self, prob):
        # E[z^3] = (1 - 2p) / sqrt(p(1 - p)): positive below 1/2, zero at it, negative above
        oracle = BernoulliNoiseOracle(LinearProblem([0.0]), sigma=0.3, p=prob)
        third, se = mean_and_se(normalized_noise(oracle, np.zeros(1), 100_000, seed=22)[:, 0] ** 3)
        assert abs(third - (1 - 2 * prob) / math.sqrt(prob * (1 - prob))) < 4 * se

    @pytest.mark.parametrize("cov", [
        IsotropicCovariance(2.5),
        ConstantCovariance(np.array([[1.0, 0.4, 0.0], [0.4, 0.8, -0.2], [0.0, -0.2, 0.5]])),
        EmpiricalCovariance(),
    ], ids=["isotropic", "constant", "empirical"])
    def test_gaussian_noise_is_centred(self, cov):
        p = random_least_squares(seed=13, n=24, d=3)
        z = normalized_noise(GaussianOracle(p, cov, sigma=0.4), [0.5, -0.2, 1.0], 50_000, seed=23)
        mean, se = mean_and_se(z)
        np.testing.assert_array_less(np.abs(mean), 4 * se)

    @pytest.mark.parametrize("cov", [
        IsotropicCovariance(2.5),
        ConstantCovariance(np.array([[1.0, 0.4, 0.0], [0.4, 0.8, -0.2], [0.0, -0.2, 0.5]])),
    ], ids=["isotropic", "constant"])
    def test_gaussian_covariance_matches_its_spec(self, cov):
        p = random_least_squares(seed=13, n=24, d=3)
        theta = np.array([0.5, -0.2, 1.0])
        z = normalized_noise(GaussianOracle(p, cov, sigma=0.4), theta, 100_000, seed=24)
        self.assert_covariance(z, cov.matrix(p, theta))

    def test_minibatch_noise_is_centred(self):
        p = random_least_squares(seed=13, n=24, d=3)
        z = normalized_noise(MinibatchOracle(p, batch_size=4), [0.5, -0.2, 1.0], 50_000, seed=25)
        mean, se = mean_and_se(z)
        np.testing.assert_array_less(np.abs(mean), 4 * se)

    def test_svag_on_minibatch_noise_keeps_its_covariance(self):
        # sigma_effective = ell / sqrt(B) = 1, so z has covariance Sigma itself
        p = random_least_squares(seed=13, n=24, d=3)
        theta = np.array([0.5, -0.2, 1.0])
        oracle = SvagOracle(MinibatchOracle(p, batch_size=4), 2.0)
        assert oracle.sigma_effective == 1.0
        z = normalized_noise(oracle, theta, 100_000, seed=26)
        self.assert_covariance(z, EmpiricalCovariance().matrix(p, theta))


class TestOracleValidation:
    def test_gaussian_rejects_a_negative_sigma(self):
        with pytest.raises(ValueError, match="sigma must be nonnegative"):
            GaussianOracle(LinearProblem([1.0]), IsotropicCovariance(1.0), sigma=-0.1)

    def test_bernoulli_rejects_a_negative_sigma(self):
        with pytest.raises(ValueError, match="sigma must be nonnegative"):
            BernoulliNoiseOracle(LinearProblem([1.0]), sigma=-0.1)

    @pytest.mark.parametrize("prob", [0.0, 1.0, -0.2, 1.5, math.nan])
    def test_bernoulli_rejects_a_p_outside_the_open_unit_interval(self, prob):
        with pytest.raises(ValueError, match="p must lie strictly"):
            BernoulliNoiseOracle(LinearProblem([1.0]), sigma=1.0, p=prob)

    @pytest.mark.parametrize("batch_size", [0, -3])
    def test_minibatch_rejects_a_batch_size_below_one(self, batch_size):
        with pytest.raises(ValueError, match="at least 1"):
            MinibatchOracle(random_least_squares(seed=9), batch_size)

    @pytest.mark.parametrize("ell", [0.5, 0.999])
    def test_svag_rejects_an_ell_below_one(self, ell):
        inner = GaussianOracle(LinearProblem([1.0]), IsotropicCovariance(1.0), sigma=1.0)
        with pytest.raises(ValueError, match="ell must be >= 1"):
            SvagOracle(inner, ell)

    @pytest.mark.parametrize("build", [
        lambda p: GaussianOracle(p, IsotropicCovariance(1.0), sigma=0.0),
        lambda p: BernoulliNoiseOracle(p, sigma=0.0),
    ], ids=["gaussian", "bernoulli"])
    def test_a_zero_scale_returns_the_gradient_and_draws_nothing(self, build):
        p = QuadraticProblem(np.diag([1.0, 2.0]))
        used, fresh = rng(4), rng(4)
        g = build(p).sample(np.array([[1.0, 1.0], [0.5, -1.0]]), used)
        np.testing.assert_array_equal(g, [[1.0, 2.0], [0.5, -2.0]])
        assert used.bit_generator.state == fresh.bit_generator.state


NAN = math.nan
LINE = LinearProblem([1.0])
UNIT = IsotropicCovariance(1.0)


@pytest.mark.parametrize("build", [
    lambda: GaussianOracle(LINE, UNIT, sigma=NAN),
    lambda: BernoulliNoiseOracle(LINE, sigma=NAN),
    lambda: IsotropicCovariance(NAN),
    lambda: HyperParams(eta=0.1, epsilon=NAN),
    lambda: svag_coefficients(NAN),
    lambda: scale_sqrt(HyperParams(eta=0.1), NAN**-2, "rmsprop"),
    lambda: scale_sqrt(HyperParams(eta=0.1), NAN, "rmsprop"),
    lambda: build_rmsprop_sde(LINE, UNIT, sigma0=NAN, epsilon0=0.1, c2=1.0),
    lambda: build_rmsprop_sde(LINE, UNIT, sigma0=1.0, epsilon0=NAN, c2=1.0),
    lambda: build_rmsprop_sde(LINE, UNIT, sigma0=1.0, epsilon0=0.1, c2=NAN),
    lambda: build_adam_sde(LINE, UNIT, sigma0=NAN, epsilon0=0.1, c1=1.0, c2=1.0),
    lambda: build_adam_sde(LINE, UNIT, sigma0=1.0, epsilon0=NAN, c1=1.0, c2=1.0),
    lambda: build_adam_sde(LINE, UNIT, sigma0=1.0, epsilon0=0.1, c1=NAN, c2=1.0),
    lambda: build_adam_sde(LINE, UNIT, sigma0=1.0, epsilon0=0.1, c1=1.0, c2=NAN),
    lambda: build_sgd_sde(LINE, UNIT, eta=NAN),
    lambda: euler_maruyama(build_sgd_sde(LINE, UNIT, eta=0.1), np.zeros((2, 1)), NAN, 0.1, 1, None, [1], []),
    lambda: euler_maruyama(build_sgd_sde(LINE, UNIT, eta=0.1), np.zeros((2, 1)), 0.0, NAN, 1, None, [1], []),
], ids=[
    "gaussian_sigma", "bernoulli_sigma", "isotropic_value", "epsilon", "svag_ell", "svag_hparams_ell",
    "kappa", "rmsprop_sigma0", "rmsprop_epsilon0", "rmsprop_c2", "adam_sigma0", "adam_epsilon0",
    "adam_c1", "adam_c2", "sgd_eta", "em_t0", "em_dt",
])
def test_nan_fails_every_scale_and_step_check(build):
    # each check reads `not lo <= x`, which NaN fails; `x < lo` would let it through
    with pytest.raises(ValueError):
        build()
