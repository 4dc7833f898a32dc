import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adasde.linalg import psd_sqrt
from adasde.problems import (
    ConstantCovariance,
    EmpiricalCovariance,
    IsotropicCovariance,
    LeastSquaresProblem,
    LinearProblem,
    QuadraticProblem,
)


def central_diff_gradient(problem, theta, h=1e-5):
    """Independent derivative oracle: central finite differences of the loss."""
    theta = np.asarray(theta, dtype=float)
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (problem.loss(up) - problem.loss(down)) / (2 * h)
    return grad


def random_least_squares(seed, n=12, d=3):
    rng = np.random.default_rng(seed)
    return LeastSquaresProblem(rng.standard_normal((n, d)), rng.standard_normal(n))


class TestLoss:
    def test_linear_inner_product(self):
        p = LinearProblem([2.0, 3.0])
        assert p.loss([1.0, 1.0]) == pytest.approx(5.0)

    def test_quadratic_minimum(self):
        p = QuadraticProblem(np.eye(2))
        assert p.loss([0.0, 0.0]) == 0.0

    def test_least_squares_hand_value(self):
        p = LeastSquaresProblem([[1.0], [-1.0]], [0.0, 0.0])
        assert p.loss([1.0]) == pytest.approx(0.5)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            LinearProblem([1.0, 2.0]).loss([1.0])


class TestFullGradient:
    def test_linear_constant(self):
        p = LinearProblem([2.0, 3.0])
        np.testing.assert_allclose(p.full_gradient([7.0, -4.0]), [2.0, 3.0])

    def test_quadratic_a_theta(self):
        p = QuadraticProblem(np.diag([1.0, 4.0]))
        np.testing.assert_allclose(p.full_gradient([1.0, 1.0]), [1.0, 4.0])

    def test_least_squares_finite_difference(self):
        p = random_least_squares(seed=7)
        rng = np.random.default_rng(8)
        theta = rng.standard_normal(3)
        np.testing.assert_allclose(
            p.full_gradient(theta), central_diff_gradient(p, theta), rtol=1e-6
        )

    @pytest.mark.parametrize("maker", [
        lambda: LinearProblem([0.5, -2.0, 1.0]),
        lambda: QuadraticProblem([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 3.0]], [0.1, -0.3, 0.0]),
        lambda: random_least_squares(seed=21, n=10, d=3),
    ])
    def test_matches_finite_differences_at_random_points(self, maker):
        problem = maker()
        rng = np.random.default_rng(5)
        for _ in range(100):
            theta = rng.standard_normal(problem.dim) * 2
            expected = central_diff_gradient(problem, theta)
            got = problem.full_gradient(theta)
            np.testing.assert_allclose(got, expected, rtol=1e-6, atol=1e-8)

    def test_batched_matches_loop(self):
        p = random_least_squares(seed=3)
        thetas = np.random.default_rng(4).standard_normal((6, 3))
        batched = p.full_gradient(thetas)
        for s in range(6):
            np.testing.assert_allclose(batched[s], p.full_gradient(thetas[s]))


class TestPerDatumGradients:
    def test_hand_example(self):
        p = LeastSquaresProblem([[1.0], [-1.0]], [0.0, 0.0])
        np.testing.assert_allclose(p.per_datum_gradients([1.0]), [[1.0], [1.0]])

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            LeastSquaresProblem([[1.0]], [0.0])

    def test_row_mean_is_full_gradient(self):
        p = random_least_squares(seed=11)
        theta = np.random.default_rng(12).standard_normal(3)
        rows = p.per_datum_gradients(theta)
        np.testing.assert_allclose(rows.mean(axis=0), p.full_gradient(theta), atol=1e-12)

    def test_unsupported_kind(self):
        with pytest.raises(ValueError):
            LinearProblem([1.0]).per_datum_gradients([0.0])


class TestExactCovariance:
    def test_scalar_hand_example(self):
        # per-datum gradients {1, 3}: x in {1, sqrt(3)} with y chosen so grads land there
        p = LeastSquaresProblem([[1.0], [1.0]], [0.0, -2.0])
        theta = np.array([1.0])
        np.testing.assert_allclose(p.per_datum_gradients(theta).ravel(), [1.0, 3.0])
        sigma = EmpiricalCovariance().matrix(p, theta)
        np.testing.assert_allclose(sigma, [[1.0]])

    def test_isotropic_identity(self):
        p = LinearProblem([1.0, 1.0])
        np.testing.assert_allclose(IsotropicCovariance(1.0).matrix(p, None), np.eye(2))

    def test_equal_gradients_zero_matrix(self):
        p = LeastSquaresProblem([[1.0, 0.0], [1.0, 0.0]], [0.0, 0.0])
        sigma = EmpiricalCovariance().matrix(p, np.array([1.0, 5.0]))
        np.testing.assert_allclose(sigma, 0.0)

    def test_non_psd_constant_rejected(self):
        with pytest.raises(ValueError):
            ConstantCovariance([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            ConstantCovariance([[1.0, 0.5], [0.1, 1.0]])

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_empirical_is_symmetric_psd(self, seed):
        p = random_least_squares(seed=seed % 97 + 2)
        theta = np.random.default_rng(seed).standard_normal(3) * 3
        sigma = EmpiricalCovariance().matrix(p, theta)
        np.testing.assert_allclose(sigma, sigma.T, atol=1e-12)
        eigvals = np.linalg.eigvalsh(sigma)
        assert eigvals.min() >= -1e-10 * max(eigvals.max(), 0.0)

    def test_trace_equals_mean_squared_deviation(self):
        p = random_least_squares(seed=31)
        theta = np.random.default_rng(32).standard_normal(3)
        rows = p.per_datum_gradients(theta)
        centered = rows - rows.mean(axis=0)
        expected = np.mean(np.sum(centered**2, axis=1))
        got = np.trace(EmpiricalCovariance().matrix(p, theta))
        assert got == pytest.approx(expected, abs=1e-12)


class TestApplySqrt:
    @pytest.mark.parametrize("lead", [(5,), ()], ids=["batched", "single"])
    @pytest.mark.parametrize(
        "cov",
        [
            IsotropicCovariance(2.5),
            ConstantCovariance(np.array([[1.0, 0.4, 0.0], [0.4, 0.8, 0.2], [0.0, 0.2, 0.5]])),
            EmpiricalCovariance(),
        ],
        ids=["isotropic", "constant", "empirical"],
    )
    def test_matches_dense_root_per_draw(self, cov, lead):
        p = random_least_squares(seed=4)
        rng = np.random.default_rng(9)
        theta = rng.standard_normal(lead + (p.dim,))
        w = rng.standard_normal(lead + (p.dim,))
        got = cov.apply_sqrt(p, theta, w)
        assert got.shape == w.shape
        for i in np.ndindex(lead):
            want = psd_sqrt(cov.matrix(p, theta[i])) @ w[i]
            np.testing.assert_allclose(got[i], want, rtol=1e-12, atol=1e-14)


class TestCovarianceDiagonal:
    CONST = np.array([[1.0, 0.4, 0.0], [0.4, 0.8, 0.2], [0.0, 0.2, 0.5]])

    @pytest.mark.parametrize("lead", [(5,), ()], ids=["batched", "single"])
    def test_empirical_matrix_matches_centred_einsum(self, lead):
        p = random_least_squares(seed=17, n=20)
        theta = np.random.default_rng(18).standard_normal(lead + (p.dim,)) * 2
        grads = p.per_datum_gradients(theta)
        centered = grads - grads.mean(axis=-2, keepdims=True)
        want = np.einsum("...ni,...nj->...ij", centered, centered) / grads.shape[-2]
        np.testing.assert_allclose(EmpiricalCovariance().matrix(p, theta), want, rtol=1e-12)

    @pytest.mark.parametrize("lead", [(5,), ()], ids=["batched", "single"])
    @pytest.mark.parametrize("cov", [EmpiricalCovariance(), ConstantCovariance(CONST)],
                             ids=["empirical", "constant"])
    def test_diagonal_of_matrix_without_building_it(self, cov, lead, monkeypatch):
        p = random_least_squares(seed=19)
        theta = np.random.default_rng(20).standard_normal(lead + (p.dim,))
        want = np.diagonal(cov.matrix(p, theta), axis1=-2, axis2=-1)

        def no_matrix(self, problem, theta=None):
            raise AssertionError("diagonal built the covariance matrix")

        monkeypatch.setattr(type(cov), "matrix", no_matrix)
        got = cov.diagonal(p, theta)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_constant_diagonal_checks_dimension(self):
        cov = ConstantCovariance(self.CONST)
        with pytest.raises(ValueError, match="dimension"):
            cov.diagonal(LinearProblem([1.0, 2.0]), None)


class TestConstruction:
    def test_quadratic_requires_symmetry(self):
        with pytest.raises(ValueError):
            QuadraticProblem([[1.0, 0.1], [0.0, 1.0]])

    def test_quadratic_accepts_tiny_asymmetry(self):
        a = np.array([[1.0, 0.5], [0.5 * (1 + 1e-14), 1.0]])
        QuadraticProblem(a)
