from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adasde.linalg import psd_cholesky, psd_sqrt
from adasde.problems import (
    ConstantCovariance,
    EmpiricalCovariance,
    IsotropicCovariance,
    LeastSquaresProblem,
    LinearProblem,
    QuadraticProblem,
)
from adasde.sde import build_adam_sde, build_rmsprop_sde


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


def centred_gram(problem, theta):
    """The reference Sigma: C C' / n from the per-datum gradients minus their mean."""
    rows = problem.per_datum_gradients(theta)
    centred = rows - rows.mean(axis=-2, keepdims=True)
    return np.einsum("...ni,...nj->...ij", centred, centred) / problem.n_points


def least_squares_case(kind, seed, n=16, d=4):
    """(problem, theta_LS, scale of theta's distance from it) for one kind of data."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    if kind == "near_duplicate":
        x = rng.standard_normal(d) + 1e-4 * x
    elif kind == "scaled_columns":
        x *= np.logspace(-3, 3, d)
    elif kind == "rank_deficient":
        x = rng.standard_normal((n, 2)) @ rng.standard_normal((2, d))
    y = rng.standard_normal(n)
    return LeastSquaresProblem(x, y), np.linalg.lstsq(x, y, rcond=None)[0], 1e3 if kind == "far" else 1.0


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

    @pytest.mark.parametrize("lead", [(), (7,), (3, 5)], ids=["single", "batched", "grid"])
    def test_least_squares_matches_the_residual_form(self, lead):
        # P theta - q from the moments fixed at construction, against X'(X theta - y) / n
        p = random_least_squares(seed=9, n=20, d=4)
        theta = np.random.default_rng(10).standard_normal(lead + (p.dim,)) * 2
        residuals = theta @ p.data.T - p.targets
        np.testing.assert_allclose(p.full_gradient(theta), residuals @ p.data / p.n_points, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("lead", [(), (7,), (3, 5)], ids=["single", "batched", "grid"])
    @pytest.mark.parametrize("kind", ["linear", "quadratic"])
    def test_constant_vector_term_is_a_fresh_row_major_copy(self, kind, lead):
        # the tiled constant gives the bits of the (d,) broadcast, in fresh, writable, C-contiguous memory
        g = np.array([0.5, -2.0, 1.0, 0.25])
        a = np.array([[2.0, 0.5, 0.0, 0.1], [0.5, 1.0, 0.2, 0.0], [0.0, 0.2, 3.0, 0.3], [0.1, 0.0, 0.3, 0.5]])
        theta = np.random.default_rng(6).standard_normal(lead + (4,))
        if kind == "linear":
            p = LinearProblem(g)
            want = np.broadcast_to(g, theta.shape).copy()
        else:
            p = QuadraticProblem(a, g)
            want = theta @ a
            want -= g
        got = p.full_gradient(theta)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert got.flags.c_contiguous and got.flags.writeable
        assert not np.shares_memory(got, theta) and not np.shares_memory(got, g)
        assert not np.shares_memory(got, p.full_gradient(theta))



class TestQuadraticWithoutLinearTerm:
    A = np.array([[2.0, 0.5, 0.0, 0.1], [0.5, 1.0, 0.2, 0.0], [0.0, 0.2, 3.0, 0.3], [0.1, 0.0, 0.3, 0.5]])

    def test_an_absent_b_stays_none(self):
        assert QuadraticProblem(self.A).b is None

    @pytest.mark.parametrize("layout", ["row_major", "state_slice"])
    def test_matches_a_zero_b_bit_for_bit(self, layout):
        rng = np.random.default_rng(12)
        if layout == "row_major":
            theta = rng.standard_normal((50, 4))
        else:
            # the theta block of a column-major (S, D) state, as euler_maruyama passes it
            theta = np.asfortranarray(rng.standard_normal((50, 8)))[:, :4]
        without, zero = QuadraticProblem(self.A), QuadraticProblem(self.A, np.zeros(4))
        for method in ("loss", "full_gradient"):
            got, want = getattr(without, method)(theta), getattr(zero, method)(theta)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert got.flags.c_contiguous == want.flags.c_contiguous


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

    @pytest.mark.parametrize("lead", [(5,), ()], ids=["batched", "single"])
    def test_fresh_writable_array_of_rows(self, lead):
        # the reference definition hands out its own array, which the caller may overwrite
        p = random_least_squares(seed=13, n=7)
        theta = np.random.default_rng(14).standard_normal(lead + (p.dim,))
        first = p.per_datum_gradients(theta)
        second = p.per_datum_gradients(theta)
        assert second.shape == lead + (p.n_points, p.dim)
        assert second.flags.writeable
        assert not np.shares_memory(second, p.data)
        assert not np.shares_memory(second, first)


class TestGradientCovariance:
    """Least squares' Sigma as a quadratic form about theta_LS, against C C' / n from the per-datum gradients."""

    @pytest.mark.parametrize("lead", [(), (7,), (3, 5), "state_slice"],
                             ids=["single", "batched", "grid", "state_slice"])
    @pytest.mark.parametrize("kind", ["noisy", "near_duplicate", "scaled_columns", "far", "rank_deficient"])
    def test_matches_the_centred_gram(self, kind, lead):
        p, theta_ls, scale = least_squares_case(kind, seed=27)
        rng = np.random.default_rng(28)
        if lead == "state_slice":
            # the theta block of a column-major (S, D) state, as euler_maruyama passes it
            state = np.tile(theta_ls, 2) + scale * rng.standard_normal((6, 2 * p.dim))
            theta = np.asfortranarray(state)[:, :p.dim]
        else:
            theta = theta_ls + scale * rng.standard_normal(lead + (p.dim,))
        want = centred_gram(p, theta)
        got = p.gradient_covariance(theta)
        assert got.shape == theta.shape[:-1] + (p.dim, p.dim)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    def test_noise_free_data_near_the_solution(self):
        # Sigma is O(1e-12) at theta* + 1e-6; the terms about theta_LS are that small too
        rng = np.random.default_rng(31)
        x, theta_star = rng.standard_normal((16, 4)), rng.standard_normal(4)
        p = LeastSquaresProblem(x, x @ theta_star)
        theta = theta_star + 1e-6 * rng.standard_normal((50, 4))
        wide = np.longdouble
        residual = theta.astype(wide) @ x.T.astype(wide) - p.targets.astype(wide)
        rows = residual[..., :, None] * x.astype(wide)
        rows -= rows.mean(axis=-2, keepdims=True)
        want = np.einsum("...ni,...nj->...ij", rows, rows) / p.n_points
        got = p.gradient_covariance(theta)
        err = np.abs(got - want).max(axis=(-2, -1)) / np.abs(want).max(axis=(-2, -1))
        assert err.max() <= 1e-8

    def test_noise_free_data_at_the_solution_still_factors(self):
        rng = np.random.default_rng(33)
        x, theta_star = rng.standard_normal((12, 3)), rng.standard_normal(3)
        p = LeastSquaresProblem(x, x @ theta_star)
        sigma = EmpiricalCovariance().matrix(p, theta_star)
        factor = psd_cholesky(sigma)
        np.testing.assert_allclose(factor @ factor.T, sigma, rtol=0, atol=1e-14 * np.abs(sigma).max())

    @pytest.mark.parametrize("lead", [(), (5,)], ids=["single", "batched"])
    def test_exactly_symmetric_and_fresh(self, lead):
        p = random_least_squares(seed=29, n=16, d=4)
        theta = np.random.default_rng(30).standard_normal(lead + (p.dim,))
        first = p.gradient_covariance(theta)
        second = p.gradient_covariance(theta)
        np.testing.assert_array_equal(first, np.swapaxes(first, -1, -2))
        np.testing.assert_array_equal(second, first)
        assert second.flags.writeable and not np.shares_memory(second, first)

    def test_only_finite_sum_problems(self):
        with pytest.raises(ValueError, match="finite-sum"):
            QuadraticProblem(np.eye(2)).gradient_covariance([0.0, 0.0])
        with pytest.raises(ValueError, match="finite-sum"):
            EmpiricalCovariance().matrix(QuadraticProblem(np.eye(2)), np.zeros(2))

    def test_derived_arrays_are_read_only_and_not_compared(self):
        p, theta_ls, _ = least_squares_case("noisy", seed=35, n=9, d=3)
        derived = [f.name for f in fields(p) if not f.init]
        assert derived == ["_data_t", "_p_bar", "_q_bar", "_theta_ls", "_w"]
        for name in derived:
            with pytest.raises(ValueError, match="read-only"):
                getattr(p, name).flat[0] = 0.0
        np.testing.assert_allclose(p._theta_ls, theta_ls, rtol=1e-12)
        assert p._w.shape == (10, 6)  # ((d+1)(d+2)/2, d(d+1)/2) at d = 3
        assert [f.name for f in fields(p) if f.compare] == ["data", "targets"]
        assert [f.name for f in fields(p) if f.repr] == ["data", "targets"]
        assert all(f.hash is None for f in fields(p))  # hashing follows compare


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

    def test_stack_of_matrices_rejected(self):
        # one matrix per seed would pass the dimension check and broadcast into the drift
        with pytest.raises(ValueError, match="2-d"):
            ConstantCovariance(np.stack([np.eye(2), 4 * np.eye(2)]))

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

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_psd_when_the_mean_gradient_dominates(self, seed):
        # near-duplicate rows: trace(Sigma) / |grad f|^2 is about 3e-9 at seed 1
        rng = np.random.default_rng(seed)
        base = rng.standard_normal(4)
        p = LeastSquaresProblem(base + 1e-4 * rng.standard_normal((3, 4)), np.ones(3))
        theta = rng.standard_normal(4)
        sigma = EmpiricalCovariance().matrix(p, theta)
        factor = psd_cholesky(sigma)
        np.testing.assert_allclose(factor @ factor.T, sigma, rtol=1e-12, atol=1e-14 * np.abs(sigma).max())
        assert np.all(EmpiricalCovariance().diagonal(p, theta) >= 0.0)

        # negative control: the uncentred moment form cancels to a non-PSD matrix
        grads = p.per_datum_gradients(theta)
        mean = p.full_gradient(theta)
        uncentred = grads.T @ grads / p.n_points - np.outer(mean, mean)
        with pytest.raises(ValueError, match="not PSD"):
            psd_cholesky(uncentred)


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
        # sqrt is a noise factor L with L L' = matrix; only the constant
        # covariances promise the symmetric root
        p = random_least_squares(seed=4)
        rng = np.random.default_rng(9)
        theta = rng.standard_normal(lead + (p.dim,))
        w = rng.standard_normal(lead + (p.dim,))
        got = cov.apply_sqrt(p, theta, w)
        assert got.shape == w.shape
        factor = np.broadcast_to(cov.sqrt(p, theta), lead + (p.dim, p.dim))
        for i in np.ndindex(lead):
            mat = cov.matrix(p, theta[i])
            np.testing.assert_allclose(got[i], factor[i] @ w[i], rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(factor[i] @ factor[i].T, mat, rtol=1e-12, atol=1e-14)
            if not isinstance(cov, EmpiricalCovariance):
                np.testing.assert_allclose(factor[i], psd_sqrt(mat), rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize(
        "cov",
        [
            IsotropicCovariance(2.5),
            ConstantCovariance(np.array([[1.0, 0.4, 0.0], [0.4, 0.8, 0.2], [0.0, 0.2, 0.5]])),
        ],
        ids=["isotropic", "constant"],
    )
    def test_constant_covariance_needs_no_theta(self, cov):
        # a constant factor ignores theta, so None stands in for it
        p = random_least_squares(seed=4)
        w = np.random.default_rng(10).standard_normal((6, p.dim))
        np.testing.assert_array_equal(cov.apply_sqrt(p, None, w), w @ cov.sqrt(p).T)

    @pytest.mark.parametrize("paths", [200, 2000])
    def test_constant_root_is_column_major_and_applied_bit_for_bit(self, paths):
        # stored column-major, so that w @ L' multiplies a C-contiguous L'
        sigma = np.array([[1.0, 0.3, 0.0, 0.1], [0.3, 0.6, 0.1, 0.0],
                          [0.0, 0.1, 0.5, 0.2], [0.1, 0.0, 0.2, 0.4]])
        cov = ConstantCovariance(sigma)
        p = QuadraticProblem(np.eye(4))
        root = cov.sqrt(p)
        assert root.flags.f_contiguous
        np.testing.assert_array_equal(root, psd_sqrt(cov.sigma))
        w = np.random.default_rng(11).standard_normal((paths, 4))
        np.testing.assert_array_equal(cov.apply_sqrt(p, None, w), w @ np.ascontiguousarray(root.T))


class TestCovarianceDiagonal:
    CONST = np.array([[1.0, 0.4, 0.0], [0.4, 0.8, 0.2], [0.0, 0.2, 0.5]])

    @pytest.mark.parametrize("lead", [(5,), ()], ids=["batched", "single"])
    def test_empirical_matrix_matches_centred_einsum(self, lead):
        p = random_least_squares(seed=17, n=20)
        theta = np.random.default_rng(18).standard_normal(lead + (p.dim,)) * 2
        # row-mean centring and an einsum diagonal, as C and diag Sigma were once built
        grads = p.per_datum_gradients(theta)
        centered = grads - grads.mean(axis=-2, keepdims=True)
        want = np.einsum("...ni,...nj->...ij", centered, centered) / grads.shape[-2]
        want_diagonal = np.einsum("...ni,...ni->...i", centered, centered) / grads.shape[-2]
        np.testing.assert_allclose(EmpiricalCovariance().matrix(p, theta), want, rtol=1e-12)
        np.testing.assert_allclose(EmpiricalCovariance().diagonal(p, theta), want_diagonal, rtol=1e-12)

    @pytest.mark.parametrize("lead", [(5,), ()], ids=["batched", "single"])
    @pytest.mark.parametrize("cov", [ConstantCovariance(CONST)], ids=["constant"])
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

    @pytest.mark.parametrize("lead", [(5,), ()], ids=["batched", "single"])
    def test_empirical_diagonal_is_read_off_the_matrix(self, lead):
        p = random_least_squares(seed=19)
        theta = np.random.default_rng(20).standard_normal(lead + (p.dim,))
        got = EmpiricalCovariance().diagonal(p, theta)
        want = np.diagonal(EmpiricalCovariance().matrix(p, theta), axis1=-2, axis2=-1)
        assert got.shape == lead + (p.dim,)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("algo", ["rmsprop", "adam"])
    def test_a_drift_and_a_diffusion_build_each_quantity_once(self, algo, monkeypatch):
        # both SDEs need diag Sigma in the drift and a factor of Sigma in the
        # diffusion; at one state that is one full gradient (the drift's) and one Sigma
        p = random_least_squares(seed=23)
        cov = EmpiricalCovariance()
        if algo == "adam":
            system, t = build_adam_sde(p, cov, sigma0=1.0, epsilon0=0.1, c1=2.0, c2=1.5), 1.0
        else:
            system, t = build_rmsprop_sde(p, cov, sigma0=1.0, epsilon0=0.1, c2=1.5), 0.0
        rng = np.random.default_rng(24)
        x = np.ones((5, system.state_dim), order="F")
        x[:, system.blocks["theta"]] = rng.standard_normal((5, p.dim))
        gradients, builds, sigmas = [], [], []
        full = LeastSquaresProblem.full_gradient
        covariance = LeastSquaresProblem.gradient_covariance
        matrix = EmpiricalCovariance.matrix

        def kept(calls, fn):
            def call(*args, **kwargs):
                calls.append(fn(*args, **kwargs))  # held, so ids stay distinct
                return calls[-1]
            return call

        monkeypatch.setattr(LeastSquaresProblem, "full_gradient", kept(gradients, full))
        monkeypatch.setattr(LeastSquaresProblem, "gradient_covariance", kept(builds, covariance))
        monkeypatch.setattr(EmpiricalCovariance, "matrix", kept(sigmas, matrix))
        system.drift(x, t)
        system.apply_diffusion(x, t, rng.standard_normal((5, p.dim)))
        assert len(gradients) == 1
        assert len(builds) == 1
        assert len({id(sigma) for sigma in sigmas}) == 1 and len(sigmas) == 2

    def test_constant_diagonal_checks_dimension(self):
        cov = ConstantCovariance(self.CONST)
        with pytest.raises(ValueError, match="dimension"):
            cov.diagonal(LinearProblem([1.0, 2.0]), None)

    def test_constant_diagonal_is_a_read_only_view(self):
        # no copy per call, and a caller cannot write through it into sigma
        cov = ConstantCovariance(self.CONST)
        diag = cov.diagonal(LinearProblem(np.ones(self.CONST.shape[0])), None)
        np.testing.assert_array_equal(diag, np.diag(self.CONST))
        assert np.shares_memory(diag, cov.sigma)
        assert not diag.flags.writeable


class TestEmpiricalMemo:
    """The one-entry memo of Sigma: keyed on the problem's identity and theta's exact bytes."""

    def setup_method(self):
        self.problem = random_least_squares(seed=41)
        self.theta = np.random.default_rng(42).standard_normal((5, self.problem.dim))

    def test_same_state_reuses_one_build(self):
        cov = EmpiricalCovariance()
        sigma = cov.matrix(self.problem, self.theta)
        assert cov.matrix(self.problem, self.theta.copy()) is sigma
        assert np.shares_memory(cov.diagonal(self.problem, self.theta), sigma)

    def test_theta_changed_in_place_gives_a_fresh_build(self):
        cov = EmpiricalCovariance()
        before = cov.matrix(self.problem, self.theta)
        self.theta[2, 1] += 0.5
        got = cov.matrix(self.problem, self.theta)
        np.testing.assert_array_equal(got, EmpiricalCovariance().matrix(self.problem, self.theta))
        assert not np.array_equal(got[2], before[2])

    def test_another_problem_at_the_same_theta_gets_its_own(self):
        other = random_least_squares(seed=43)
        cov = EmpiricalCovariance()
        cov.diagonal(self.problem, self.theta)
        got = cov.diagonal(other, self.theta)
        np.testing.assert_array_equal(got, EmpiricalCovariance().diagonal(other, self.theta))
        assert not np.array_equal(got, cov.diagonal(self.problem, self.theta))

    def test_a_new_shape_or_problem_gets_its_own_sigma(self):
        cov = EmpiricalCovariance()
        first = cov.matrix(self.problem, self.theta)
        wide = np.vstack([self.theta, self.theta])
        wider = cov.matrix(self.problem, wide)
        assert not np.shares_memory(wider, first)
        np.testing.assert_array_equal(wider, EmpiricalCovariance().matrix(self.problem, wide))
        other = random_least_squares(seed=44)  # the same (d, n), so Sigma's shape is wider's
        theirs = cov.matrix(other, wide)
        assert not np.shares_memory(theirs, wider)
        np.testing.assert_array_equal(theirs, EmpiricalCovariance().matrix(other, wide))

    def test_a_held_sigma_is_not_rewritten_by_a_later_miss(self):
        cov = EmpiricalCovariance()
        sigma = cov.matrix(self.problem, self.theta)
        diagonal = cov.diagonal(self.problem, self.theta)
        kept = sigma.copy()
        moved = cov.matrix(self.problem, self.theta + 0.25)
        assert not np.shares_memory(moved, sigma)
        np.testing.assert_array_equal(sigma, kept)
        np.testing.assert_array_equal(diagonal, np.diagonal(kept, axis1=-2, axis2=-1))

    def test_held_sigma_is_read_only(self):
        sigma = EmpiricalCovariance().matrix(self.problem, self.theta)
        with pytest.raises(ValueError, match="read-only"):
            sigma[0, 0, 0] = 0.0

    def test_the_only_array_held_is_the_returned_sigma(self):
        cov = EmpiricalCovariance()
        sigma = cov.matrix(self.problem, self.theta)
        held = [item for item in cov._memo if isinstance(item, np.ndarray)]
        assert len(held) == 1 and held[0] is sigma

    def test_memo_takes_no_part_in_equality(self):
        used, fresh = EmpiricalCovariance(), EmpiricalCovariance()
        used.matrix(self.problem, self.theta)
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)


class TestCallerArrays:
    """A problem copies what it is given: later edits of the caller's arrays change nothing."""

    def test_least_squares(self):
        rng = np.random.default_rng(48)
        x, y = rng.standard_normal((8, 2)), rng.standard_normal(8)
        p, unedited = LeastSquaresProblem(x, y), LeastSquaresProblem(x.copy(), y.copy())
        x[0, 0] += 1.0
        y[3] -= 1.0
        theta = rng.standard_normal(2)
        for method in ("loss", "full_gradient", "per_datum_gradients", "gradient_covariance"):
            np.testing.assert_array_equal(getattr(p, method)(theta), getattr(unedited, method)(theta))
        np.testing.assert_allclose(p.per_datum_gradients(theta).mean(axis=0), p.full_gradient(theta), atol=1e-12)
        assert not (p.data.flags.writeable or p.targets.flags.writeable)

    def test_quadratic(self):
        a, b = np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([0.3, -0.2])
        p = QuadraticProblem(a, b)
        theta = np.array([1.0, -1.0])
        want = p.full_gradient(theta)
        a[0, 1] = a[1, 0] = 0.0
        b[0] = 5.0
        np.testing.assert_array_equal(p.full_gradient(theta), want)
        assert not (p.a.flags.writeable or p.b.flags.writeable)

    def test_linear(self):
        g = np.array([0.5, -2.0])
        p = LinearProblem(g)
        g[0] = 7.0
        np.testing.assert_array_equal(p.full_gradient([1.0, 1.0]), [0.5, -2.0])
        assert not p.g_bar.flags.writeable


class TestConstruction:
    def test_quadratic_requires_symmetry(self):
        with pytest.raises(ValueError):
            QuadraticProblem([[1.0, 0.1], [0.0, 1.0]])

    def test_quadratic_accepts_tiny_asymmetry(self):
        a = np.array([[1.0, 0.5], [0.5 * (1 + 1e-14), 1.0]])
        QuadraticProblem(a)

    @pytest.mark.parametrize("where", ["data", "targets"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_least_squares_rejects_non_finite_input(self, where, bad):
        # a non-finite entry would poison the moments fixed at construction, and every state with them
        rng = np.random.default_rng(49)
        arrays = {"data": rng.standard_normal((6, 3)), "targets": rng.standard_normal(6)}
        arrays[where].flat[4] = bad
        with pytest.raises(ValueError, match="finite"):
            LeastSquaresProblem(arrays["data"], arrays["targets"])


@pytest.mark.parametrize(
    "build",
    [
        lambda: LinearProblem(np.array([0.5, -2.0])),
        lambda: QuadraticProblem(np.eye(2), np.array([0.3, -0.2])),
        lambda: LeastSquaresProblem(np.arange(6.0).reshape(3, 2), np.ones(3)),
        lambda: ConstantCovariance(np.eye(2)),
    ],
    ids=["linear", "quadratic", "least_squares", "constant_covariance"],
)
def test_equality_and_hashing_go_by_identity(build):
    # the covariance memo keys on the problem with `is`; `==` and hash follow the same rule
    p, twin = build(), build()
    assert p == p
    assert not p == twin and p != twin
    assert hash(p) == hash(p) and len({p, twin}) == 2
