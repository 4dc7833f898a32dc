import dataclasses
import math

import numpy as np
import pytest

from adasde.linalg import _semidefinite_cholesky, check_symmetric, psd_cholesky, psd_sqrt
from adasde.problems import (
    ConstantCovariance,
    EmpiricalCovariance,
    IsotropicCovariance,
    LeastSquaresProblem,
    QuadraticProblem,
)
from adasde.recording import TestFunctionSet
from adasde.sde import (
    SdeSystem,
    build_adam_sde,
    build_rmsprop_sde,
    build_sgd_sde,
    euler_maruyama,
)


def ou_system(rate=1.0, diff=1.0):
    """dX = -rate X dt + diff dW, the closed-form reference system."""

    def drift(x, t):
        return -rate * x

    def apply_diffusion(x, t, dw):
        return diff * dw

    return SdeSystem(
        noise_dim=1,
        drift=drift,
        apply_diffusion=apply_diffusion,
        blocks={"theta": slice(0, 1)},
    )


def embedded_diffusion(system, x, t, dw):
    """The (paths, D) noise increment: apply_diffusion in the driven block, zero elsewhere."""
    out = np.zeros(x.shape)
    out[:, system.blocks[system.driven]] = system.apply_diffusion(x, t, dw)
    return out


def diffusion_columns(system, x, t):
    """The diffusion matrix at x, (paths, D, noise_dim): the increment of each unit draw."""
    paths = x.shape[0]
    return np.stack(
        [embedded_diffusion(system, x, t, np.tile(e, (paths, 1))) for e in np.eye(system.noise_dim)],
        axis=-1,
    )


COORD_FNS = TestFunctionSet.from_names(["theta_0"], dim=1)


def normals(seed, paths, noise_dim):
    """A noise stream: one (paths, noise_dim) standard-normal block per step, drawn as read."""
    rng = np.random.default_rng(seed)
    while True:
        yield rng.standard_normal((paths, noise_dim))


class TestPsdSqrt:
    def test_identity(self):
        np.testing.assert_array_equal(psd_sqrt(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        np.testing.assert_allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((5, 5))
        sigma = a.T @ a
        root = psd_sqrt(sigma)
        np.testing.assert_allclose(root, root.T, atol=1e-10)
        err = np.linalg.norm(root @ root - sigma) / np.linalg.norm(sigma)
        assert err < 1e-8

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError):
            psd_sqrt(np.array([[1.0, 0.0], [0.0, -1e-3]]))


def assert_lower_factor(factor, mat):
    """factor is finite and lower triangular with factor @ factor' = mat to rounding."""
    assert np.all(np.isfinite(factor))
    assert np.all(np.triu(factor, 1) == 0.0)
    scale = max(np.max(np.abs(mat)), 1.0)
    np.testing.assert_allclose(factor @ np.swapaxes(factor, -1, -2), mat, rtol=0.0, atol=1e-13 * scale)


class TestPsdCholesky:
    def test_positive_definite_batch_matches_semidefinite_path(self):
        a = np.random.default_rng(21).standard_normal((6, 8, 4))
        sigma = np.swapaxes(a, -1, -2) @ a / 8
        lapack = psd_cholesky(sigma)
        assert_lower_factor(lapack, sigma)
        np.testing.assert_allclose(lapack, _semidefinite_cholesky(sigma), rtol=0.0, atol=1e-12)

    def test_singular_members_in_a_batch(self):
        rng = np.random.default_rng(22)
        x = rng.standard_normal((3, 4))
        theta_star = rng.standard_normal(4)
        wide = LeastSquaresProblem(x, rng.standard_normal(3))  # n <= d: rank <= n - 1
        repeated = LeastSquaresProblem(np.tile(x[0], (2, 1)), np.ones(2))  # two equal gradients: Sigma = 0
        a = rng.standard_normal((8, 4))
        batch = np.stack([
            a.T @ a / 8,
            EmpiricalCovariance().matrix(wide, rng.standard_normal(4)),
            EmpiricalCovariance().matrix(repeated, theta_star),
        ])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(batch)  # the whole batch takes the semidefinite path
        factor = psd_cholesky(batch)
        assert_lower_factor(factor, batch)
        assert np.all(factor[2] == 0.0)

    @pytest.mark.parametrize("delta", [3e-4, 1e-5])
    def test_rank_two_with_an_ill_conditioned_leading_block(self, delta):
        # exactly rank 2, with a leading 2 x 2 pivot of about delta^2 / 2; an
        # unpivoted semidefinite Cholesky loop amplifies the rounding into a
        # third pivot near -1e-8 (a false "not PSD" at delta = 3e-4) or a
        # relative error near 1e-6 in L L' (delta = 1e-5). LAPACK may or may
        # not accept such a matrix, so the semidefinite path is also called
        # directly.
        v = np.array([[1.0, 1.0, 0.3], [1.0, 1.0 + delta, -0.7]])
        sigma = v.T @ v
        assert_lower_factor(psd_cholesky(sigma), sigma)
        assert_lower_factor(_semidefinite_cholesky(sigma), sigma)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError, match="not PSD"):
            psd_cholesky(np.array([[1.0, 0.0], [0.0, -1e-3]]))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="not symmetric"):
            psd_cholesky(np.array([[1.0, 0.5], [0.1, 1.0]]))


class TestCheckSymmetric:
    def test_exact_input_is_copied_not_aliased(self):
        mat = np.array([[[2.0, 0.3], [0.3, 1.0]], [[1.0, -0.7], [-0.7, 4.0]]])
        got = check_symmetric(mat)
        assert got is not mat and not np.shares_memory(got, mat)
        np.testing.assert_array_equal(got, mat)
        np.testing.assert_array_equal(got, 0.5 * (mat + np.swapaxes(mat, -1, -2)))

    def test_within_tolerance_is_symmetrized(self):
        mat = np.array([[1.0, 0.5], [0.5 * (1 + 1e-14), 1.0]])
        got = check_symmetric(mat)
        np.testing.assert_array_equal(got, 0.5 * (mat + mat.T))
        assert got[0, 1] == got[1, 0] != mat[1, 0]

    def test_beyond_tolerance_raises(self):
        with pytest.raises(ValueError, match="not symmetric"):
            check_symmetric(np.array([[1.0, 0.5], [0.5 * (1 + 1e-8), 1.0]]))

    @pytest.mark.parametrize("where", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
    def test_nan_passes_through_symmetrized(self, where):
        # NaN compares unequal to itself, so it takes the tolerance path,
        # whose NaN asymmetry does not raise
        mat = np.array([[1.0, 0.5], [0.5, 2.0]])
        mat[where] = mat[where[::-1]] = np.nan
        np.testing.assert_array_equal(check_symmetric(mat), 0.5 * (mat + mat.T))


class TestRmspropSystem:
    def setup_method(self):
        self.problem = QuadraticProblem(np.diag([1.0, 2.0]))
        self.diag = np.array([0.8, 1.5])
        self.cov = ConstantCovariance(np.diag(self.diag))

    def test_u_block_relaxation_closed_form(self):
        # gradient-free problem: u follows du = c2 (diag Sigma - u) dt exactly
        problem = QuadraticProblem(np.zeros((2, 2)))
        c2 = 1.3
        system = build_rmsprop_sde(problem, self.cov, sigma0=1.0, epsilon0=0.0, c2=c2)
        u0 = np.array([2.0, 0.3])
        x0 = np.concatenate([np.zeros(2), u0])[None, :]
        dt, t_end = 1e-4, 0.5
        fns = TestFunctionSet.from_names(["u_0", "u_1"], dim=2)
        rec = euler_maruyama(system, x0, 0.0, dt, 5000, fns, [5000], noise=normals(0, 1, 2))
        expected = self.diag + (u0 - self.diag) * math.exp(-c2 * t_end)
        got = np.array([rec.values["u_0"][0, 0], rec.values["u_1"][0, 0]])
        np.testing.assert_allclose(got, expected, atol=5 * dt)

    def test_zero_covariance_pure_decay(self):
        cov = IsotropicCovariance(0.0)
        system = build_rmsprop_sde(self.problem, cov, sigma0=1.0, epsilon0=0.1, c2=2.0)
        u0 = np.array([1.0, 1.0])
        x0 = np.concatenate([np.ones(2), u0])[None, :]
        fns = TestFunctionSet.from_names(["u_0"], dim=2)
        rec = euler_maruyama(system, x0, 0.0, 1e-4, 3000, fns, [3000], noise=normals(0, 1, 2))
        assert rec.values["u_0"][0, 0] == pytest.approx(math.exp(-2.0 * 0.3), abs=1e-3)

    def test_theta_diffusion_coefficient_cancels_sigma0(self):
        cov = IsotropicCovariance(1.0)
        system = build_rmsprop_sde(self.problem, cov, sigma0=0.7, epsilon0=0.0, c2=1.0)
        u = np.array([4.0, 0.25])
        x = np.concatenate([np.zeros(2), u])[None, :]
        cols = diffusion_columns(system, x, 0.0)[0]
        np.testing.assert_allclose(np.diag(cols[:2, :2]), -1.0 / np.sqrt(u))
        assert np.all(cols[2:, :] == 0.0)  # u rows carry no noise


SIGMA0, EPSILON0, C1, ETA = 0.5, 0.2, 1.0, 0.1
BUILDERS = {
    "rmsprop": lambda p, cov: build_rmsprop_sde(p, cov, SIGMA0, EPSILON0, c2=1.0),
    "adam": lambda p, cov: build_adam_sde(p, cov, SIGMA0, EPSILON0, c1=C1, c2=1.0),
    "sgd": lambda p, cov: build_sgd_sde(p, cov, eta=ETA),
}
LS_PROBLEM = LeastSquaresProblem(
    np.random.default_rng(11).standard_normal((8, 3)), np.random.default_rng(12).standard_normal(8)
)
COVARIANCES = {
    "constant": ConstantCovariance(np.array([[1.0, 0.3, 0.0], [0.3, 0.6, 0.1], [0.0, 0.1, 0.4]])),
    "empirical": EmpiricalCovariance(),
}


class TestStructuredDiffusion:
    @pytest.mark.parametrize("cov_name", sorted(COVARIANCES))
    @pytest.mark.parametrize("algo", sorted(BUILDERS))
    def test_structured_matches_dense(self, algo, cov_name):
        # apply_diffusion goes through CovarianceSpec.apply_sqrt on the whole
        # batch; the reference is each system's closed-form coefficient, built
        # from CovarianceSpec.sqrt one path at a time
        cov = COVARIANCES[cov_name]
        system = BUILDERS[algo](LS_PROBLEM, cov)
        d, paths = LS_PROBLEM.dim, 4
        assert system.noise_dim == d  # only d Wiener components drive the system
        rng = np.random.default_rng(3)
        x = np.concatenate(
            [rng.standard_normal((paths, d)), rng.uniform(0.5, 2.0, (paths, system.state_dim - d))],
            axis=1,
        )
        dw = rng.standard_normal((paths, d))
        fast = embedded_diffusion(system, x, 1.0, dw)
        for i in range(paths):
            noise = cov.sqrt(LS_PROBLEM, x[i, :d]) @ dw[i]
            expected = np.zeros(system.state_dim)
            if algo == "rmsprop":  # -L dw / (sqrt(u) + eps0/sigma0) on theta
                expected[:d] = -noise / (np.sqrt(x[i, d:]) + EPSILON0 / SIGMA0)
            elif algo == "adam":  # +sigma0 c1 L dw on m
                expected[d : 2 * d] = SIGMA0 * C1 * noise
            else:  # -sqrt(eta) L dw on theta
                expected[:] = -math.sqrt(ETA) * noise
            np.testing.assert_allclose(fast[i], expected, rtol=1e-12, atol=1e-14)


class TestAdamSystem:
    def setup_method(self):
        self.problem = QuadraticProblem(np.diag([1.0, 2.0]))
        self.cov = IsotropicCovariance(1.0)
        self.system = build_adam_sde(self.problem, self.cov, sigma0=1.0, epsilon0=0.1, c1=1.0, c2=1.0)

    def test_zero_momentum_zero_theta_drift(self):
        x = np.concatenate([np.ones(2), np.zeros(2), np.full(2, 0.5)])[None, :]
        b = self.system.drift(x, t=1.0)
        np.testing.assert_array_equal(b[0, :2], 0.0)

    def test_bias_factor_at_log_two(self):
        # c1 = c2 = 1, t = ln 2: gamma1 = gamma2 = 1/2, sqrt(g2)/g1 = sqrt(2)
        th = np.zeros(2)
        m = np.ones(2)
        u = np.ones(2)
        x = np.concatenate([th, m, u])[None, :]
        sys_no_eps = build_adam_sde(self.problem, self.cov, sigma0=1.0, epsilon0=0.0, c1=1.0, c2=1.0)
        b = sys_no_eps.drift(x, t=math.log(2.0))
        np.testing.assert_allclose(b[0, :2], -math.sqrt(2.0) * np.ones(2))

    def test_large_time_recovers_stationary_preconditioner(self):
        x = np.concatenate([np.zeros(2), np.ones(2), np.ones(2)])[None, :]
        b = self.system.drift(x, t=80.0)
        np.testing.assert_allclose(b[0, :2], -1.0 / (1.0 + 0.1), rtol=1e-12)

    def test_time_zero_rejected(self):
        x = np.concatenate([np.zeros(2), np.zeros(2), np.ones(2)])[None, :]
        with pytest.raises(ValueError):
            self.system.drift(x, t=0.0)
        with pytest.raises(ValueError):
            euler_maruyama(
                self.system, x, 0.0, 1e-3, 100,
                TestFunctionSet.from_names(["theta_0"], dim=2), [100], noise=normals(0, 1, 2),
            )

    def test_noise_enters_momentum_block_only(self):
        assert self.system.driven == "m"
        x = np.concatenate([np.zeros(2), np.zeros(2), np.ones(2)])[None, :]
        cols = diffusion_columns(self.system, x, 1.0)[0]
        assert np.all(cols[:2, :] == 0.0)
        assert np.all(cols[4:, :] == 0.0)
        assert np.any(cols[2:4, :2] != 0.0)


class TestSgdSystem:
    def test_zero_covariance_gradient_flow(self):
        problem = QuadraticProblem(np.eye(1))
        system = build_sgd_sde(problem, IsotropicCovariance(0.0), eta=0.1)
        x0 = np.array([[1.0]])
        rec = euler_maruyama(system, x0, 0.0, 1e-4, 10_000, COORD_FNS, [10_000], noise=normals(0, 1, 1))
        assert rec.values["theta_0"][0, 0] == pytest.approx(math.exp(-1.0), abs=1e-3)

    def test_ou_moments(self):
        problem = QuadraticProblem(np.eye(1))
        eta = 0.2
        system = build_sgd_sde(problem, IsotropicCovariance(1.0), eta=eta)
        x0 = np.ones((4000, 1)) * 2.0
        rec = euler_maruyama(
            system, x0, 0.0, 2e-3, 1500, COORD_FNS, [500, 1500], noise=normals(1, 4000, 1)
        )
        vals = rec.values["theta_0"]
        assert vals[0].mean() == pytest.approx(2.0 * math.exp(-1.0), abs=4 * vals[0].std() / 63)
        # near stationarity the variance approaches eta/2
        assert vals[1].var() == pytest.approx(eta / 2, rel=0.15)

    def test_eta_scales_diffusion_sqrt(self):
        problem = QuadraticProblem(np.eye(1))
        x = np.zeros((1, 1))
        d1 = diffusion_columns(build_sgd_sde(problem, IsotropicCovariance(1.0), eta=0.1), x, 0.0)
        d2 = diffusion_columns(build_sgd_sde(problem, IsotropicCovariance(1.0), eta=0.2), x, 0.0)
        assert d2[0, 0, 0] / d1[0, 0, 0] == pytest.approx(math.sqrt(2.0))


class TestDrivenBlock:
    """``apply_diffusion`` returns the driven block's increment; the other blocks take no noise."""

    DRIVEN = {"rmsprop": "theta", "adam": "m", "sgd": "theta"}

    @pytest.mark.parametrize("lead", [(4,), (2, 3)])
    @pytest.mark.parametrize("cov_name", sorted(COVARIANCES))
    @pytest.mark.parametrize("algo", sorted(BUILDERS))
    def test_increment_has_the_driven_block_shape(self, algo, cov_name, lead):
        system = BUILDERS[algo](LS_PROBLEM, COVARIANCES[cov_name])
        assert system.driven == self.DRIVEN[algo]
        assert system.driven in system.blocks
        d = LS_PROBLEM.dim
        rng = np.random.default_rng(4)
        x = np.concatenate(
            [rng.standard_normal(lead + (d,)), rng.uniform(0.5, 2.0, lead + (system.state_dim - d,))],
            axis=-1,
        )
        out = system.apply_diffusion(x, 1.0, rng.standard_normal(lead + (d,)))
        assert out.shape == x.shape[:-1] + (d,)

    @pytest.mark.parametrize("cov_name", sorted(COVARIANCES))
    @pytest.mark.parametrize("algo", ["rmsprop", "adam"])
    def test_undriven_blocks_step_without_noise(self, algo, cov_name):
        # one step from x: the undriven blocks read x + dt b exactly, the
        # driven one adds apply_diffusion's increment of sqrt(dt) w
        system = BUILDERS[algo](LS_PROBLEM, COVARIANCES[cov_name])
        d, paths, t0, dt = LS_PROBLEM.dim, 4, 1.0, 0.01
        rng = np.random.default_rng(5)
        x = np.asfortranarray(rng.uniform(0.5, 2.0, (paths, system.state_dim)))
        x[:, :d] = rng.standard_normal((paths, d))
        w = rng.standard_normal((1, paths, d))
        names = [f"{name}_{i}" for name in system.blocks for i in range(d)]
        rec = euler_maruyama(
            system, x, t0, dt, 1, TestFunctionSet.from_names(names, dim=d), [1], noise=w
        )
        expected = x + dt * system.drift(x, t0)
        expected[:, system.blocks[system.driven]] += system.apply_diffusion(
            x, t0, math.sqrt(dt) * w[0]
        )
        for name, sl in system.blocks.items():
            got = np.stack([rec.values[f"{name}_{i}"][0] for i in range(d)], axis=-1)
            np.testing.assert_array_equal(got, expected[:, sl], err_msg=name)

    def test_driven_block_must_be_a_block(self):
        with pytest.raises(ValueError, match="driven block 'm'"):
            SdeSystem(
                noise_dim=1, drift=lambda x, t: x, apply_diffusion=lambda x, t, dw: dw,
                blocks={"theta": slice(0, 1)}, driven="m",
            )


class TestEulerMaruyama:
    def test_constant_path_without_dynamics(self):
        def zero(x, t):
            return np.zeros_like(x)

        system = SdeSystem(
            noise_dim=1,
            drift=zero,
            apply_diffusion=lambda x, t, dw: np.zeros_like(x),
            blocks={"theta": slice(0, 1)},
            )
        x0 = np.full((3, 1), 1.5)
        rec = euler_maruyama(system, x0, 0.0, 0.01, 100, COORD_FNS, [50, 100], noise=normals(0, 3, 1))
        np.testing.assert_array_equal(rec.values["theta_0"], 1.5)

    def test_ou_mean_at_unit_time(self):
        system = ou_system()
        x0 = np.ones((10_000, 1))
        rec = euler_maruyama(system, x0, 0.0, 1e-3, 1000, COORD_FNS, [1000], noise=normals(2, 10_000, 1))
        vals = rec.values["theta_0"][0]
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - math.exp(-1.0)) < 4 * se

    def test_weak_bias_halves_with_dt(self):
        # nested noise: the coarse increments are pair-sums of the fine ones
        system = ou_system()
        paths, t_end = 60_000, 1.0
        dt = 8e-3
        n_fine = int(round(t_end / (dt / 4)))
        rng = np.random.default_rng(3)
        fine = rng.standard_normal((n_fine, paths, 1))
        mid = (fine[0::2] + fine[1::2]) / math.sqrt(2.0)
        coarse = (mid[0::2] + mid[1::2]) / math.sqrt(2.0)
        x0 = np.ones((paths, 1))
        means = {}
        for label, dt_k, noise in (("h", dt, coarse), ("h/2", dt / 2, mid), ("h/4", dt / 4, fine)):
            n_k = len(noise)
            rec = euler_maruyama(system, x0, 0.0, dt_k, n_k, COORD_FNS, [n_k], noise=noise)
            vals = rec.values["theta_0"][0]
            means[label] = (vals.mean(), (vals**2).mean())
        for g in (0, 1):
            d1 = abs(means["h"][g] - means["h/2"][g])
            d2 = abs(means["h/2"][g] - means["h/4"][g])
            assert 1.6 <= d1 / d2 <= 2.5

    @pytest.mark.parametrize("shape", [(3, 4, 1), (1,)])
    def test_a_start_that_is_not_one_ensemble_is_rejected(self, shape):
        # caught here, not as a numpy broadcast error inside the first step
        with pytest.raises(ValueError, match=r"x0 must have shape \(paths, D\)"):
            euler_maruyama(
                ou_system(), np.ones(shape), 0.0, 0.1, 10, COORD_FNS, [10], noise=normals(0, 3, 1)
            )

    def test_negative_start_time_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            euler_maruyama(
                ou_system(), np.ones((2, 1)), -0.1, 0.1, 10, COORD_FNS, [10], noise=normals(0, 2, 1)
            )

    def test_u_zero_names_its_step(self):
        # u' = -c2 u with no noise: one step of c2 dt = 2.5 carries u from 1e-9 to below zero
        problem = QuadraticProblem(np.diag([1.0]))
        cov = IsotropicCovariance(0.0)
        system = build_rmsprop_sde(problem, cov, sigma0=1.0, epsilon0=0.5, c2=50.0)
        x0 = np.array([[1.0, 1e-9]])
        fns = TestFunctionSet.from_names(["theta_0"], dim=1)
        with pytest.raises(ValueError, match=r"u reached zero at step 1, t=0\.05"):
            euler_maruyama(system, x0, 0.0, 0.05, 20, fns, [20], noise=normals(0, 1, 1))

    def test_adam_u_zero_names_its_step_and_time(self):
        # the momentum system's u block is checked too, and t counts from t0
        problem = QuadraticProblem(np.diag([1.0]))
        cov = IsotropicCovariance(0.0)
        system = build_adam_sde(problem, cov, sigma0=1.0, epsilon0=0.5, c1=1.0, c2=50.0)
        x0 = np.array([[1.0, 0.0, 1e-9]])
        fns = TestFunctionSet.from_names(["theta_0"], dim=1)
        with pytest.raises(ValueError, match=r"u reached zero at step 1, t=1\.05"):
            euler_maruyama(system, x0, 1.0, 0.05, 20, fns, [20], noise=normals(0, 1, 1))


def empirical_system(algo):
    data = np.random.default_rng(12)
    problem = LeastSquaresProblem(data.standard_normal((16, 3)), data.standard_normal(16))
    cov = EmpiricalCovariance()
    if algo == "adam":
        return build_adam_sde(problem, cov, sigma0=1.0, epsilon0=0.1, c1=2.0, c2=1.5), 1.0
    return build_rmsprop_sde(problem, cov, sigma0=1.0, epsilon0=0.1, c2=1.5), 0.0


def empirical_start(system, paths=5):
    x0 = np.ones((paths, system.state_dim))
    x0[:, system.blocks["theta"]] = np.random.default_rng(13).standard_normal((paths, 3))
    return x0


LOOP_FNS = TestFunctionSet.from_names(["theta_0", "theta_2", "loss"], dim=3)


def run_loop(system, x0, t0, noise=None, n_steps=12):
    if noise is None:
        noise = normals(14, len(x0), system.noise_dim)
    return euler_maruyama(system, x0, t0, 0.01, n_steps, LOOP_FNS, [0, 6, n_steps], noise=noise)


def assert_same_record(got, want):
    np.testing.assert_array_equal(got.times, want.times)
    assert got.values.keys() == want.values.keys()
    for name in want.values:
        np.testing.assert_array_equal(got.values[name], want.values[name])


class TestLoopContract:
    """What ``euler_maruyama`` promises its callers and the systems it calls."""

    @pytest.mark.parametrize("algo", ["rmsprop", "adam"])
    def test_one_covariance_build_per_step(self, algo, monkeypatch):
        # the drift's diagonal builds Sigma; the diffusion's matrix at the same state reuses it
        calls = []
        covariance = LeastSquaresProblem.gradient_covariance

        def counted(self, theta):
            calls.append(1)
            return covariance(self, theta)

        monkeypatch.setattr(LeastSquaresProblem, "gradient_covariance", counted)
        system, t0 = empirical_system(algo)
        run_loop(system, empirical_start(system), t0, n_steps=9)
        assert len(calls) == 9

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_caller_arrays_are_not_written(self, order):
        system, t0 = empirical_system("rmsprop")
        x0 = np.asarray(empirical_start(system), order=order)
        noise = np.random.default_rng(15).standard_normal((12, 5, system.noise_dim))
        x0_before, noise_before = x0.copy(), noise.copy()
        run_loop(system, x0, t0, noise=noise)
        np.testing.assert_array_equal(x0, x0_before)
        np.testing.assert_array_equal(noise, noise_before)

    @pytest.mark.parametrize("algo", ["rmsprop", "adam"])
    def test_system_reusing_its_output_arrays_integrates_the_same(self, algo):
        system, t0 = empirical_system(algo)

        def reusing(fn):
            held = {}

            def call(*args):
                out = fn(*args)
                buf = held.setdefault("out", np.empty_like(out))
                buf[...] = out
                return buf

            return call

        reused = dataclasses.replace(
            system, drift=reusing(system.drift), apply_diffusion=reusing(system.apply_diffusion)
        )
        x0 = empirical_start(system)
        assert_same_record(run_loop(reused, x0, t0), run_loop(system, x0, t0))

    def test_memory_order_of_the_start_does_not_matter(self):
        system, t0 = empirical_system("rmsprop")
        x0 = empirical_start(system)
        assert_same_record(
            run_loop(system, np.asfortranarray(x0), t0), run_loop(system, np.ascontiguousarray(x0), t0)
        )


class TestNoiseStream:
    """``noise`` is any iterable of (paths, noise_dim) blocks, read one per step."""

    N_STEPS, PATHS, DT = 50, 4, 0.01

    def _run(self, noise):
        x0 = np.ones((self.PATHS, 1))
        return euler_maruyama(
            ou_system(), x0, 0.0, self.DT, self.N_STEPS, COORD_FNS, [25, 50], noise=noise
        )

    def _noise(self):
        return np.random.default_rng(6).standard_normal((self.N_STEPS, self.PATHS, 1))

    def test_generator_of_rows_matches_the_array(self):
        noise = self._noise()
        from_array = self._run(noise)
        from_stream = self._run(row for row in noise)
        np.testing.assert_array_equal(from_stream.values["theta_0"], from_array.values["theta_0"])

    def test_per_step_rng_draws_match_one_whole_draw(self):
        # numpy draws the same normals whether asked per step or all at once,
        # so streaming the noise keeps every seeded result bit for bit
        per_step = self._run(normals(6, self.PATHS, 1))
        whole = self._run(self._noise())
        np.testing.assert_array_equal(per_step.values["theta_0"], whole.values["theta_0"])

    def test_stream_one_block_short_names_the_step(self):
        with pytest.raises(ValueError, match="ended at step 49 of 50"):
            self._run(iter(self._noise()[:-1]))

    def test_misshapen_block_names_the_step(self):
        blocks = list(self._noise())
        blocks[3] = np.zeros((self.PATHS + 1, 1))
        with pytest.raises(ValueError, match=r"step 3 has shape \(5, 1\)"):
            self._run(blocks)

    def test_array_of_the_wrong_shape_is_rejected_up_front(self):
        with pytest.raises(ValueError, match="noise holds 49 blocks, expected 50"):
            self._run(self._noise()[:-1])

    def test_list_of_the_wrong_length_is_rejected_up_front(self):
        # a list of 10 blocks for a 5-step run: the extra blocks are not ignored
        blocks = list(np.zeros((10, self.PATHS, 1)))
        with pytest.raises(ValueError, match="noise holds 10 blocks, expected 5"):
            euler_maruyama(
                ou_system(), np.ones((self.PATHS, 1)), 0.0, self.DT, 5, COORD_FNS, [5], noise=blocks,
            )


class TestBiasCorrectionCurves:
    """Adam's theta drift scales m by sqrt(gamma_2(t)) / gamma_1(t), gamma_i = 1 - exp(-c_i t)."""

    @staticmethod
    def factor(c1, c2, ts):
        # theta drift at m = -1, u = 1, sigma0 = 1, epsilon0 = 0 is the factor itself
        system = build_adam_sde(
            QuadraticProblem(np.eye(1)), IsotropicCovariance(1.0), sigma0=1.0, epsilon0=0.0,
            c1=c1, c2=c2,
        )
        x = np.array([[0.0, -1.0, 1.0]])
        return np.array([system.drift(x, t)[0, 0] for t in ts])

    def test_factor_reads_c1_in_gamma_1_and_c2_in_gamma_2(self):
        ts = np.linspace(0.01, 10.0, 200)
        expected = np.sqrt(1 - np.exp(-0.5 * ts)) / (1 - np.exp(-2.0 * ts))
        np.testing.assert_allclose(self.factor(2.0, 0.5, ts), expected, rtol=1e-12)

    def test_small_time_limit(self):
        # gamma_i ~ c_i t, so the factor ~ sqrt(c2 / t) / c1 as t -> 0
        ts = np.array([1e-6, 1e-7, 1e-8])
        ratio = self.factor(2.0, 0.5, ts) * 2.0 / np.sqrt(0.5 / ts)
        np.testing.assert_allclose(ratio, 1.0, rtol=1e-5)

    def test_factor_settles_to_one(self):
        for c1, c2 in ((2.0, 0.5), (0.5, 2.0)):
            assert self.factor(c1, c2, [60.0])[0] == pytest.approx(1.0, abs=1e-12)

    def test_factor_falls_monotonically_when_gamma_2_is_faster(self):
        steps = np.diff(self.factor(0.5, 2.0, np.linspace(0.01, 40.0, 400)))
        assert np.all(steps < 0)

    def test_factor_undershoots_one_then_rises_when_gamma_1_is_faster(self):
        # gamma_1 saturates first, so sqrt(gamma_2) < 1 is left alone in the numerator
        vals = self.factor(2.0, 0.5, np.linspace(0.01, 40.0, 400))
        low = int(np.argmin(vals))
        assert vals[low] < 1.0
        assert np.all(np.diff(vals[:low + 1]) < 0)
        assert np.all(np.diff(vals[low:]) > 0)
