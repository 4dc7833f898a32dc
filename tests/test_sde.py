import math

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
    QuadraticProblem,
)
from adasde.recording import TestFunctionSet
from adasde.sde import (
    SdeState,
    SdeSystem,
    build_adam_sde,
    build_auxiliary_sde,
    build_rmsprop_sde,
    build_sgd_sde,
    clamp_mu,
    euler_maruyama,
    transition_tau,
)


def ou_system(rate=1.0, diff=1.0):
    """dX = -rate X dt + diff dW, the closed-form reference system."""

    def drift(x, t):
        return -rate * x

    def apply_diffusion(x, t, dw):
        return diff * dw

    def dense_diffusion(x, t):
        return np.broadcast_to(diff * np.eye(1), x.shape[:-1] + (1, 1))

    return SdeSystem(
        state_dim=1,
        noise_dim=1,
        drift=drift,
        apply_diffusion=apply_diffusion,
        dense_diffusion=dense_diffusion,
        blocks={"theta": slice(0, 1)},
        requires_positive_u=False,
    )


COORD_FNS = TestFunctionSet.from_names(["theta_0"], dim=1)


class TestTransitionTau:
    def test_clamped_regions(self):
        assert transition_tau(-1.0) == 0.0
        assert transition_tau(2.0) == 1.0

    def test_midpoint(self):
        assert transition_tau(0.5) == pytest.approx(0.5)

    def test_quarter_symmetry(self):
        assert transition_tau(0.25) + transition_tau(0.75) == pytest.approx(1.0)

    @given(st.floats(min_value=1e-6, max_value=1 - 1e-6))
    @settings(max_examples=60, deadline=None)
    def test_reflection_identity(self, z):
        assert transition_tau(z) + transition_tau(1 - z) == pytest.approx(1.0, abs=1e-12)

    def test_monotone(self):
        zs = np.linspace(-0.5, 1.5, 401)
        vals = transition_tau(zs)
        assert np.all(np.diff(vals) >= 0)

    def test_continuity_at_edges(self):
        assert transition_tau(1e-4) <= 1e-9
        assert transition_tau(1 - 1e-4) >= 1 - 1e-9


class TestClampMu:
    def test_frozen_points(self):
        assert clamp_mu(1e-3, 1e-3) == 1e-3
        assert clamp_mu(0.0, 1e-3) == pytest.approx(5e-4)
        assert clamp_mu(2e-3, 1e-3) == 2e-3

    @given(st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=80, deadline=None)
    def test_floor_and_identity(self, u):
        u_min = 0.25
        mu = clamp_mu(u, u_min)
        assert mu >= 0.5 * u_min - 1e-15
        if u >= u_min:
            assert mu == u  # identity branch, bit exact


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
        init = SdeState(np.concatenate([np.zeros(2), u0]))
        dt, t_end = 1e-4, 0.5
        fns = TestFunctionSet.from_names(["u_0", "u_1"], dim=2)
        rec = euler_maruyama(system, init, t_end, dt, np.random.default_rng(0), fns, [t_end])
        expected = self.diag + (u0 - self.diag) * math.exp(-c2 * t_end)
        got = np.array([rec.values["u_0"][0, 0], rec.values["u_1"][0, 0]])
        np.testing.assert_allclose(got, expected, atol=5 * dt)

    def test_zero_covariance_pure_decay(self):
        cov = IsotropicCovariance(0.0)
        system = build_rmsprop_sde(self.problem, cov, sigma0=1.0, epsilon0=0.1, c2=2.0)
        u0 = np.array([1.0, 1.0])
        init = SdeState(np.concatenate([np.ones(2), u0]))
        fns = TestFunctionSet.from_names(["u_0"], dim=2)
        rec = euler_maruyama(system, init, 0.3, 1e-4, np.random.default_rng(0), fns, [0.3])
        assert rec.values["u_0"][0, 0] == pytest.approx(math.exp(-2.0 * 0.3), abs=1e-3)

    def test_theta_diffusion_coefficient_cancels_sigma0(self):
        cov = IsotropicCovariance(1.0)
        system = build_rmsprop_sde(self.problem, cov, sigma0=0.7, epsilon0=0.0, c2=1.0)
        u = np.array([4.0, 0.25])
        x = np.concatenate([np.zeros(2), u])[None, :]
        dense = system.dense_diffusion(x, 0.0)[0]
        np.testing.assert_allclose(np.diag(dense[:2, :2]), 1.0 / np.sqrt(u))
        assert np.all(dense[2:, :] == 0.0)  # u rows carry no noise


BUILDERS = {
    "rmsprop": lambda p, cov: build_rmsprop_sde(p, cov, sigma0=0.5, epsilon0=0.2, c2=1.0),
    "adam": lambda p, cov: build_adam_sde(p, cov, sigma0=0.5, epsilon0=0.2, c1=1.0, c2=1.0),
    "sgd": lambda p, cov: build_sgd_sde(p, cov, eta=0.1),
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
        # apply_diffusion goes through CovarianceSpec.apply_sqrt; the dense
        # matrix is built from CovarianceSpec.sqrt per path
        system = BUILDERS[algo](LS_PROBLEM, COVARIANCES[cov_name])
        d, paths = LS_PROBLEM.dim, 4
        rng = np.random.default_rng(3)
        x = np.concatenate(
            [rng.standard_normal((paths, d)), rng.uniform(0.5, 2.0, (paths, system.state_dim - d))],
            axis=1,
        )
        dw = rng.standard_normal((paths, system.noise_dim))
        fast = system.apply_diffusion(x, 1.0, dw)
        dense = system.dense_diffusion(x, 1.0)
        assert dense.shape == (paths, system.state_dim, system.state_dim)
        for i in range(paths):
            np.testing.assert_allclose(fast[i], dense[i, :, :d] @ dw[i], rtol=1e-12, atol=1e-14)
            assert np.all(dense[i, :, d:] == 0.0)  # only d Wiener components drive the system


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
                self.system, SdeState(x[0], t=0.0), 0.1, 1e-3, np.random.default_rng(0),
                TestFunctionSet.from_names(["theta_0"], dim=2), [0.1],
            )

    def test_noise_enters_momentum_block_only(self):
        x = np.concatenate([np.zeros(2), np.zeros(2), np.ones(2)])[None, :]
        dense = self.system.dense_diffusion(x, t=1.0)[0]
        assert np.all(dense[:2, :] == 0.0)
        assert np.all(dense[4:, :] == 0.0)
        assert np.any(dense[2:4, :2] != 0.0)


class TestSgdSystem:
    def test_zero_covariance_gradient_flow(self):
        problem = QuadraticProblem(np.eye(1))
        system = build_sgd_sde(problem, IsotropicCovariance(0.0), eta=0.1)
        init = SdeState(np.array([1.0]))
        rec = euler_maruyama(system, init, 1.0, 1e-4, np.random.default_rng(0), COORD_FNS, [1.0])
        assert rec.values["theta_0"][0, 0] == pytest.approx(math.exp(-1.0), abs=1e-3)

    def test_ou_moments(self):
        problem = QuadraticProblem(np.eye(1))
        eta = 0.2
        system = build_sgd_sde(problem, IsotropicCovariance(1.0), eta=eta)
        init = SdeState(np.ones((4000, 1)) * 2.0)
        rec = euler_maruyama(system, init, 3.0, 2e-3, np.random.default_rng(1), COORD_FNS, [1.0, 3.0])
        vals = rec.values["theta_0"]
        assert vals[0].mean() == pytest.approx(2.0 * math.exp(-1.0), abs=4 * vals[0].std() / 63)
        # near stationarity the variance approaches eta/2
        assert vals[1].var() == pytest.approx(eta / 2, rel=0.15)

    def test_eta_scales_diffusion_sqrt(self):
        problem = QuadraticProblem(np.eye(1))
        x = np.zeros((1, 1))
        d1 = build_sgd_sde(problem, IsotropicCovariance(1.0), eta=0.1).dense_diffusion(x, 0.0)
        d2 = build_sgd_sde(problem, IsotropicCovariance(1.0), eta=0.2).dense_diffusion(x, 0.0)
        assert d2[0, 0, 0] / d1[0, 0, 0] == pytest.approx(math.sqrt(2.0))


class TestEulerMaruyama:
    def test_constant_path_without_dynamics(self):
        def zero(x, t):
            return np.zeros_like(x)

        system = SdeSystem(
            state_dim=1,
            noise_dim=1,
            drift=zero,
            apply_diffusion=lambda x, t, dw: np.zeros_like(x),
            dense_diffusion=lambda x, t: np.zeros(x.shape[:-1] + (1, 1)),
            blocks={"theta": slice(0, 1)},
            requires_positive_u=False,
        )
        init = SdeState(np.full((3, 1), 1.5))
        rec = euler_maruyama(system, init, 1.0, 0.01, np.random.default_rng(0), COORD_FNS, [0.5, 1.0])
        np.testing.assert_array_equal(rec.values["theta_0"], 1.5)

    def test_ou_mean_at_unit_time(self):
        system = ou_system()
        init = SdeState(np.ones((10_000, 1)))
        rec = euler_maruyama(system, init, 1.0, 1e-3, np.random.default_rng(2), COORD_FNS, [1.0])
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
        init = SdeState(np.ones((paths, 1)))
        means = {}
        for label, dt_k, noise in (("h", dt, coarse), ("h/2", dt / 2, mid), ("h/4", dt / 4, fine)):
            rec = euler_maruyama(system, init, t_end, dt_k, None, COORD_FNS, [t_end], noise=noise)
            vals = rec.values["theta_0"][0]
            means[label] = (vals.mean(), (vals**2).mean())
        for g in (0, 1):
            d1 = abs(means["h"][g] - means["h/2"][g])
            d2 = abs(means["h/2"][g] - means["h/4"][g])
            assert 1.6 <= d1 / d2 <= 2.5

    def test_checkpoints_snap_to_grid(self):
        system = ou_system()
        init = SdeState(np.ones((2, 1)))
        rec = euler_maruyama(system, init, 1.0, 0.1, np.random.default_rng(0), COORD_FNS, [0.5000001])
        assert rec.times[0] == pytest.approx(0.5)

    def test_u_zero_advises_auxiliary(self):
        problem = QuadraticProblem(np.diag([1.0]))
        cov = IsotropicCovariance(0.0)
        system = build_rmsprop_sde(problem, cov, sigma0=1.0, epsilon0=0.5, c2=50.0)
        init = SdeState(np.array([1.0, 1e-9]))
        fns = TestFunctionSet.from_names(["theta_0"], dim=1)
        with pytest.raises(ValueError, match="auxiliary"):
            euler_maruyama(system, init, 1.0, 0.05, np.random.default_rng(0), fns, [1.0])


class TestAuxiliarySystem:
    def test_clamped_equals_unclamped_when_u_stays_high(self):
        problem = QuadraticProblem(np.diag([1.0, 3.0]))
        cov = ConstantCovariance(np.diag([1.0, 0.7]))
        base = build_rmsprop_sde(problem, cov, sigma0=1.0, epsilon0=0.0, c2=1.0)
        clamped = build_auxiliary_sde(base, u_min=0.05)
        u0 = np.array([1.2, 0.9])
        init = SdeState(np.concatenate([np.ones(2), u0]))
        fns = TestFunctionSet.from_names(["theta_0", "theta_1", "u_0", "u_1"], dim=2)
        n_steps = int(round(1.0 / 1e-3))
        noise = np.random.default_rng(5).standard_normal((n_steps, 1, 2))
        recs = [
            euler_maruyama(s, init, 1.0, 1e-3, None, fns, [0.5, 1.0], noise=noise)
            for s in (base, clamped)
        ]
        for name in recs[0].names:
            np.testing.assert_allclose(recs[0].values[name], recs[1].values[name], rtol=0, atol=1e-12)

    def test_umin_to_zero_converges_to_identity(self):
        u = np.array([0.3, 0.05, 1.0])
        for u_min in (1e-4, 1e-8):
            np.testing.assert_allclose(clamp_mu(u, u_min), u, rtol=1e-6)

    def test_evaluation_at_zero_u_is_finite(self):
        problem = QuadraticProblem(np.diag([1.0]))
        cov = IsotropicCovariance(1.0)
        clamped = build_rmsprop_sde(problem, cov, sigma0=1.0, epsilon0=0.0, c2=1.0, u_min=0.1)
        x = np.array([[1.0, 0.0]])
        assert np.all(np.isfinite(clamped.drift(x, 0.0)))
        assert np.all(np.isfinite(clamped.dense_diffusion(x, 0.0)))

    def test_only_adaptive_systems(self):
        problem = QuadraticProblem(np.eye(1))
        sgd = build_sgd_sde(problem, IsotropicCovariance(1.0), eta=0.1)
        with pytest.raises(ValueError):
            build_auxiliary_sde(sgd, u_min=0.1)


class TestBiasCorrectionCurves:
    def test_gamma_series_for_small_argument(self):
        # 1 - exp(-x) agrees with its cubic Taylor series to 1e-12 for small x
        for x in (1e-5, 3e-5, 1e-4):
            series = x - x**2 / 2 + x**3 / 6
            assert abs((1 - math.exp(-x)) - series) < 1e-12

    def test_gamma_monotone_zero_to_one(self):
        ts = np.linspace(0.0, 50.0, 1000)
        for c in (0.5, 2.0):
            g = 1 - np.exp(-c * ts)
            assert g[0] == 0.0
            assert np.all(np.diff(g) >= 0)
            assert np.all(np.diff(g)[ts[1:] * c < 20] > 0)  # strict until float saturation
            assert g[-1] == pytest.approx(1.0, abs=1e-9)
