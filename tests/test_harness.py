"""Sweep harness: exact sweep figures, the sequenced oracle and the shared integrator checks."""
import numpy as np
import pytest

from adasde.harness import (
    ApproximationSetup,
    _SequencedGaussianOracle,
    order_sweep,
    svag_sweep,
    validate_scaling,
)
from adasde.moments import mc_sde_moments
from adasde.ngos import GaussianOracle
from adasde.optimizers import HyperParams
from adasde.problems import (
    ConstantCovariance,
    EmpiricalCovariance,
    IsotropicCovariance,
    LeastSquaresProblem,
    QuadraticProblem,
)
from adasde.scaling import make_plan
from adasde.sde import build_rmsprop_sde

FNS = ["theta_0", "loss"]
PROBLEM = QuadraticProblem(np.diag([1.0, 0.5]))
COV = ConstantCovariance(np.array([[1.0, 0.3], [0.3, 0.6]]))
ROOT_SEED = 7

# float.hex of every figure the tiny sweeps below report. A change that keeps
# the RNG streams must reproduce them bit for bit; one that moves a stream
# must record them again and say why.
GOLDEN = {
    'order/rmsprop': {
        'theta_0': {
            'slope': '-0x1.cf544b8ec9d2bp-3',
            'slope_se': '0x1.e789390d5dfd5p-1',
            'status': 'inconclusive',
            'max_gap': [
                '0x1.54f96db066480p-8',
                '0x1.1b82488245900p-9',
                '0x1.966fa33a6c000p-8',
            ],
            'se_at_max': [
                '0x1.3bafa7ef661a3p-8',
                '0x1.a9b7c08253551p-9',
                '0x1.304d8f7bb47adp-9',
            ],
        },
        'loss': {
            'slope': '0x1.1d1c1b0e71f8fp+0',
            'slope_se': '0x1.191d5952a08ddp+0',
            'status': 'inconclusive',
            'max_gap': [
                '0x1.c9b3c9b149a00p-8',
                '0x1.699b4ba82d600p-9',
                '0x1.ab728f4a45e00p-9',
            ],
            'se_at_max': [
                '0x1.d51b13d7e7bd8p-9',
                '0x1.457bc31974de7p-9',
                '0x1.12ff3abb66cb8p-9',
            ],
        },
    },
    'order/adam': {
        'theta_0': {
            'slope': '0x1.151cea8d7016ep-1',
            'slope_se': '0x1.0c26e5bcb7fa2p+0',
            'status': 'inconclusive',
            'max_gap': [
                '0x1.4f7555271d780p-8',
                '0x1.c838f84457300p-9',
                '0x1.cec99afdc9400p-9',
            ],
            'se_at_max': [
                '0x1.376ec83a727d8p-8',
                '0x1.acaeb89062644p-9',
                '0x1.74a79af6d7d2ep-9',
            ],
        },
        'loss': {
            'slope': '0x1.80f510fb6544ep+1',
            'slope_se': '0x1.1dbc42e666029p+0',
            'status': 'inconclusive',
            'max_gap': [
                '0x1.4cc859984a480p-7',
                '0x1.990511c410a00p-9',
                '0x1.4bc2881ce0800p-10',
            ],
            'se_at_max': [
                '0x1.69d73ccf2a85bp-8',
                '0x1.f5dc631822a6ep-9',
                '0x1.e3b3e79904e1fp-10',
            ],
        },
    },
    'order/sgd': {
        'theta_0': {
            'slope': '0x1.e9c059acf6a06p-2',
            'slope_se': '0x1.16b35d391135fp-2',
            'status': 'ok',
            'max_gap': [
                '0x1.1ae4ba3078c20p-6',
                '0x1.261b280cd3b60p-6',
                '0x1.947a0b40dc5c0p-7',
            ],
            'se_at_max': [
                '0x1.991afacfee54ap-9',
                '0x1.87077f4c969e1p-10',
                '0x1.3e01adaa77eebp-10',
            ],
        },
        'loss': {
            'slope': '0x1.368e069e2ea7fp-1',
            'slope_se': '0x1.f5d914bd8f7f3p-3',
            'status': 'ok',
            'max_gap': [
                '0x1.91e9384638180p-7',
                '0x1.6edbba9e653c0p-7',
                '0x1.075051c523040p-7',
            ],
            'se_at_max': [
                '0x1.0d36179f2d95fp-9',
                '0x1.09e9a7e693711p-10',
                '0x1.94e1a811490bdp-11',
            ],
        },
    },
    'svag/coupled=True': {
        'theta_0': {
            'pair_gaps': [
                '0x1.2b36c19239080p-7',
                '0x1.00c9c621f9c00p-9',
            ],
            'pair_se': [
                '0x1.8c60b042adbd2p-9',
                '0x1.7835154afb752p-10',
            ],
            'decay_slope': '0x1.1c3c912cbc99ap+0',
            'decay_slope_se': '0x1.e2fb39525b881p-2',
            'status': 'inconclusive',
        },
        'loss': {
            'pair_gaps': [
                '0x1.f2e65eb223200p-10',
                '0x1.30743268a5c00p-11',
            ],
            'pair_se': [
                '0x1.f35ef22af4bffp-10',
                '0x1.12a54bdbae536p-10',
            ],
            'decay_slope': '0x1.b668240ec7428p-1',
            'decay_slope_se': '0x1.2ff74e1a4b54ep-1',
            'status': 'inconclusive',
        },
    },
    'svag/coupled=False': {
        'theta_0': {
            'pair_gaps': [
                '0x1.27e04ad084b80p-4',
                '0x1.6889bf24f25a8p-3',
            ],
            'pair_se': [
                '0x1.55d7f20eae23fp-4',
                '0x1.7999fbad70627p-4',
            ],
            'decay_slope': '-0x1.49002189c198dp-1',
            'decay_slope_se': '0x1.079701a9304b7p-1',
            'status': 'inconclusive',
        },
        'loss': {
            'pair_gaps': [
                '0x1.276317fcf58e8p-4',
                '0x1.fdbd770977f00p-4',
            ],
            'pair_se': [
                '0x1.685ecc52a9c36p-4',
                '0x1.b0f256638014ep-4',
            ],
            'decay_slope': '-0x1.9305fe222cf3ap-2',
            'decay_slope_se': '0x1.17f85e334a946p-1',
            'status': 'inconclusive',
        },
    },
}


def _hex(x):
    return None if x is None else float(x).hex()


def _order_figures(report):
    return {
        name: {
            "slope": _hex(report.slopes[name]),
            "slope_se": _hex(report.slope_se[name]),
            "status": report.status[name],
            "max_gap": [_hex(r.max_gap[name]) for r in report.reports],
            "se_at_max": [_hex(r.se_at_max(name)) for r in report.reports],
        }
        for name in FNS
    }


def _svag_figures(report):
    return {
        name: {
            "pair_gaps": [_hex(g) for g in report.pair_gaps[name]],
            "pair_se": [_hex(s) for s in report.pair_se[name]],
            "decay_slope": _hex(report.decay_slope[name]),
            "decay_slope_se": _hex(report.decay_slope_se[name]),
            "status": report.status[name],
        }
        for name in FNS
    }


ORDER_EXTRA = {
    "rmsprop": dict(u0=np.ones(2)),
    "adam": dict(u0=np.ones(2), c1=1.0),
    "sgd": {},
}


class TestGoldenSweeps:
    @pytest.mark.parametrize("algo", list(ORDER_EXTRA))
    def test_order_sweep(self, algo):
        setup = ApproximationSetup(
            PROBLEM, COV, algo, theta0=np.ones(2), T=0.5, seeds=32, em_substeps=4,
            n_checkpoints=3, **ORDER_EXTRA[algo],
        )
        report = order_sweep(setup, (0.2, 0.14, 0.1), FNS, ROOT_SEED)
        assert _order_figures(report) == GOLDEN[f"order/{algo}"]

    @pytest.mark.parametrize("coupled", [True, False])
    def test_svag_sweep(self, coupled):
        setup = ApproximationSetup(
            PROBLEM, COV, "rmsprop", theta0=np.ones(2), u0=np.ones(2), T=0.4, seeds=64,
            n_checkpoints=3, coupled=coupled,
        )
        report = svag_sweep(setup, 0.2, (1, 2, 4), FNS, ROOT_SEED)
        assert _svag_figures(report) == GOLDEN[f"svag/coupled={coupled}"]


class TestSequencedGaussianOracle:
    @pytest.mark.parametrize("cov", [
        ConstantCovariance(np.array([[1.0, 0.3, 0.0], [0.3, 0.6, 0.1], [0.0, 0.1, 0.4]])),
        EmpiricalCovariance(),
    ], ids=["constant", "empirical"])
    def test_matches_gaussian_oracle_on_the_same_normals(self, cov):
        data = np.random.default_rng(1)
        problem = LeastSquaresProblem(data.standard_normal((8, 3)), data.standard_normal(8))
        thetas = [data.standard_normal((5, 3)) for _ in range(3)]
        draws = np.random.default_rng(11)
        queue = np.stack([draws.standard_normal((5, 3)) for _ in thetas])
        sequenced = _SequencedGaussianOracle(problem, cov, 0.7, queue)
        reference = GaussianOracle(problem, cov, 0.7)
        draws = np.random.default_rng(11)
        for theta in thetas:
            np.testing.assert_array_equal(sequenced.sample(theta, None), reference.sample(theta, draws))
        with pytest.raises(RuntimeError):
            sequenced.sample(thetas[0], None)


class TestMcSdeLoopChecks:
    def test_u_reaching_zero_is_reported(self):
        # zero noise covariance and c2 dt = 2 flip u from 1 to -1 in the first step
        system = build_rmsprop_sde(
            QuadraticProblem(np.eye(1)), IsotropicCovariance(0.0), sigma0=1.0, epsilon0=0.0, c2=2000.0
        )
        with pytest.raises(ValueError, match="u reached zero"):
            mc_sde_moments(system, [1.0, 1.0], 0.0, eta=0.1, samples=1000, dt=1e-3,
                           rng=np.random.default_rng(0))


class TestValidateScalingArguments:
    def _run(self, kappa, checkpoints):
        data = np.random.default_rng(2)
        problem = LeastSquaresProblem(data.standard_normal((8, 2)), data.standard_normal(8))
        plan = make_plan("sqrt-rmsprop", HyperParams(eta=0.05, beta=0.99), kappa)
        return validate_scaling(plan, problem, "rmsprop", FNS, base_steps=8, checkpoints=checkpoints,
                                seeds=10, root_seed=ROOT_SEED, batch_size=2)

    def test_empty_checkpoints_rejected(self):
        with pytest.raises(ValueError, match="at least one checkpoint"):
            self._run(2, [])

    @pytest.mark.parametrize("checkpoints", [[], [5]])
    def test_non_integer_kappa_rejected(self, checkpoints):
        with pytest.raises(ValueError, match="kappa must be an integer"):
            self._run(2.5, checkpoints)

    def test_valid_arguments_run(self):
        assert self._run(2, [4, 8]).times.size == 2


class TestValidateScalingDeterministicCheckpoints:
    """Step 0 (and any noiseless run) has zero SE in both runs: z is 0 or +-inf, never NaN."""

    def test_step_zero_checkpoint_scores_zero(self):
        data = np.random.default_rng(2)
        problem = LeastSquaresProblem(data.standard_normal((8, 2)), data.standard_normal(8))
        plan = make_plan("sqrt-rmsprop", HyperParams(eta=0.05, beta=0.99), 2)
        report = validate_scaling(plan, problem, "rmsprop", FNS, base_steps=40,
                                  checkpoints=(0, 20, 40), seeds=10, root_seed=ROOT_SEED, batch_size=2)
        for name in FNS:
            assert report.z_scores[name][0] == 0.0
            assert np.all(np.isfinite(report.z_scores[name]))
        assert np.isfinite(report.max_abs_z)
        assert report.passed

    def test_noiseless_disagreement_is_infinite(self):
        # zero noise and two seeds: every mean is exact and every SE exactly 0
        plan = make_plan("sqrt-rmsprop", HyperParams(eta=0.05, beta=0.99), 2)
        report = validate_scaling(plan, PROBLEM, "rmsprop", FNS, base_steps=8, checkpoints=(0, 4, 8),
                                  seeds=2, root_seed=ROOT_SEED, sigma=1.0,
                                  cov=IsotropicCovariance(0.0), theta0=[1.0, -0.5])
        for name in FNS:
            z = report.z_scores[name]
            diff = report.base_mean[name] - report.scaled_mean[name]
            assert z[0] == 0.0 and diff[0] == 0.0
            assert np.all(np.isinf(z[1:])) and np.all(np.sign(z[1:]) == np.sign(diff[1:]))
        assert report.max_abs_z == np.inf
        assert not report.passed
