"""Sweep harness: exact sweep figures, the sequenced oracle and the argument checks."""
import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from adasde import harness, optimizers
from adasde.harness import (
    ApproximationSetup,
    _SequencedGaussianOracle,
    compare_at_eta,
    linear_warmup_check,
    order_sweep,
    svag_sweep,
    validate_scaling,
    weak_error,
)
from adasde.ngos import GaussianOracle
from adasde.optimizers import HyperParams
from adasde.problems import (
    ConstantCovariance,
    EmpiricalCovariance,
    IsotropicCovariance,
    LeastSquaresProblem,
    QuadraticProblem,
)
from adasde.recording import NonFiniteError, StateView, TrajectoryRecord
from adasde.scaling import make_plan
from adasde.stats import fit_loglog_slope

FNS = ["theta_0", "loss"]
PROBLEM = QuadraticProblem(np.diag([1.0, 0.5]))
COV = ConstantCovariance(np.array([[1.0, 0.3], [0.3, 0.6]]))
_LS_DATA = np.random.default_rng(11)
LS_PROBLEM = LeastSquaresProblem(_LS_DATA.standard_normal((16, 2)), _LS_DATA.standard_normal(16))
ROOT_SEED = 7

# float.hex of every figure the tiny sweeps below report (GOLDEN_RUNS). A
# change that keeps the RNG streams must reproduce them bit for bit; one that
# moves a stream must record them again and say why:
# `PYTHONPATH=src python tests/test_harness.py` prints them in this format.
GOLDEN = {
    'order/rmsprop': {
        'theta_0': {
            'slope': '0x1.284a67f2991fap+1',
            'slope_se': '0x1.2f524cb8a03b3p+0',
            'status': 'inconclusive',
            'max_gap': [
                '0x1.a6bb4759baf80p-8',
                '0x1.efa0e74937d80p-8',
                '0x1.4d5d0d0982a00p-10',
            ],
            'se_at_max': [
                '0x1.a0c2014d580c7p-9',
                '0x1.b7971c569efadp-9',
                '0x1.8741732fbfe2dp-9',
            ],
        },
        'loss': {
            'slope': '0x1.95adfc6eeb46cp+0',
            'slope_se': '0x1.3fdeec24d68ffp+0',
            'status': 'inconclusive',
            'max_gap': [
                '0x1.bdc2f3aec7080p-8',
                '0x1.3061c7846db00p-9',
                '0x1.2c379e97af600p-9',
            ],
            'se_at_max': [
                '0x1.44bcf1439204cp-8',
                '0x1.09a4a99f5101dp-9',
                '0x1.8ca862a96e991p-9',
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
            'slope': '0x1.4d82620816ea1p+0',
            'slope_se': '0x1.a069424d18166p-3',
            'status': 'ok',
            'max_gap': [
                '0x1.e48c1708746e0p-6',
                '0x1.d094eff1d1540p-7',
                '0x1.8ae9125feefc0p-7',
            ],
            'se_at_max': [
                '0x1.991afacfee54ap-9',
                '0x1.87077f4c969e5p-10',
                '0x1.3e01adaa77ecbp-10',
            ],
        },
        'loss': {
            'slope': '0x1.38dc5fd9b2b3dp+0',
            'slope_se': '0x1.ad01abb4bde10p-3',
            'status': 'ok',
            'max_gap': [
                '0x1.23e0b6dd0fcf0p-6',
                '0x1.5bc3d358b2980p-7',
                '0x1.f543f22bf64c0p-8',
            ],
            'se_at_max': [
                '0x1.edea7153ead99p-10',
                '0x1.e04eb92da9147p-11',
                '0x1.74da81cec70aep-11',
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
    'order/rmsprop/coupled=False': {
        'theta_0': {
            'slope': '-0x1.284900794359dp-1',
            'slope_se': '0x1.13634d84f9583p+0',
            'status': 'inconclusive',
            'max_gap': [
                '0x1.2152e939a122cp-3',
                '0x1.44a14fd09fa80p-5',
                '0x1.bccfb8b1ba2e0p-3',
            ],
            'se_at_max': [
                '0x1.0722e43fa9eaap-3',
                '0x1.25cb41bd90420p-5',
                '0x1.60948f500df36p-4',
            ],
        },
        'loss': {
            'slope': '-0x1.2143e059c7da7p-2',
            'slope_se': '0x1.e3180419e680bp-1',
            'status': 'inconclusive',
            'max_gap': [
                '0x1.11fef3673463cp-3',
                '0x1.1a2bdf69acfc8p-4',
                '0x1.524b7b496f930p-3',
            ],
            'se_at_max': [
                '0x1.063f44f90022fp-3',
                '0x1.5cb4d0f2b91dep-5',
                '0x1.533fcbea6f6bcp-4',
            ],
        },
    },
    'order/adam/coupled=False': {
        'theta_0': {
            'slope': '0x1.61391b8e747a5p+1',
            'slope_se': '0x1.72125612939b8p+0',
            'status': 'inconclusive',
            'max_gap': [
                '0x1.451b4945f60f8p-4',
                '0x1.40317a44fa228p-3',
                '0x1.73be25025e640p-7',
            ],
            'se_at_max': [
                '0x1.719506bde288dp-5',
                '0x1.27918ee03195cp-4',
                '0x1.5ba1c6397a175p-5',
            ],
        },
        'loss': {
            'slope': '0x1.03bd5520dcf54p+0',
            'slope_se': '0x1.530400be8f6c4p+0',
            'status': 'inconclusive',
            'max_gap': [
                '0x1.570e3cc2efe88p-4',
                '0x1.625633bfad7bcp-3',
                '0x1.4c6e3a9993e00p-5',
            ],
            'se_at_max': [
                '0x1.9b63b3a22dfb5p-5',
                '0x1.35f9b35885d29p-4',
                '0x1.4ec0578fe7b25p-5',
            ],
        },
    },
    'order/sgd/coupled=False': {
        'theta_0': {
            'slope': '0x1.0ae919d8d3413p-2',
            'slope_se': '0x1.4406896433388p+0',
            'status': 'inconclusive',
            'max_gap': [
                '0x1.2a87a88bd3d00p-5',
                '0x1.30e13729a97f8p-4',
                '0x1.ea8a4f57a9820p-6',
            ],
            'se_at_max': [
                '0x1.9a7aa7486e8d1p-5',
                '0x1.d2680d9a5588cp-5',
                '0x1.0a8ad1284b242p-5',
            ],
        },
        'loss': {
            'slope': '0x1.7062171cdf035p-2',
            'slope_se': '0x1.39c286df2ecedp+0',
            'status': 'inconclusive',
            'max_gap': [
                '0x1.6e37ddfd6e150p-5',
                '0x1.8a300a0b72bc0p-5',
                '0x1.1c43f45f93b90p-5',
            ],
            'se_at_max': [
                '0x1.8b7a74b18a60bp-5',
                '0x1.55c668616caa9p-5',
                '0x1.1e1b2590053e9p-5',
            ],
        },
    },
    'order/rmsprop/empirical': {
        'theta_0': {
            'slope': '-0x1.10e1ed08afe4bp-1',
            'slope_se': '0x1.0ceb1c8f1061bp+0',
            'status': 'inconclusive',
            'max_gap': [
                '0x1.46fdd9ce53420p-8',
                '0x1.acd2db66f4740p-9',
                '0x1.ded80b75fcdf0p-8',
            ],
            'se_at_max': [
                '0x1.2f78164b3ec9fp-7',
                '0x1.34fd951b49c75p-8',
                '0x1.31ffa184993e5p-8',
            ],
        },
        'loss': {
            'slope': '0x1.ce436836ef03dp+0',
            'slope_se': '0x1.07a107fceead0p+0',
            'status': 'inconclusive',
            'max_gap': [
                '0x1.0ec8b3cc84840p-6',
                '0x1.8f97ac3da2440p-8',
                '0x1.37f927edf3bc0p-8',
            ],
            'se_at_max': [
                '0x1.e88bba7ee36cfp-8',
                '0x1.3a3382c87d3bcp-8',
                '0x1.17c61fc6715ebp-8',
            ],
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


def _order_run(algo, coupled=True):
    setup = ApproximationSetup(
        PROBLEM, COV, algo, theta0=np.ones(2), T=0.5, seeds=32, em_substeps=4,
        n_checkpoints=3, coupled=coupled, **ORDER_EXTRA[algo],
    )
    return _order_figures(order_sweep(setup, (0.2, 0.14, 0.1), FNS, ROOT_SEED))


def _empirical_order_run():
    # state-dependent noise: the covariance is rebuilt at every substep's state
    setup = ApproximationSetup(
        LS_PROBLEM, EmpiricalCovariance(), "rmsprop", theta0=np.zeros(2), u0=np.ones(2),
        T=0.5, seeds=32, em_substeps=4, n_checkpoints=3,
    )
    return _order_figures(order_sweep(setup, (0.2, 0.14, 0.1), FNS, ROOT_SEED))


def _svag_run(coupled):
    setup = ApproximationSetup(
        PROBLEM, COV, "rmsprop", theta0=np.ones(2), u0=np.ones(2), T=0.4, seeds=64,
        n_checkpoints=3, coupled=coupled,
    )
    return _svag_figures(svag_sweep(setup, 0.2, (1, 2, 4), FNS, ROOT_SEED))


# each GOLDEN entry's sweep, returning its figures
GOLDEN_RUNS = {
    **{f"order/{algo}": lambda algo=algo: _order_run(algo) for algo in ORDER_EXTRA},
    # the uncoupled discrete run draws its own noise after the integrator's
    **{f"order/{algo}/coupled=False": lambda algo=algo: _order_run(algo, False) for algo in ORDER_EXTRA},
    "order/rmsprop/empirical": _empirical_order_run,
    **{f"svag/coupled={c}": lambda c=c: _svag_run(c) for c in (True, False)},
}


def _literal(value, indent=0):
    """``value`` (dicts, lists and strings) written out as GOLDEN is."""
    pad = " " * (indent + 4)
    if isinstance(value, dict):
        items = [f"{pad}{k!r}: {_literal(v, indent + 4)},\n" for k, v in value.items()]
    elif isinstance(value, list):
        items = [f"{pad}{_literal(v, indent + 4)},\n" for v in value]
    else:
        return repr(value)
    brackets = "{}" if isinstance(value, dict) else "[]"
    return brackets[0] + "\n" + "".join(items) + " " * indent + brackets[1]


class TestGoldenSweeps:
    @pytest.mark.parametrize("algo", list(ORDER_EXTRA))
    def test_order_sweep(self, algo):
        assert GOLDEN_RUNS[f"order/{algo}"]() == GOLDEN[f"order/{algo}"]

    @pytest.mark.parametrize("algo", list(ORDER_EXTRA))
    def test_uncoupled_order_sweep(self, algo):
        key = f"order/{algo}/coupled=False"
        assert GOLDEN_RUNS[key]() == GOLDEN[key]

    def test_empirical_order_sweep(self):
        assert GOLDEN_RUNS["order/rmsprop/empirical"]() == GOLDEN["order/rmsprop/empirical"]

    @pytest.mark.parametrize("coupled", [True, False])
    def test_svag_sweep(self, coupled):
        assert GOLDEN_RUNS[f"svag/coupled={coupled}"]() == GOLDEN[f"svag/coupled={coupled}"]

    def test_printed_figures_are_the_literal_above(self):
        # re-recording GOLDEN pastes the printout over the literal, so a
        # diff shows only the figures that moved
        assert f"\nGOLDEN = {_literal(GOLDEN)}\n" in Path(__file__).read_text()


class TestCellStreams:
    @pytest.mark.parametrize("algo", ["rmsprop", "adam"])
    def test_order_cells_do_not_depend_on_the_other_etas(self, algo):
        # derive_rng keys a cell by its label, so adding eta = 0.07 to the
        # sweep leaves the other cells' figures unchanged bit for bit
        setup = ApproximationSetup(
            PROBLEM, COV, algo, theta0=np.ones(2), T=0.5, seeds=32, em_substeps=4,
            n_checkpoints=3, **ORDER_EXTRA[algo],
        )
        three = order_sweep(setup, (0.2, 0.14, 0.1), FNS, ROOT_SEED)
        four = order_sweep(setup, (0.2, 0.14, 0.1, 0.07), FNS, ROOT_SEED)
        assert four.etas[:3] == three.etas
        for a, b in zip(three.reports, four.reports):
            for name in FNS:
                np.testing.assert_array_equal(a.gaps[name], b.gaps[name])
                np.testing.assert_array_equal(a.paired_se[name], b.paired_se[name])
                np.testing.assert_array_equal(a.discrete.values[name], b.discrete.values[name])
                np.testing.assert_array_equal(a.continuous.values[name], b.continuous.values[name])


def negate_diffusion(monkeypatch):
    """Make every system the harness builds drive its noise with the opposite sign."""
    build = harness._build_system

    def negated(setup, eta):
        system = build(setup, eta)
        diffusion = system.apply_diffusion
        return dataclasses.replace(system, apply_diffusion=lambda x, t, dw: -diffusion(x, t, dw))

    monkeypatch.setattr(harness, "_build_system", negated)


class TestCouplingInvariant:
    """Coupling leaves the gap unbiased and shrinks only its paired SE.

    The two gaps of a cell agree within 4 combined SE whether or not the
    discrete run rides the integrator's Brownian path, so their agreement
    cannot see a negated diffusion: the paired SE can. With the
    right sign it is at most 0.063 of the combined SE at t = T (400 seeds,
    eta = 0.2, 4 substeps); with the diffusion negated the discrete and
    continuous noise anti-correlate and the ratio is 0.68 to 1.41.
    """

    RATIO_BOUND = 0.2

    @staticmethod
    def _reports(algo, em_substeps=4):
        reports = {}
        for coupled in (True, False):
            setup = ApproximationSetup(
                PROBLEM, COV, algo, theta0=np.ones(2), T=0.5, seeds=400, em_substeps=em_substeps,
                coupled=coupled, **ORDER_EXTRA[algo],
            )
            reports[coupled] = compare_at_eta(setup, 0.2, FNS, ROOT_SEED)
        return reports[True], reports[False]

    @staticmethod
    def _last_ratio(report, name):
        return report.paired_se[name][-1] / report.combined_se[name][-1]

    # at one substep the integrator and the discrete run read the same blocks
    # of the shared path, one after the other
    @pytest.mark.parametrize("em_substeps", [4, 1])
    @pytest.mark.parametrize("algo", list(ORDER_EXTRA))
    def test_coupling_shrinks_the_paired_se_and_keeps_the_gap(self, algo, em_substeps):
        coupled, uncoupled = self._reports(algo, em_substeps)
        for name in FNS:
            se = np.hypot(coupled.combined_se[name], uncoupled.combined_se[name])
            assert np.all(np.abs(coupled.gaps[name] - uncoupled.gaps[name]) <= 4.0 * se)
            assert self._last_ratio(coupled, name) <= self.RATIO_BOUND

    @pytest.mark.parametrize("algo", list(ORDER_EXTRA))
    def test_negated_diffusion_fails_the_ratio_bound(self, algo, monkeypatch):
        negate_diffusion(monkeypatch)
        coupled, _ = self._reports(algo)
        for name in FNS:
            assert self._last_ratio(coupled, name) > 2.0 * self.RATIO_BOUND


class TestSgdPathwiseIdentity:
    """At one substep, coupled SGD and its integrator take the same step.

    Both step theta - eta (grad f + L w) on the same block w: the discrete
    run as eta sigma L w with sigma = 1, the integrator as -sqrt(eta) L
    (sqrt(eta) w). So every seed agrees at every checkpoint up to rounding,
    which pins the diffusion's sign, the window's normalization and the
    draw order exactly, where the ratio bound above checks them only
    statistically.
    """

    BOUND = 1e-12

    @staticmethod
    def _worst(problem, cov, theta0):
        setup = ApproximationSetup(
            problem, cov, "sgd", theta0=theta0, T=0.5, seeds=32, em_substeps=1, n_checkpoints=5,
        )
        report = compare_at_eta(setup, 0.1, FNS, ROOT_SEED)
        return {
            name: np.max(np.abs(report.discrete.values[name] - report.continuous.values[name]))
            for name in FNS
        }

    CASES = {
        "constant": (PROBLEM, COV, np.ones(2)),
        "empirical": (LS_PROBLEM, EmpiricalCovariance(), np.zeros(2)),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_discrete_and_integrated_runs_agree_seed_by_seed(self, case):
        for name, worst in self._worst(*self.CASES[case]).items():
            assert worst <= self.BOUND, name

    @pytest.mark.parametrize("case", list(CASES))
    def test_negated_diffusion_breaks_the_identity(self, case, monkeypatch):
        negate_diffusion(monkeypatch)
        for name, worst in self._worst(*self.CASES[case]).items():
            assert worst > 1e3 * self.BOUND, name


class TestSharedPath:
    """The one coupling mechanism: each rider steps on the normalized sum of its window."""

    def test_riders_read_the_normalized_sums_of_the_blocks_the_driver_saw(self):
        shape, n_blocks = (3, 2), 8
        read = {1: [], 4: []}

        def rider(window):
            oracle = _SequencedGaussianOracle(PROBLEM, COV, 1.0)

            def loop():
                while True:
                    read[window].append(oracle._standard_normal(shape, None))
                    yield

            return loop(), window, oracle

        riders = [rider(1), rider(4)]
        seen = np.stack(list(harness._shared_path(np.random.default_rng(3), n_blocks, shape, riders)))
        for _, window, _ in riders:
            assert len(read[window]) == n_blocks // window
            for i, got in enumerate(read[window]):
                window_blocks = seen[i * window : (i + 1) * window]
                np.testing.assert_array_equal(got, window_blocks.sum(axis=0) / math.sqrt(window))

    @pytest.mark.parametrize("error", [NonFiniteError, ValueError])
    def test_an_error_in_a_riding_run_reaches_the_caller_as_raised(self, error, monkeypatch):
        # the discrete run steps inside the path's generator; its error must
        # not turn into a generator's RuntimeError or an exhausted oracle
        rmsprop_step = optimizers.step_function("rmsprop")

        def failing_step(state, g, hp):
            nxt = rmsprop_step(state, g, hp)
            if nxt.k < 3:
                return nxt
            if error is ValueError:
                raise ValueError("the step cannot run")
            return dataclasses.replace(nxt, theta=np.full_like(nxt.theta, np.nan))

        monkeypatch.setitem(optimizers._STEPS, "rmsprop", failing_step)
        setup = ApproximationSetup(
            PROBLEM, COV, "rmsprop", theta0=np.ones(2), u0=np.ones(2), T=0.5, seeds=8,
            em_substeps=4, n_checkpoints=3,
        )
        with pytest.raises(error) as raised:
            compare_at_eta(setup, 0.2, FNS, ROOT_SEED)
        assert type(raised.value) is error
        if error is NonFiniteError:
            assert raised.value.step == 3
        else:
            assert str(raised.value) == "the step cannot run"


class TestNoiseMemory:
    """The coupled runs hold a step's noise at a time, never a whole path of it.

    numpy reports its buffers to tracemalloc, so the traced peak counts every
    array a sweep allocates. Each case is sized so the whole noise path is
    about 16 MB; holding it at any point would break the half-size bound.
    """

    @staticmethod
    def _peak_bytes(run):
        """Traced peak during run() above what stays allocated after it.

        What stays (modules numpy imports lazily on a first call) is not
        working memory of the run, and would make the figure depend on which
        test ran first.
        """
        tracemalloc.start()
        try:
            run()
            retained, peak = tracemalloc.get_traced_memory()
            return peak - retained
        finally:
            tracemalloc.stop()

    def test_svag_sweep_peaks_below_half_the_fine_path(self):
        setup = ApproximationSetup(
            PROBLEM, COV, "rmsprop", theta0=np.ones(2), u0=np.ones(2), T=1.0, seeds=2500,
            n_checkpoints=3,
        )
        eta, ells = 0.2, (1, 2, 4)
        base_steps = math.floor(setup.T / eta**2 + 1e-9)
        fine_path_bytes = base_steps * ells[-1] ** 2 * setup.seeds * PROBLEM.dim * 8
        assert fine_path_bytes == 16_000_000
        peak = self._peak_bytes(lambda: svag_sweep(setup, eta, ells, FNS, ROOT_SEED))
        assert peak < fine_path_bytes / 2

    def test_svag_sweep_peak_does_not_grow_with_the_horizon(self):
        # the runs advance in lockstep, so no run's noise outlives one fine
        # step and quadrupling the horizon must leave the peak where it was
        def peak(T):
            setup = ApproximationSetup(
                PROBLEM, COV, "rmsprop", theta0=np.ones(2), u0=np.ones(2), T=T, seeds=2500,
                n_checkpoints=3,
            )
            return self._peak_bytes(lambda: svag_sweep(setup, 0.2, (1, 2, 4), FNS, ROOT_SEED))

        short, long = peak(0.4), peak(1.6)
        assert long < 1.1 * short

    def test_compare_at_eta_peaks_below_half_its_em_noise(self):
        setup = ApproximationSetup(
            PROBLEM, COV, "rmsprop", theta0=np.ones(2), u0=np.ones(2), T=0.5, seeds=1000,
            em_substeps=20, n_checkpoints=3,
        )
        eta = 0.1
        n_steps = math.floor(setup.T / eta**2 + 1e-9)
        em_noise_bytes = n_steps * setup.em_substeps * setup.seeds * PROBLEM.dim * 8
        assert em_noise_bytes == 16_000_000
        peak = self._peak_bytes(lambda: compare_at_eta(setup, eta, FNS, ROOT_SEED))
        assert peak < em_noise_bytes / 2

    @pytest.mark.parametrize("algo", ["rmsprop", "adam"])
    def test_compare_at_eta_peak_does_not_grow_with_the_horizon(self, algo):
        # the discrete run rides the integrator's path, so no step's sum of
        # it outlives that step and quadrupling the horizon must leave the
        # peak where it was (holding the sums read 2.8 times the short peak)
        def peak(T):
            setup = ApproximationSetup(
                PROBLEM, COV, algo, theta0=np.ones(2), T=T, seeds=2500, em_substeps=4,
                n_checkpoints=3, **ORDER_EXTRA[algo],
            )
            return self._peak_bytes(lambda: compare_at_eta(setup, 0.1, FNS, ROOT_SEED))

        short, long = peak(0.4), peak(1.6)
        assert long < 1.1 * short


def _chunk_major_boot_gaps(x, reports, name, rng, n_boot):
    """The bootstrap's worst gaps per chunk, gathered chunk-major and reduced over the seed axis."""
    n = reports[0].discrete.seed_count
    out = []
    for start in range(0, n_boot, harness._BOOT_CHUNK):
        chunk = min(harness._BOOT_CHUNK, n_boot - start)
        idx = rng.integers(0, n, size=(chunk, len(reports), n))
        boot_gaps = np.empty((len(reports), chunk))
        for r, rep in enumerate(reports):
            dmean = np.take(rep.discrete.values[name].T, idx[:, r], axis=0).mean(axis=1)
            smean = np.take(rep.continuous.values[name].T, idx[:, r], axis=0).mean(axis=1)
            boot_gaps[r] = np.maximum(np.abs(dmean - smean).max(axis=1), 1e-300)
        out.append(boot_gaps)
    return out


class TestBootstrapLayout:
    """The seed-major bootstrap equals a chunk-major one bit for bit, at bench sizes."""

    @pytest.mark.parametrize("seeds, n_reports, n_boot", [(200, 4, 200), (2000, 3, 120)])
    def test_equals_the_chunk_major_reference(self, seeds, n_reports, n_boot, monkeypatch):
        data = np.random.default_rng(31)
        times = np.arange(1.0, 6.0)
        reports = []
        for r in range(n_reports):
            values = data.standard_normal((2, times.size, seeds)) * 10.0 ** data.uniform(-3, 1, (2, 1, 1))
            reports.append(weak_error(
                TrajectoryRecord(times, {"f": values[0]}),
                TrajectoryRecord(times, {"f": values[1] + 0.1 * (r + 1)}),
            ))
        x = 0.2 / np.sqrt(2.0) ** np.arange(n_reports)
        fitted = []

        def recorded(x, y):
            if np.ndim(y) == 2:
                fitted.append(np.array(y))
            return fit_loglog_slope(x, y)

        monkeypatch.setattr(harness, "fit_loglog_slope", recorded)
        *_, slope_se, _ = harness._fit_gap_decay(x, reports, "f", np.random.default_rng(7), n_boot)
        want = _chunk_major_boot_gaps(x, reports, "f", np.random.default_rng(7), n_boot)
        assert len(fitted) == len(want) == -(-n_boot // harness._BOOT_CHUNK)
        for got, expected in zip(fitted, want):
            np.testing.assert_array_equal(got, expected)
        boots = np.concatenate([fit_loglog_slope(x, y) for y in want])
        assert slope_se == float(np.std(boots, ddof=1))


# A value away from the default for every constant a setup may read.
AWAY_FROM_DEFAULT = {"sigma0": 2.0, "epsilon0": 0.1, "c1": 1.0, "c2": 3.0, "u0": np.ones(2)}
# SGD reads none of these constants, RMSprop all but c1; Adam reads all five.
UNREAD = [
    ("sgd", "sigma0"), ("sgd", "epsilon0"), ("sgd", "c1"), ("sgd", "c2"), ("sgd", "u0"),
    ("rmsprop", "c1"),
]
UNSET = [("rmsprop", "u0"), ("adam", "u0"), ("adam", "c1")]


class TestSweepArguments:
    @pytest.mark.parametrize("ells", [(1,), (1, 2)])
    def test_svag_rejects_fewer_than_three_ells_before_any_run(self, ells, monkeypatch):
        # the decay fit needs two consecutive pairs; check that before paying for a run
        def no_run(*args, **kwargs):
            raise AssertionError("a cell ran before the ell values were checked")

        monkeypatch.setattr(harness, "discrete_loop", no_run)
        setup = ApproximationSetup(
            PROBLEM, COV, "rmsprop", theta0=np.ones(2), u0=np.ones(2), T=0.4, seeds=8,
            n_checkpoints=3,
        )
        with pytest.raises(ValueError, match="at least 3 ell values"):
            svag_sweep(setup, 0.2, ells, FNS, ROOT_SEED)

    @pytest.mark.parametrize("algo", ["rmsprop", "adam"])
    def test_empty_test_function_list_rejected_before_any_run(self, algo, monkeypatch):
        # an empty list used to run every cell, then fail in weak_error with a bare StopIteration
        def no_run(*args, **kwargs):
            raise AssertionError("a run started before the test functions were checked")

        for name in ("euler_maruyama", "run_discrete", "adam_step", "discrete_loop"):
            monkeypatch.setattr(harness, name, no_run)
        setup = ApproximationSetup(
            PROBLEM, COV, algo, theta0=np.ones(2), T=0.4, seeds=8, n_checkpoints=3,
            **ORDER_EXTRA[algo],
        )
        with pytest.raises(ValueError, match="test function"):
            order_sweep(setup, (0.2, 0.14, 0.1), [], ROOT_SEED)
        with pytest.raises(ValueError, match="test function"):
            svag_sweep(setup, 0.2, (1, 2, 4), [], ROOT_SEED)

    @pytest.mark.parametrize("sweep", [
        lambda setup: compare_at_eta(setup, 0.0, FNS, ROOT_SEED),
        lambda setup: svag_sweep(setup, 0.0, (1, 2, 4), FNS, ROOT_SEED),
    ], ids=["compare_at_eta", "svag_sweep"])
    def test_zero_eta_rejected_before_any_run(self, sweep, monkeypatch):
        # the constant map divided sigma0 and epsilon0 by eta: a ZeroDivisionError
        def no_run(*args, **kwargs):
            raise AssertionError("a run started before eta was checked")

        for name in ("euler_maruyama", "run_discrete", "discrete_loop"):
            monkeypatch.setattr(harness, name, no_run)
        setup = ApproximationSetup(
            PROBLEM, COV, "rmsprop", theta0=np.ones(2), u0=np.ones(2), T=0.4, seeds=8,
            n_checkpoints=3, epsilon0=0.1,
        )
        with pytest.raises(ValueError, match="eta must be positive"):
            sweep(setup)

    def test_order_sweep_rejects_a_zero_eta_before_any_run(self, monkeypatch):
        # its ratio check divided by the smallest eta
        def no_run(*args, **kwargs):
            raise AssertionError("a run started before the eta values were checked")

        monkeypatch.setattr(harness, "compare_at_eta", no_run)
        setup = ApproximationSetup(PROBLEM, COV, "rmsprop", theta0=np.ones(2), u0=np.ones(2))
        with pytest.raises(ValueError, match="eta values must be positive"):
            order_sweep(setup, (0.2, 0.1, 0.0), FNS, ROOT_SEED)

    @pytest.mark.parametrize("sweep", [
        lambda setup: compare_at_eta(setup, 0.2, FNS, ROOT_SEED),
        lambda setup: svag_sweep(setup, 0.2, (1, 2, 4), FNS, ROOT_SEED),
    ], ids=["compare_at_eta", "svag_sweep"])
    def test_horizon_shorter_than_one_step_rejected_before_any_run(self, sweep, monkeypatch):
        # at T < eta^2 no step fits; say so, naming T and eta^2, before building a run
        def no_run(*args, **kwargs):
            raise AssertionError("a run started before the horizon was checked")

        for name in ("euler_maruyama", "run_discrete", "discrete_loop"):
            monkeypatch.setattr(harness, name, no_run)
        setup = ApproximationSetup(
            PROBLEM, COV, "rmsprop", theta0=np.ones(2), u0=np.ones(2), T=0.01, seeds=8,
            n_checkpoints=3,
        )
        with pytest.raises(ValueError, match=r"T=0\.01 is shorter than one rmsprop step: at "
                                             r"eta=0\.2 each step advances t by 0\.04"):
            sweep(setup)

    @pytest.mark.parametrize("algo, eta, T, steps", [
        ("rmsprop", 0.2, 0.04, 1), ("adam", 0.2, 0.04, 1), ("sgd", 0.1, 0.3, 3),
    ])
    def test_horizon_of_whole_steps_holds_them_all(self, algo, eta, T, steps):
        # T / dt_e lands a hair under the step count in floating point
        # (0.04 / 0.2**2 = 0.9999999999999998, 0.3 / 0.1 = 2.9999999999999996),
        # which a bare floor would cut by one step
        setup = ApproximationSetup(PROBLEM, COV, algo, theta0=np.ones(2), T=T, **ORDER_EXTRA[algo])
        assert harness._horizon_steps(setup, eta) == steps

    def test_svag_rejects_repeated_ell(self):
        # a repeated ell pairs a run with itself: a zero gap and a meaningless decay slope
        setup = ApproximationSetup(
            PROBLEM, COV, "rmsprop", theta0=np.ones(2), u0=np.ones(2), T=0.4, seeds=8,
            n_checkpoints=3,
        )
        with pytest.raises(ValueError, match="distinct"):
            svag_sweep(setup, 0.2, (1, 2, 2), FNS, ROOT_SEED)

    @pytest.mark.parametrize("field, value", [
        ("em_substeps", 0), ("em_substeps", 2.0), ("seeds", 1), ("n_checkpoints", 0), ("T", 0.0),
        ("seeds", 2.5), ("n_checkpoints", 2.5), ("T", math.inf), ("em_substeps", True),
        ("n_checkpoints", True),
    ])
    def test_setup_rejects_sizes_that_fail_later(self, field, value):
        # a fractional seed or checkpoint count failed as a TypeError inside
        # the run, an infinite T as an OverflowError in _horizon_steps, and a
        # bool was read as the count 1
        with pytest.raises(ValueError, match=field):
            ApproximationSetup(
                PROBLEM, COV, "rmsprop", theta0=np.ones(2), u0=np.ones(2), **{field: value}
            )

    @pytest.mark.parametrize("field, value", [
        ("theta0", [1.0, 1.0, 1.0]), ("u0", [1.0, 1.0, 1.0]), ("u0", [0.0, 1.0]), ("u0", [1.0, -0.5]),
        ("theta0", [np.nan, 1.0]), ("u0", [np.inf, 1.0]),
    ], ids=["theta0-shape", "u0-shape", "u0-zero", "u0-negative", "theta0-nan", "u0-inf"])
    def test_setup_rejects_vectors_that_fail_later(self, field, value):
        # unchecked, each fails only inside a run, with a message that names no field
        vectors = {"theta0": np.ones(2), "u0": np.ones(2), field: np.array(value)}
        with pytest.raises(ValueError, match=field):
            ApproximationSetup(PROBLEM, COV, "rmsprop", **vectors)

    @pytest.mark.parametrize("algo, field", UNREAD, ids=[f"{a}-{f}" for a, f in UNREAD])
    def test_setup_rejects_constants_it_ignores(self, algo, field):
        # each one set away from its default ran at the default and reported
        # the same gaps bit for bit
        with pytest.raises(ValueError, match=f"{algo.upper()} setups ignore {field}"):
            ApproximationSetup(
                PROBLEM, COV, algo, theta0=np.ones(2), **ORDER_EXTRA[algo],
                **{field: AWAY_FROM_DEFAULT[field]},
            )

    @pytest.mark.parametrize("algo, field", UNSET, ids=[f"{a}-{f}" for a, f in UNSET])
    def test_setup_rejects_constants_it_reads_left_unset(self, algo, field):
        extra = {k: v for k, v in ORDER_EXTRA[algo].items() if k != field}
        with pytest.raises(ValueError, match=f"{algo} setups need {field}"):
            ApproximationSetup(PROBLEM, COV, algo, theta0=np.ones(2), **extra)

    def test_weak_error_rejects_unequal_seed_counts(self):
        def record(seeds):
            return TrajectoryRecord([0.1, 0.2], {"theta_0": np.zeros((2, seeds))})

        with pytest.raises(ValueError, match="equal seed counts"):
            weak_error(record(4), record(5))

    def test_weak_error_rejects_records_of_different_functions(self):
        def record(name):
            return TrajectoryRecord([0.1, 0.2], {name: np.zeros((2, 4))})

        with pytest.raises(ValueError, match="different test functions"):
            weak_error(record("theta_0"), record("loss"))


class TestSequencedGaussianOracle:
    @pytest.mark.parametrize("cov", [
        ConstantCovariance(np.array([[1.0, 0.3, 0.0], [0.3, 0.6, 0.1], [0.0, 0.1, 0.4]])),
        EmpiricalCovariance(),
    ], ids=["constant", "empirical"])
    def test_matches_gaussian_oracle_on_the_same_normals(self, cov):
        data = np.random.default_rng(1)
        problem = LeastSquaresProblem(data.standard_normal((8, 3)), data.standard_normal(8))
        thetas = [data.standard_normal((5, 3)) for _ in range(3)]
        fed = np.random.default_rng(11)
        sequenced = _SequencedGaussianOracle(problem, cov, 0.7)
        reference = GaussianOracle(problem, cov, 0.7)
        draws = np.random.default_rng(11)
        for theta in thetas:
            sequenced.feed(fed.standard_normal((5, 3)))
            np.testing.assert_array_equal(sequenced.sample(theta, None), reference.sample(theta, draws))
        with pytest.raises(RuntimeError, match="no block fed"):  # each block is read once
            sequenced.sample(thetas[0], None)


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

    def test_single_seed_rejected_before_any_run(self, monkeypatch):
        # one seed has no sample SE: z came out NaN and the check failed silently
        def no_run(*args, **kwargs):
            raise AssertionError("a run started before the seed count was checked")

        monkeypatch.setattr(harness, "run_discrete", no_run)
        plan = make_plan("sqrt-rmsprop", HyperParams(eta=0.05, beta=0.99), 2)
        with pytest.raises(ValueError, match="seeds"):
            validate_scaling(plan, PROBLEM, "rmsprop", FNS, base_steps=8, checkpoints=[4, 8],
                             seeds=1, root_seed=ROOT_SEED, sigma=1.0, cov=COV)

    def test_sigma_without_cov_rejected_before_any_run(self, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("a run started before the noise arguments were checked")

        monkeypatch.setattr(harness, "run_discrete", no_run)
        plan = make_plan("sqrt-rmsprop", HyperParams(eta=0.05, beta=0.99), 2)
        with pytest.raises(ValueError, match="cov"):
            validate_scaling(plan, PROBLEM, "rmsprop", FNS, base_steps=8, checkpoints=[4, 8],
                             seeds=10, root_seed=ROOT_SEED, sigma=1.0)


    @pytest.mark.parametrize("arguments, message", [
        (dict(batch_size=2.5), "batch_size must be an int"),
        (dict(batch_size=True), "batch_size must be an int"),
        (dict(batch_size=2, cov=COV), "cov goes with sigma"),
        (dict(batch_size=2, theta0=[5.0]), r"theta0 must have shape \(2,\)"),
        (dict(batch_size=2, theta0=[np.nan, 1.0]), "theta0 must be finite"),
        (dict(batch_size=2, seeds=2.5), "seeds must be an int"),
        (dict(batch_size=2, base_steps=8.5), "base_steps must be an int"),
    ], ids=["fractional-batch", "bool-batch", "cov-with-batch", "theta0-shape", "theta0-nan",
            "fractional-seeds", "fractional-steps"])
    def test_misread_arguments_rejected_before_any_run(self, arguments, message, monkeypatch):
        # unchecked, each ran: batch 2.5 as batch 2 against 5 (a ratio of
        # 2.5 under kappa = 2), batch True as batch 1, cov ignored, theta0
        # broadcast, a NaN start failing only as a NonFiniteError at step 1,
        # and a fractional seed or step count failing inside the runs as a
        # TypeError
        def no_run(*args, **kwargs):
            raise AssertionError("a run started before the arguments were checked")

        monkeypatch.setattr(harness, "run_discrete", no_run)
        data = np.random.default_rng(2)
        problem = LeastSquaresProblem(data.standard_normal((8, 2)), data.standard_normal(8))
        plan = make_plan("sqrt-rmsprop", HyperParams(eta=0.05, beta=0.99), 2)
        arguments = {"base_steps": 8, "seeds": 10, **arguments}
        with pytest.raises(ValueError, match=message):
            validate_scaling(plan, problem, "rmsprop", FNS, checkpoints=[4, 8], root_seed=ROOT_SEED,
                             **arguments)

    @pytest.mark.parametrize("checkpoints", [[0], [0, 0]])
    def test_only_step_zero_rejected_before_any_run(self, checkpoints, monkeypatch):
        # both runs compared their identical starts: z = 0 and passed, vacuously
        def no_run(*args, **kwargs):
            raise AssertionError("a run started before the checkpoints were checked")

        monkeypatch.setattr(harness, "run_discrete", no_run)
        plan = make_plan("sqrt-rmsprop", HyperParams(eta=0.1, beta=0.99), 4)
        with pytest.raises(ValueError, match="no step after t = 0"):
            validate_scaling(plan, PROBLEM, "rmsprop", FNS, base_steps=8, checkpoints=checkpoints,
                             seeds=10, root_seed=ROOT_SEED, sigma=1.0, cov=COV)

    @pytest.mark.parametrize("base_steps", [0, 2, 3])
    def test_base_steps_below_kappa_rejected_before_any_run(self, base_steps, monkeypatch):
        # the scaled run took base_steps // kappa = 0 steps
        def no_run(*args, **kwargs):
            raise AssertionError("a run started before base_steps was checked")

        monkeypatch.setattr(harness, "run_discrete", no_run)
        plan = make_plan("sqrt-rmsprop", HyperParams(eta=0.1, beta=0.99), 4)
        with pytest.raises(ValueError, match="below kappa"):
            validate_scaling(plan, PROBLEM, "rmsprop", FNS, base_steps=base_steps, checkpoints=[0],
                             seeds=10, root_seed=ROOT_SEED, sigma=1.0, cov=COV)

    @pytest.mark.parametrize("rule, algo", [("sqrt-rmsprop", "adam"), ("linear-sgd", "rmsprop")])
    def test_plan_for_another_algorithm_rejected_before_any_run(self, rule, algo, monkeypatch):
        # a sqrt-rmsprop plan scales beta, which Adam never reads: the pair ran
        # at mismatched constants and reported its z-scores as if it had not
        def no_run(*args, **kwargs):
            raise AssertionError("a run started before the plan's algorithm was checked")

        monkeypatch.setattr(harness, "run_discrete", no_run)
        plan = make_plan(rule, HyperParams(eta=0.05, beta=0.99), 2)
        with pytest.raises(ValueError, match="another algorithm"):
            validate_scaling(plan, PROBLEM, algo, FNS, base_steps=8, checkpoints=[4, 8],
                             seeds=10, root_seed=ROOT_SEED, sigma=1.0, cov=COV)


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


class TestLinearWarmupCheck:
    # Documented regime: sigma >= 100 max|g_bar|. The law is exact, so with
    # 2000 seeds (fixed before any run) each of the four z-scores falls
    # outside +-4 with probability ~6e-5 and the variance SE's normal
    # approximation holds; a failure means the frozen-v update or its
    # formulas moved.
    G_BAR, SIGMA, ETA, K, SEEDS = (0.01, -0.02), 5.0, 0.1, 200, 2000

    def _check(self, k=K):
        return linear_warmup_check(self.G_BAR, self.SIGMA, self.ETA, k, self.SEEDS, ROOT_SEED)

    def test_documented_regime_passes(self):
        report = self._check()
        assert report.k == self.K
        assert report.passed
        assert np.all(report.approx_mean_rel_err < 1e-4)
        assert np.all(report.approx_var_rel_err < 1e-4)

    def test_single_seed_rejected_before_any_run(self, monkeypatch):
        # one seed has no sample variance: its SEs came out NaN
        def no_run(*args, **kwargs):
            raise AssertionError("a run started before the seed count was checked")

        monkeypatch.setattr(harness, "run_discrete", no_run)
        with pytest.raises(ValueError, match="seeds"):
            linear_warmup_check(self.G_BAR, self.SIGMA, self.ETA, self.K, 1, ROOT_SEED)

    def test_fractional_seed_count_rejected_before_any_run(self, monkeypatch):
        # 2.5 seeds reached the run and failed there as a TypeError
        def no_run(*args, **kwargs):
            raise AssertionError("a run started before the seed count was checked")

        monkeypatch.setattr(harness, "run_discrete", no_run)
        with pytest.raises(ValueError, match="seeds must be an int"):
            linear_warmup_check(self.G_BAR, self.SIGMA, self.ETA, self.K, 2.5, ROOT_SEED)

    def test_zero_sigma_rejected_before_any_run(self, monkeypatch):
        # at g_bar = 0 the dominance check read 0 >= 100 * 0 and passed; the
        # run then failed at step 1 on sqrt(v) + epsilon = 0
        def no_run(*args, **kwargs):
            raise AssertionError("a run started before sigma was checked")

        monkeypatch.setattr(harness, "run_discrete", no_run)
        with pytest.raises(ValueError, match="sigma must be positive"):
            linear_warmup_check([0.0, 0.0], 0.0, self.ETA, self.K, self.SEEDS, ROOT_SEED)

    def test_zero_steps_score_zero(self):
        # every sample is theta_0 = 0: zero SE and an exact match, so z = 0, not 0/0
        report = self._check(k=0)
        assert report.k == 0
        assert np.all(report.z_mean == 0.0) and np.all(report.z_var == 0.0)
        assert np.all(report.approx_mean_rel_err == 0.0) and np.all(report.approx_var_rel_err == 0.0)
        assert report.passed



def _fields_set_to_arrays(cls):
    """A builder of ``cls`` with an array in every field, for the report types that check none."""
    return lambda: cls(**{f.name: np.zeros(2) for f in dataclasses.fields(cls)})


@pytest.mark.parametrize(
    "build",
    [
        lambda: optimizers.OptimizerState.initial(np.zeros((2, 3)), 1.0),
        lambda: ApproximationSetup(PROBLEM, COV, "sgd", theta0=np.ones(2)),
        lambda: StateView(np.zeros((3, 2)), 0.0, 0, PROBLEM),
        lambda: TrajectoryRecord(np.array([0.0, 1.0]), {"loss": np.zeros((2, 3))}),
        _fields_set_to_arrays(harness.WeakErrorReport),
        _fields_set_to_arrays(harness.OrderReport),
        _fields_set_to_arrays(harness.SvagReport),
        _fields_set_to_arrays(harness.ScalingReport),
        _fields_set_to_arrays(harness.WarmupReport),
    ],
    ids=[
        "optimizer_state", "approximation_setup", "state_view", "trajectory_record",
        "weak_error", "order", "svag", "scaling", "warmup",
    ],
)
def test_types_holding_arrays_compare_and_hash_by_identity(build):
    # a value comparison would call bool() on an array and raise
    x, twin = build(), build()
    assert x == x
    assert not x == twin and x != twin
    assert hash(x) == hash(x) and len({x, twin}) == 2


if __name__ == "__main__":
    # print every GOLDEN entry as the code computes it now, to paste over GOLDEN
    print("GOLDEN = " + _literal({key: GOLDEN_RUNS[key]() for key in GOLDEN}))
