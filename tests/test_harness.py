"""Sweep harness: exact sweep figures, the sequenced oracle and the argument checks."""
import dataclasses
import math
import os
import subprocess
import sys
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
SIGMA = np.array([[1.0, 0.3], [0.3, 0.6]])
COV = ConstantCovariance(SIGMA)
_LS_DATA = np.random.default_rng(11)
LS_PROBLEM = LeastSquaresProblem(_LS_DATA.standard_normal((16, 2)), _LS_DATA.standard_normal(16))
ROOT_SEED = 7

# float.hex of every figure the tiny sweeps below report (GOLDEN_RUNS). A
# change that keeps the RNG streams must reproduce them bit for bit; one that
# moves a stream must record them again and say why:
# `PYTHONPATH=src python tests/test_harness.py` prints them in this format,
# and to stderr the largest relative move of each entry's fields from them.
GOLDEN = {
    'order/rmsprop': {
        'theta_0': {
            'slope': '-0x1.794cd1f66e259p-3',
            'slope_se': '0x1.258e70599b1abp+0',
            'status': 'inconclusive',
            'max_gap': [
                '0x1.6d7c3144b5600p-9',
                '0x1.9ea72f6d55e00p-8',
                '0x1.992bfe78e3800p-9',
            ],
            'se_at_max': [
                '0x1.ae25db188f2f9p-9',
                '0x1.33306e33945e4p-9',
                '0x1.c0ea3fc3a671ep-10',
            ],
        },
        'loss': {
            'slope': '0x1.61b85261a7923p+0',
            'slope_se': '0x1.2cad0c7b02f21p+0',
            'status': 'inconclusive',
            'max_gap': [
                '0x1.6e1104c075300p-8',
                '0x1.0175a83f1ab40p-7',
                '0x1.146760e548800p-9',
            ],
            'se_at_max': [
                '0x1.5875479d52126p-7',
                '0x1.7f1ea241cc54ep-8',
                '0x1.1bd49585554bep-11',
            ],
        },
    },
    'order/adam': {
        'theta_0': {
            'slope': '0x1.c6098926cac75p-1',
            'slope_se': '0x1.6fc52e8d2dfeep-1',
            'status': 'ok',
            'max_gap': [
                '0x1.bed3875053d00p-8',
                '0x1.24b935a2cc500p-8',
                '0x1.e450469e62400p-9',
            ],
            'se_at_max': [
                '0x1.9ebef6896eafbp-10',
                '0x1.db8e351696be5p-10',
                '0x1.7e82b8e9797eap-10',
            ],
        },
        'loss': {
            'slope': '-0x1.9f6ca7a4a31d9p-3',
            'slope_se': '0x1.37c860c14f985p+0',
            'status': 'inconclusive',
            'max_gap': [
                '0x1.b1065943e9400p-10',
                '0x1.08e9406177080p-8',
                '0x1.ea6ac36e69400p-10',
            ],
            'se_at_max': [
                '0x1.58389a29039d9p-9',
                '0x1.d72ce024ecebep-9',
                '0x1.b6d3e76e575f0p-10',
            ],
        },
    },
    'order/sgd': {
        'theta_0': {
            'slope': '0x1.e2779a8012b88p-1',
            'slope_se': '0x1.000be5feae611p-48',
            'status': 'ok',
            'max_gap': [
                '0x1.7fb8689c76980p-6',
                '0x1.0732d002de320p-6',
                '0x1.8fb18ed065a80p-7',
            ],
            'se_at_max': [
                '0x1.0c5e2f21c2ccdp-55',
                '0x1.c9f25c5bfedd9p-56',
                '0x1.d319033d91deep-56',
            ],
        },
        'loss': {
            'slope': '0x1.07745c8f6d987p+0',
            'slope_se': '0x1.24201433d9a73p-4',
            'status': 'ok',
            'max_gap': [
                '0x1.0d5fc8ffe5cf0p-6',
                '0x1.53ab708c27b80p-7',
                '0x1.087ae7da95140p-7',
            ],
            'se_at_max': [
                '0x1.77f8e0e16a18dp-11',
                '0x1.0bdc7e74092a8p-11',
                '0x1.efe6b1608317bp-13',
            ],
        },
    },
    'svag': {
        'theta_0': {
            'pair_gaps': [
                '0x1.332264551fd80p-8',
                '0x1.6f54718909300p-9',
            ],
            'pair_se': [
                '0x1.828224247cbafp-10',
                '0x1.776e8224c533ap-11',
            ],
            'decay_slope': '0x1.7bcc617298294p-2',
            'decay_slope_se': '0x1.5119d5bf75056p-2',
            'status': 'ok',
        },
        'loss': {
            'pair_gaps': [
                '0x1.c52cf6a4f7400p-9',
                '0x1.6a9759a4a8400p-10',
            ],
            'pair_se': [
                '0x1.4e7f7c0b00417p-10',
                '0x1.d22afba025475p-11',
            ],
            'decay_slope': '0x1.525ca877b05ddp-1',
            'decay_slope_se': '0x1.a6daace1d0abcp-2',
            'status': 'inconclusive',
        },
    },
    'order/rmsprop/empirical': {
        'theta_0': {
            'slope': '0x1.5d41e633f7d4ep-1',
            'slope_se': '0x1.3fc2694d073e5p+0',
            'status': 'inconclusive',
            'max_gap': [
                '0x1.bfd9ae909b2e8p-7',
                '0x1.4fa117a16ff60p-9',
                '0x1.1f11806246f60p-7',
            ],
            'se_at_max': [
                '0x1.153bad1bafecfp-6',
                '0x1.9b96884761578p-8',
                '0x1.513f3e2d0a29ep-8',
            ],
        },
        'loss': {
            'slope': '-0x1.0401792955e25p-1',
            'slope_se': '0x1.911c0ac5fb949p+0',
            'status': 'inconclusive',
            'max_gap': [
                '0x1.7c10d31e24600p-9',
                '0x1.708c1476c5560p-6',
                '0x1.047c73939c580p-8',
            ],
            'se_at_max': [
                '0x1.155a32033cd82p-5',
                '0x1.d1355bbe998afp-7',
                '0x1.be04debd30b99p-9',
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


def _order_run(algo, fn_names=FNS):
    setup = ApproximationSetup(
        PROBLEM, COV, algo, theta0=np.ones(2), T=0.5, seeds=32, em_substeps=4,
        n_checkpoints=3, **ORDER_EXTRA[algo],
    )
    return _order_figures(order_sweep(setup, (0.2, 0.14, 0.1), fn_names, ROOT_SEED))


def _empirical_order_run():
    # state-dependent noise: the covariance is rebuilt at every substep's state
    setup = ApproximationSetup(
        LS_PROBLEM, EmpiricalCovariance(), "rmsprop", theta0=np.zeros(2), u0=np.ones(2),
        T=0.5, seeds=32, em_substeps=4, n_checkpoints=3,
    )
    return _order_figures(order_sweep(setup, (0.2, 0.14, 0.1), FNS, ROOT_SEED))


SVAG_SETUP = ApproximationSetup(
    PROBLEM, COV, "rmsprop", theta0=np.ones(2), u0=np.ones(2), T=0.4, seeds=64, n_checkpoints=3,
)


def _svag_run(fn_names=FNS):
    return _svag_figures(svag_sweep(SVAG_SETUP, 0.2, (1, 2, 4), fn_names, ROOT_SEED))


# each GOLDEN entry's sweep, returning its figures
GOLDEN_RUNS = {
    **{f"order/{algo}": lambda algo=algo: _order_run(algo) for algo in ORDER_EXTRA},
    "order/rmsprop/empirical": _empirical_order_run,
    "svag": _svag_run,
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


def _move(was, now) -> float:
    """|now - was| / |was| of two GOLDEN figures: 0 if equal, inf if either is not a number."""
    if was == now:
        return 0.0
    try:
        a, b = float.fromhex(was), float.fromhex(now)
    except (TypeError, ValueError):  # a status, or a slope that is None on one side
        return math.inf
    return abs(b - a) / abs(a) if a else math.inf


def _largest_moves(old, new):
    """Per field of one GOLDEN entry, old against new: (largest relative move, from, to).

    The move is the largest over the entry's test functions and points;
    from and to are that figure's values as decimals, or as recorded where
    they are not numbers.
    """
    out = {}
    for name, fields in old.items():
        for field, was in fields.items():
            now = new[name][field]
            for a, b in zip(was, now) if isinstance(was, list) else [(was, now)]:
                move = _move(a, b)
                if field not in out or move > out[field][0]:
                    out[field] = (move, _decimal(a), _decimal(b))
    return out


def _decimal(figure):
    try:
        return f"{float.fromhex(figure):.3g}"
    except (TypeError, ValueError):
        return figure


class TestGoldenSweeps:
    @pytest.mark.parametrize("algo", list(ORDER_EXTRA))
    def test_order_sweep(self, algo):
        assert GOLDEN_RUNS[f"order/{algo}"]() == GOLDEN[f"order/{algo}"]

    def test_empirical_order_sweep(self):
        assert GOLDEN_RUNS["order/rmsprop/empirical"]() == GOLDEN["order/rmsprop/empirical"]

    def test_svag_sweep(self):
        assert GOLDEN_RUNS["svag"]() == GOLDEN["svag"]

    def test_order_sweep_reads_names_from_a_generator(self):
        # the names are read once per eta and once per fit: a one-shot
        # iterable ran out after the first cell
        assert _order_run("rmsprop", fn_names=(n for n in FNS)) == GOLDEN["order/rmsprop"]

    def test_svag_sweep_reads_names_from_a_generator(self):
        # a one-shot iterable was spent building the test functions, and
        # the fits then returned no status and no slope at all
        assert _svag_run(fn_names=(n for n in FNS)) == GOLDEN["svag"]

    def test_largest_moves_name_the_figure_that_moved_most(self):
        # the re-record recipe prints these, so a re-record can say "rounding only"
        old = {"f": {"se": ["0x1.0p+0", "0x1.0p+1"], "status": "ok"}}
        new = {"f": {"se": ["0x1.0p+0", "0x1.8p+1"], "status": "inconclusive"}}
        assert _largest_moves(old, old) == {"se": (0.0, "1", "1"), "status": (0.0, "ok", "ok")}
        assert _largest_moves(old, new) == {
            "se": (0.5, "2", "3"), "status": (math.inf, "ok", "inconclusive"),
        }

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

    def test_svag_bootstrap_does_not_depend_on_the_other_names(self):
        # one bootstrap generator served the names in turn, so the loss's
        # slope SE read 0.487 after theta_0's draws and 0.413 alone
        both = svag_sweep(SVAG_SETUP, 0.2, (1, 2, 4), ["theta_0", "loss"], ROOT_SEED)
        alone = svag_sweep(SVAG_SETUP, 0.2, (1, 2, 4), ["loss"], ROOT_SEED)
        assert both.decay_slope_se["loss"] == alone.decay_slope_se["loss"]


def patch_systems(monkeypatch, change):
    """Make every system the harness builds pass through ``change`` on its way out."""
    build = harness._build_system
    monkeypatch.setattr(harness, "_build_system", lambda setup, eta: change(build(setup, eta)))


def scale_diffusion(monkeypatch, factor):
    """Make every system the harness builds drive its noise ``factor`` times as hard."""

    def scaled(system):
        diffusion = system.apply_diffusion
        return dataclasses.replace(system, apply_diffusion=lambda x, t, dw: factor * diffusion(x, t, dw))

    patch_systems(monkeypatch, scaled)


def double_u_drift(monkeypatch):
    """Make every system the harness builds move u twice as fast."""

    def doubled(system):
        drift, u = system.drift, system.blocks["u"]

        def twice(x, t):
            out = drift(x, t)
            out[:, u] *= 2.0
            return out

        return dataclasses.replace(system, drift=twice)

    patch_systems(monkeypatch, doubled)


class TestCouplingInvariant:
    """Coupling shrinks the gap's per-seed SE, and the ratio pins the coupling's sign.

    With the right sign the per-seed paired SE is at most 0.067 of the
    per-seed combined SE at t = T (400 seeds, eta = 0.2, 4 substeps); with
    the diffusion negated the discrete and continuous noise anti-correlate
    and the ratio is 0.67 to 1.41. The ratio is read per seed, not on the
    pair means the reports' SEs use: a pair mean cancels the odd part of the
    noise whatever the coupling's sign, and on the pair SEs the negated
    RMSprop and SGD runs read 0.07 to 0.39, below the control's 0.4. That
    riding the path leaves each side's law untouched is pinned exactly:
    the integrator's by TestExactEulerMaruyamaMoments, the discrete run's
    by TestSharedPath (each window it steps on is an exact N(0, I) block).
    """

    RATIO_BOUND = 0.2

    @staticmethod
    def _report(algo, em_substeps=4):
        setup = ApproximationSetup(
            PROBLEM, COV, algo, theta0=np.ones(2), T=0.5, seeds=400, em_substeps=em_substeps,
            **ORDER_EXTRA[algo],
        )
        return compare_at_eta(setup, 0.2, FNS, ROOT_SEED)

    @staticmethod
    def _last_ratio(report, name):
        """Std of the per-seed differences at t = T over sqrt(the sum of both sides' variances)."""
        d, c = report.discrete.values[name][-1], report.continuous.values[name][-1]
        return np.std(d - c, ddof=1) / math.sqrt(np.var(d, ddof=1) + np.var(c, ddof=1))

    # at one substep the integrator and the discrete run read the same blocks
    # of the shared path, one after the other
    @pytest.mark.parametrize("em_substeps", [4, 1])
    @pytest.mark.parametrize("algo", list(ORDER_EXTRA))
    def test_coupling_shrinks_the_paired_se(self, algo, em_substeps):
        report = self._report(algo, em_substeps)
        for name in FNS:
            assert self._last_ratio(report, name) <= self.RATIO_BOUND

    @pytest.mark.parametrize("algo", list(ORDER_EXTRA))
    def test_negated_diffusion_fails_the_ratio_bound(self, algo, monkeypatch):
        scale_diffusion(monkeypatch, -1.0)
        report = self._report(algo)
        for name in FNS:
            assert self._last_ratio(report, name) > 2.0 * self.RATIO_BOUND


def _exact_em_moments(setup, eta, times):
    """Mean of theta, and of the loss, of the Euler-Maruyama run at ``times``, by recursion.

    On the quadratic f = theta' A theta / 2 with constant Sigma, RMSprop's
    u drift c2 (diag Sigma - u) does not read theta, so u is deterministic,
    stepped as the integrator steps it, and each substep is theta' = M theta
    + B w with M = I - dt P^-1 A and B = -sigma0 sqrt(dt) P^-1 Sigma^(1/2),
    where P = sigma0 diag(sqrt u) + epsilon0 I. SGD is the case P = I, with
    sqrt(eta) in place of sigma0. So theta is Gaussian: its mean steps as
    mu' = M mu, its covariance as C' = M C M' + B B', and E[loss] =
    (mu' A mu + tr(A C)) / 2, with no seeds.
    """
    a, d, m = PROBLEM.a, PROBLEM.dim, setup.em_substeps
    dt = optimizers.effective_time_step(setup.algo, eta) / m
    steps = [int(round(t / dt)) for t in times]
    mu, c, u = setup.theta0.copy(), np.zeros((d, d)), setup.u0
    means, losses = [], []
    for n in range(steps[-1] + 1):
        if n in steps:
            means.append(mu.copy())
            losses.append(0.5 * (mu @ a @ mu + np.trace(a @ c)))
        if setup.algo == "rmsprop":
            p_inv, amp = 1.0 / (setup.sigma0 * np.sqrt(u) + setup.epsilon0), setup.sigma0
            u = setup.c2 * (np.diag(SIGMA) - u) * dt + u
        else:
            p_inv, amp = np.ones(d), math.sqrt(eta)
        step = np.eye(d) - dt * p_inv[:, None] * a
        b_rows = amp * p_inv[:, None]  # B B' = dt diag(b_rows) Sigma diag(b_rows)
        mu = step @ mu
        c = step @ c @ step.T + dt * b_rows * SIGMA * b_rows.T
    return np.array(means), np.array(losses)


class TestExactEulerMaruyamaMoments:
    """The coupled integrator's moments meet the exact recursion, and two controls break them.

    Given u, theta is affine in the path, and seeds i and i + S/2 ride
    opposite paths, so every pair mean of theta is the recursion's mean to
    rounding: at most 1.3e-15 relative at these sizes, against a bound of
    1e-12. The loss is even in the path, so its mean meets the recursion
    within 4 pair SE (|z| read at most 2.3 over both cases). The controls,
    fixed with the sizes: doubling RMSprop's u drift moves theta_1 by 9.1e-3
    relative (theta_0 cannot see it: u0 = Sigma_00 holds u_0 still), and a
    diffusion scaled by 1.5 keeps every theta pair mean exact but reads loss
    z of 6.4 to 8.0.
    """

    BOUND = 1e-12
    ETAS = {"rmsprop": 0.2, "sgd": 0.1}
    THETAS = ["theta_0", "theta_1"]

    @classmethod
    def _read(cls, algo):
        """Worst relative error of the theta pair means per name, and the loss z per checkpoint."""
        setup = ApproximationSetup(
            PROBLEM, COV, algo, theta0=np.ones(2), T=0.5, seeds=400, em_substeps=4,
            **ORDER_EXTRA[algo],
        )
        em = compare_at_eta(setup, cls.ETAS[algo], cls.THETAS + ["loss"], ROOT_SEED).continuous
        means, losses = _exact_em_moments(setup, cls.ETAS[algo], em.times)
        rel = {
            name: np.max(np.abs(harness._pair_means(em.values[name]) - means[:, [i]]) / np.abs(means[:, [i]]))
            for i, name in enumerate(cls.THETAS)
        }
        return rel, (em.mean("loss") - losses) / harness._pair_se(em.values["loss"])

    @pytest.mark.parametrize("algo", list(ETAS))
    def test_pair_means_and_loss_meet_the_recursion(self, algo):
        rel, z = self._read(algo)
        assert max(rel.values()) <= self.BOUND, rel
        assert np.all(np.abs(z) <= 4.0), z

    def test_doubled_u_drift_moves_theta_1_off_the_recursion(self, monkeypatch):
        double_u_drift(monkeypatch)
        rel, _ = self._read("rmsprop")
        assert rel["theta_1"] > 1e3 * self.BOUND

    @pytest.mark.parametrize("algo", list(ETAS))
    def test_scaled_diffusion_moves_the_loss_off_the_recursion(self, algo, monkeypatch):
        scale_diffusion(monkeypatch, 1.5)
        _, z = self._read(algo)
        assert np.max(np.abs(z)) > 4.0, z


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
        scale_diffusion(monkeypatch, -1.0)
        for name, worst in self._worst(*self.CASES[case]).items():
            assert worst > 1e3 * self.BOUND, name


def plain_path(monkeypatch):
    """Make every path block plain: all of its rows drawn, none negated."""
    monkeypatch.setattr(harness, "_path_block", lambda rng, shape: (rng.standard_normal(shape), shape[0]))


# The order-const benchmark problem: four coordinates, so theta_3 reads the slowest one.
QUAD4 = QuadraticProblem(np.diag([1.0, 0.5, 0.25, 0.125]))
COV4 = ConstantCovariance(np.array([
    [1.0, 0.3, 0.0, 0.0], [0.3, 0.6, 0.1, 0.0], [0.0, 0.1, 0.4, 0.05], [0.0, 0.0, 0.05, 0.2],
]))


class TestAntitheticPairs:
    """Seed i + S/2 rides the negation of seed i's path; the pair means are the samples.

    SGD on a quadratic with constant noise is affine in the path, in both
    the discrete run and the integrator, so each pair mean of theta is the
    noiseless trajectory to rounding. Elsewhere the pairs cancel only the
    odd part of the noise: the gaps must agree with a plain path's within
    4 SE of their difference, each gap's own (paired) SE, which is tighter
    than the combined SE.
    """

    BOUND = 1e-12
    THETAS = ["theta_0", "theta_1"]

    @classmethod
    def _sgd(cls, cov):
        setup = ApproximationSetup(
            PROBLEM, cov, "sgd", theta0=np.ones(2), T=0.5, seeds=32, em_substeps=4, n_checkpoints=3,
        )
        return compare_at_eta(setup, 0.1, cls.THETAS, ROOT_SEED)

    @classmethod
    def _worst_sgd_deviation(cls):
        """Worst spread of the pair means over the pairs, and worst theta gap off the noiseless one."""
        report, noiseless = cls._sgd(COV), cls._sgd(ConstantCovariance(np.zeros((2, 2))))
        spread, off = 0.0, 0.0
        for name in cls.THETAS:
            for record in (report.discrete, report.continuous):
                values = record.values[name]
                half = values.shape[1] // 2
                means = (values[:, :half] + values[:, half:]) / 2
                spread = max(spread, np.max(np.abs(means - means[:, :1])))
            off = max(off, np.max(np.abs(report.gaps[name] - noiseless.gaps[name])))
        return spread, off

    def test_sgd_pair_means_are_the_noiseless_path(self):
        spread, off = self._worst_sgd_deviation()
        assert spread <= self.BOUND and off <= self.BOUND

    def test_plain_path_breaks_the_exact_pair_means(self, monkeypatch):
        plain_path(monkeypatch)
        spread, off = self._worst_sgd_deviation()
        assert spread > 1e3 * self.BOUND and off > 1e3 * self.BOUND

    @staticmethod
    def _agree(antithetic, plain):
        for a, p in zip(antithetic, plain):
            for name in a.names:
                se = np.hypot(a.paired_se[name], p.paired_se[name])
                assert np.all(np.abs(a.gaps[name] - p.gaps[name]) <= 4.0 * se), name

    @staticmethod
    def _rmsprop_cell():
        setup = ApproximationSetup(
            QUAD4, COV4, "rmsprop", theta0=np.ones(4), u0=np.ones(4), T=1.0, seeds=400,
            em_substeps=4, n_checkpoints=3,
        )
        return compare_at_eta(setup, 0.2, ["theta_0", "theta_3", "loss"], ROOT_SEED)

    def test_rmsprop_cell_agrees_with_a_plain_path_at_under_half_the_theta_se(self, monkeypatch):
        # at these sizes the theta_3 pair SE at t = T reads 0.26 of the plain one
        antithetic = self._rmsprop_cell()
        plain_path(monkeypatch)
        plain = self._rmsprop_cell()
        self._agree([antithetic], [plain])
        assert antithetic.paired_se["theta_3"][-1] <= 0.5 * plain.paired_se["theta_3"][-1]

    @staticmethod
    def _svag_pairs():
        setup = ApproximationSetup(
            PROBLEM, COV, "rmsprop", theta0=np.ones(2), u0=np.ones(2), T=0.4, seeds=400,
            n_checkpoints=3,
        )
        report = svag_sweep(setup, 0.2, (1, 2, 4), FNS, ROOT_SEED)
        return [weak_error(report.records[a], report.records[b]) for a, b in report.pairs]

    def test_coupled_svag_sweep_agrees_with_a_plain_path(self, monkeypatch):
        antithetic = self._svag_pairs()
        plain_path(monkeypatch)
        self._agree(antithetic, self._svag_pairs())


class TestSharedPath:
    """The one coupling mechanism: each rider steps on the normalized sum of its window."""

    def test_riders_read_the_normalized_sums_of_the_blocks_the_driver_saw(self):
        # bit for bit: a rider sums only the drawn half of each block and is
        # fed that sum and its negation, which must equal the sum of the
        # whole antithetic blocks; a window-1 rider reads the block itself
        shape, n_blocks = (4, 2), 8
        read = {1: [], 4: []}

        def rider(window):
            oracle = _SequencedGaussianOracle(PROBLEM, COV, 1.0)

            def loop():
                while True:
                    read[window].append(oracle._standard_normal(shape, None))
                    yield

            return loop(), window, oracle

        riders = [rider(1), rider(4)]
        blocks = list(harness._shared_path(np.random.default_rng(3), n_blocks, shape, riders))
        seen = np.stack(blocks)
        np.testing.assert_array_equal(seen[:, 2:], -seen[:, :2])  # seed i + 2 rides -path i
        # the drawn halves are the plain draws of their shape, in order
        np.testing.assert_array_equal(
            seen[:, :2], np.random.default_rng(3).standard_normal((n_blocks, 2, 2))
        )
        assert all(got is block for got, block in zip(read[1], blocks))
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


def _per_seed_boot_gaps(x, reports, name, rng, n_boot):
    """The bootstrap's worst gaps per chunk, from the per-seed values of each record.

    Each replicate draws S/2 pair indices i, takes seeds i and i + S/2 of
    both records, and subtracts the continuous mean from the discrete one.
    """
    n = reports[0].discrete.seed_count
    h = n // 2
    out = []
    for start in range(0, n_boot, harness._BOOT_CHUNK):
        chunk = min(harness._BOOT_CHUNK, n_boot - start)
        pairs = rng.integers(0, h, size=(chunk, len(reports), h))
        idx = np.concatenate([pairs, pairs + h], axis=2)
        boot_gaps = np.empty((len(reports), chunk))
        for r, rep in enumerate(reports):
            dmean = np.take(rep.discrete.values[name].T, idx[:, r], axis=0).mean(axis=1)
            smean = np.take(rep.continuous.values[name].T, idx[:, r], axis=0).mean(axis=1)
            boot_gaps[r] = np.maximum(np.abs(dmean - smean).max(axis=1), 1e-300)
        out.append(boot_gaps)
    return out


class TestBootstrapLayout:
    """Resampling pair means equals resampling the pairs' seeds, at bench sizes."""

    @pytest.mark.parametrize("seeds, n_reports, n_boot", [(200, 4, 200), (2000, 3, 120)])
    def test_equals_the_per_seed_reference(self, seeds, n_reports, n_boot, monkeypatch):
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
        want = _per_seed_boot_gaps(x, reports, "f", np.random.default_rng(7), n_boot)
        assert len(fitted) == len(want) == -(-n_boot // harness._BOOT_CHUNK)
        for got, expected in zip(fitted, want):
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)
        boots = np.concatenate([fit_loglog_slope(x, y) for y in want])
        assert slope_se == pytest.approx(float(np.std(boots, ddof=1)), rel=1e-12, abs=0)


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

    @pytest.mark.parametrize("algo, ells, match", [
        ("sgd", (1, 2, 4), "adaptive algorithms"),
        ("rmsprop", (0.5, 1, 2), "ell = 1 as its base"),
        ("rmsprop", (1, 2, 3), "divide the largest ell"),
    ], ids=["sgd", "ell_below_one", "ell_not_dividing"])
    def test_svag_rejects_what_it_cannot_amplify_before_any_run(self, algo, ells, match, monkeypatch):
        # a cell's hyperparameters are scale_sqrt at kappa = 1/ell^2, which
        # takes an SGD setup, and an ell below 1 as a plain rescaling
        def no_run(*args, **kwargs):
            raise AssertionError("a cell ran before the setup and ell values were checked")

        monkeypatch.setattr(harness, "discrete_loop", no_run)
        setup = ApproximationSetup(
            PROBLEM, COV, algo, theta0=np.ones(2), T=0.4, seeds=8, n_checkpoints=3,
            **ORDER_EXTRA[algo],
        )
        with pytest.raises(ValueError, match=match):
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

    @pytest.mark.parametrize("coupled", [False, None, 1])
    def test_setup_rejects_any_coupling_but_the_shared_path(self, coupled):
        # every comparison rides one shared path; the field stays only as
        # long as the benchmark passes coupled=True
        with pytest.raises(ValueError, match="coupled must be True"):
            ApproximationSetup(PROBLEM, COV, "rmsprop", theta0=np.ones(2), u0=np.ones(2), coupled=coupled)

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

    @pytest.mark.parametrize("seeds", [2, 3, 5])
    def test_seeds_that_do_not_split_into_two_pairs_rejected(self, seeds):
        # the SEs are taken over the pair means of seeds i and i + S/2
        message = r"seeds i and i \+ seeds/2 are paired"
        with pytest.raises(ValueError, match=message):
            ApproximationSetup(PROBLEM, COV, "rmsprop", theta0=np.ones(2), u0=np.ones(2), seeds=seeds)
        record = TrajectoryRecord([0.1, 0.2], {"theta_0": np.zeros((2, seeds))})
        with pytest.raises(ValueError, match=message):
            weak_error(record, record)

    def test_weak_error_rejects_records_of_different_functions(self):
        def record(name):
            return TrajectoryRecord([0.1, 0.2], {name: np.zeros((2, 4))})

        with pytest.raises(ValueError, match="different test functions"):
            weak_error(record("theta_0"), record("loss"))


class TestCheckpointSteps:
    def test_equals_the_unique_rounded_grid(self):
        for k_start in (0, 1, 5):
            for n_steps in range(k_start + 1, k_start + 40):
                for count in (1, 2, 3, 5, 8, 50):
                    grid = np.unique(np.round(np.linspace(k_start + 1, n_steps, count)).astype(int))
                    want = [int(k) for k in grid if k > k_start]
                    assert harness._checkpoint_steps(k_start, n_steps, count) == want

    def test_no_sweep_imports_numpy_ma(self):
        # np.unique imported numpy.ma on the first sweep, 1.3 MiB of resident
        # memory that nothing reads; a fresh interpreter shows it
        script = """
import sys
import numpy as np
from adasde import harness
from adasde.optimizers import HyperParams
from adasde.problems import ConstantCovariance, LeastSquaresProblem, QuadraticProblem
from adasde.scaling import make_plan
setup = harness.ApproximationSetup(
    QuadraticProblem(np.diag([1.0, 0.5])), ConstantCovariance(np.eye(2)), "rmsprop",
    theta0=np.ones(2), u0=np.ones(2), T=0.1, seeds=4, em_substeps=1, n_checkpoints=2,
)
harness.order_sweep(setup, (0.2, 0.14, 0.1), ["theta_0", "loss"], 0)
harness.svag_sweep(setup, 0.2, (1, 2, 4), ["theta_0", "loss"], 0)
data = np.random.default_rng(0)
problem = LeastSquaresProblem(data.standard_normal((8, 2)), data.standard_normal(8))
plan = make_plan("sqrt-rmsprop", HyperParams(eta=0.05, beta=0.99), 2)
harness.validate_scaling(plan, problem, "rmsprop", ["theta_0", "loss"], base_steps=4,
                         checkpoints=(2, 4), seeds=4, root_seed=0, batch_size=2)
print("numpy.ma" in sys.modules)
"""
        src = str(Path(harness.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert out.returncode == 0, out.stderr[-4000:]
        assert out.stdout.strip() == "False"


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
    # print every GOLDEN entry as the code computes it now, to paste over GOLDEN,
    # and to stderr how far each entry's fields moved from the literal above
    now = {key: GOLDEN_RUNS[key]() for key in GOLDEN}
    print("GOLDEN = " + _literal(now))
    for key in GOLDEN:
        for field, (move, was, new) in _largest_moves(GOLDEN[key], now[key]).items():
            print(f"{key} {field}: largest relative move {move:.3g} ({was} -> {new})", file=sys.stderr)
