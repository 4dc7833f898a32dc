"""The benchmark's three workloads, built from a workload seed.

Each workload is a list of experiments. An experiment is one call into the
public ``adasde.harness`` API (an order sweep, an SVAG sweep or a scaling
validation) and owns a fixed list of cells: one cell per eta, per ell or per
scaling run. A cell is the unit the benchmark counts as one operation.

The harness functions are looked up on the module at call time, so that the
traced run's wrappers (see ``spans.py``) are the ones called.

Why these workloads:

* ``order-const`` spends most of its time in the SDE integrator; its
  covariance root is computed once, at set-up.
* ``order-empirical`` runs the same integrator loop, but its noise depends
  on the state, so the covariance path (``cov.matrix``, ``sqrt``,
  ``diagonal``) dominates.
* ``svag-scaling`` runs only discrete optimizers (oracle, step, bootstrap);
  it never calls the integrator.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from adasde import ConstantCovariance, EmpiricalCovariance, HyperParams
from adasde import LeastSquaresProblem, QuadraticProblem, harness
from adasde.scaling import make_plan

WORKLOADS = ("order-const", "order-empirical", "svag-scaling")
FNS = ("theta_0", "loss")

ORDER_ETAS = (0.2, 0.14, 0.1, 0.07)
EMPIRICAL_ETAS = (0.2, 0.14, 0.1)
SVAG_ELLS = (1, 2, 4, 8)
SCALING_RULES = ("sqrt-rmsprop", "linear-adam")

# Non-isotropic, correlated, fixed: the order-const problem does not depend
# on the workload seed, so its true gaps are the same for every seed.
CONST_A = np.diag([1.0, 0.5, 0.25, 0.125])
CONST_SIGMA = np.array(
    [
        [1.0, 0.3, 0.0, 0.0],
        [0.3, 0.6, 0.1, 0.0],
        [0.0, 0.1, 0.4, 0.05],
        [0.0, 0.0, 0.05, 0.2],
    ]
)
LS_POINTS, LS_DIM = 64, 4


@dataclass(frozen=True)
class Experiment:
    """One harness call and the cells it reports on."""

    name: str
    kind: str  # order | svag | scaling
    cells: tuple[str, ...]
    seeds: int
    call: Callable[[], object]


def seeds_for(seed: int) -> tuple[np.random.Generator, int]:
    """Problem-data generator and library root seed, both derived from the workload seed."""
    data_ss, root_ss = np.random.SeedSequence(int(seed)).spawn(2)
    return np.random.default_rng(data_ss), int(root_ss.generate_state(1, np.uint64)[0])


def const_problem():
    return QuadraticProblem(CONST_A), ConstantCovariance(CONST_SIGMA)


def least_squares_problem(rng: np.random.Generator) -> LeastSquaresProblem:
    x = rng.standard_normal((LS_POINTS, LS_DIM))
    theta_star = rng.standard_normal(LS_DIM)
    y = x @ theta_star + 0.5 * rng.standard_normal(LS_POINTS)
    return LeastSquaresProblem(x, y)


def _order(name, setup, etas, root_seed) -> Experiment:
    cells = tuple(f"{name}/eta={eta!r}" for eta in sorted(etas, reverse=True))
    return Experiment(
        name, "order", cells, setup.seeds,
        lambda: harness.order_sweep(setup, etas, FNS, root_seed),
    )


def _order_const(rng, root_seed) -> list[Experiment]:
    problem, cov = const_problem()
    common = dict(theta0=np.ones(4), T=1.0, seeds=200, em_substeps=20, coupled=True)
    setups = {
        "rmsprop": harness.ApproximationSetup(problem, cov, "rmsprop", u0=np.ones(4), **common),
        "adam": harness.ApproximationSetup(problem, cov, "adam", u0=np.ones(4), c1=1.0, **common),
        "sgd": harness.ApproximationSetup(problem, cov, "sgd", **common),
    }
    return [_order(f"order/{algo}", s, ORDER_ETAS, root_seed) for algo, s in setups.items()]


def _order_empirical(rng, root_seed) -> list[Experiment]:
    setup = harness.ApproximationSetup(
        least_squares_problem(rng), EmpiricalCovariance(), "rmsprop",
        theta0=np.zeros(LS_DIM), u0=np.ones(LS_DIM), T=1.0, seeds=100,
        em_substeps=20, coupled=True,
    )
    return [_order("order/rmsprop", setup, EMPIRICAL_ETAS, root_seed)]


def _svag_scaling(rng, root_seed) -> list[Experiment]:
    problem, cov = const_problem()
    setup = harness.ApproximationSetup(
        problem, cov, "rmsprop", theta0=np.ones(4), u0=np.ones(4), T=1.0, seeds=2000
    )
    svag = Experiment(
        "svag/rmsprop", "svag", tuple(f"svag/rmsprop/ell={ell}" for ell in SVAG_ELLS),
        setup.seeds, lambda: harness.svag_sweep(setup, 0.2, SVAG_ELLS, FNS, root_seed),
    )
    ls = least_squares_problem(rng)
    plans = {
        "sqrt-rmsprop": ("rmsprop", make_plan("sqrt-rmsprop", HyperParams(eta=0.05, beta=0.99), 4)),
        "linear-adam": ("adam", make_plan("linear-adam", HyperParams(eta=0.05, beta2=0.99), 4)),
    }

    def scaling(rule):
        algo, plan = plans[rule]
        return Experiment(
            f"scaling/{rule}", "scaling", (f"scaling/{rule}",), 2000,
            lambda: harness.validate_scaling(
                plan, ls, algo, FNS, base_steps=400, checkpoints=(100, 200, 300, 400),
                seeds=2000, root_seed=root_seed, batch_size=4,
            ),
        )

    return [svag] + [scaling(rule) for rule in SCALING_RULES]


_FACTORIES = {
    "order-const": _order_const,
    "order-empirical": _order_empirical,
    "svag-scaling": _svag_scaling,
}


def build(workload: str, seed: int) -> list[Experiment]:
    """The workload's experiments, with problem data and root seed from ``seed``."""
    if workload not in _FACTORIES:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng, root_seed = seeds_for(seed)
    return _FACTORIES[workload](rng, root_seed)
