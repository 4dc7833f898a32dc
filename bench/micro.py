"""Per-call microbenchmarks of single layers, at the workloads' shapes.

Each entry times one public function on inputs the size the workloads feed
it, and reports the median time per call over a few blocks of calls.
"""
from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from adasde import (
    EmpiricalCovariance,
    GaussianOracle,
    HyperParams,
    MinibatchOracle,
    OptimizerState,
    TestFunctionSet,
    adam_step,
    build_rmsprop_sde,
    rmsprop_step,
)
from adasde.recording import StateView
from adasde.stats import fit_loglog_slope

import workloads

BLOCKS = 5
BLOCK_SECONDS = 0.02


def _per_call_us(fn) -> float:
    """Median microseconds per call over BLOCKS blocks of about BLOCK_SECONDS each."""
    fn()
    t0 = perf_counter()
    fn()
    reps = max(1, int(BLOCK_SECONDS / max(perf_counter() - t0, 1e-7)))
    samples = []
    for _ in range(BLOCKS):
        t0 = perf_counter()
        for _ in range(reps):
            fn()
        samples.append((perf_counter() - t0) / reps * 1e6)
    return statistics.median(samples)


def cases(seed: int) -> dict:
    """Callables for every microbenchmark, with inputs derived from ``seed``."""
    data_rng, _ = workloads.seeds_for(seed)
    rng = np.random.default_rng(seed)
    quad, const = workloads.const_problem()
    ls = workloads.least_squares_problem(data_rng)
    emp = EmpiricalCovariance()
    d = quad.dim

    theta200 = rng.standard_normal((200, d))
    theta100 = rng.standard_normal((100, d))
    theta2000 = rng.standard_normal((2000, d))
    gaussian = GaussianOracle(quad, const, sigma=5.0)
    minibatch = MinibatchOracle(ls, 4)
    state = OptimizerState.initial(theta200, v0=np.ones((200, d)))
    grad = rng.standard_normal((200, d))
    hp = HyperParams(eta=0.1, beta=0.99, beta2=0.99)

    sys_const = build_rmsprop_sde(quad, const, 1.0, 0.0, 1.0)
    sys_emp = build_rmsprop_sde(ls, emp, 1.0, 0.0, 1.0)
    x200 = np.concatenate([theta200, np.ones((200, d))], axis=1)
    x100 = np.concatenate([theta100, np.ones((100, d))], axis=1)
    dw200 = rng.standard_normal((200, d))
    dw100 = rng.standard_normal((100, d))

    fns = TestFunctionSet.from_names(list(workloads.FNS), d)
    view = StateView(theta=theta200, t=0.5, k=10, problem=quad, u=np.ones((200, d)), cov=const)
    etas = np.array(workloads.ORDER_ETAS)
    gaps = 0.3 * etas**2

    return {
        "gaussian_sample": lambda: gaussian.sample(theta200, rng),
        "minibatch_sample": lambda: minibatch.sample(theta2000, rng),
        "rmsprop_step": lambda: rmsprop_step(state, grad, hp),
        "adam_step": lambda: adam_step(state, grad, hp),
        "drift_const": lambda: sys_const.drift(x200, 0.5),
        "apply_diffusion_const": lambda: sys_const.apply_diffusion(x200, 0.5, dw200),
        "drift_empirical": lambda: sys_emp.drift(x100, 0.5),
        "apply_diffusion_empirical": lambda: sys_emp.apply_diffusion(x100, 0.5, dw100),
        "cov_sqrt_empirical": lambda: emp.sqrt(ls, theta100),
        "cov_diagonal_empirical": lambda: emp.diagonal(ls, theta100),
        "evaluate": lambda: fns.evaluate(view),
        "fit_loglog_slope": lambda: fit_loglog_slope(etas, gaps),
    }


def run(seed: int) -> dict[str, float]:
    """Median microseconds per call for every microbenchmark."""
    return {name: _per_call_us(fn) for name, fn in cases(seed).items()}
