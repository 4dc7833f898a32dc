"""Discrete update rules and the trajectory runner.

``run_discrete`` runs a trajectory ensemble to its end; ``discrete_loop`` is
the same loop held open, one step per ``next``, so that several runs can
advance together.

Conventions that matter for comparisons with the continuous systems:

* The parameter update divides by the pre-update second-moment estimate
  (v_k, not v_{k+1}).
* Adam's second-moment correction at step k uses 1 - beta2^k, which is
  undefined at k = 0; we take v_hat = v there and start correcting at k = 1.
* One gradient is drawn per step and never reused across optimizers.
* A state is an ensemble: theta/m/v of one (seeds, d) shape advance in
  lockstep (the step index k is shared), and no step writes into them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

import numpy as np

from .ngos import GradientOracle
from .recording import NonFiniteError, StateView, TestFunctionSet, TrajectoryRecord, _Recorder

__all__ = [
    "HyperParams",
    "OptimizerState",
    "ALGORITHMS",
    "rmsprop_step",
    "adam_step",
    "sgd_step",
    "step_function",
    "run_discrete",
    "discrete_loop",
    "finish",
    "NonFiniteError",
]


@dataclass(frozen=True)
class HyperParams:
    eta: float
    beta: float = 0.999
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 0.0

    def __post_init__(self):
        if not self.eta > 0:
            raise ValueError("eta must be positive")
        for name in ("beta", "beta1", "beta2"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"{name} out of [0,1]: {val}")
        if not self.epsilon >= 0:
            raise ValueError("epsilon must be nonnegative")


@dataclass(frozen=True, eq=False)
class OptimizerState:
    """Iterate at step k: theta, m and v, float arrays of one (seeds, d) shape.

    ``initial`` makes them, nothing writes into them, and a run checks them where it starts.
    """

    theta: np.ndarray
    m: np.ndarray
    v: np.ndarray
    k: int = 0

    @classmethod
    def initial(cls, theta0, v0) -> "OptimizerState":
        """State at step 0 with zero momentum; v0 (>= 0) broadcasts to theta0's shape."""
        theta = np.asarray(theta0, dtype=float)
        v = np.broadcast_to(np.asarray(v0, dtype=float), theta.shape).copy()
        if np.any(v < 0):
            raise ValueError("v must be nonnegative coordinatewise")
        return cls(theta, np.zeros(theta.shape), v)


def rmsprop_step(state: OptimizerState, g: np.ndarray, hp: HyperParams) -> OptimizerState:
    """theta' = theta - eta * g / (sqrt(v) + eps); v' = beta v + (1-beta) g^2."""
    g = np.asarray(g, dtype=float)
    denom = np.sqrt(state.v)
    denom += hp.epsilon
    if np.any(denom == 0.0):
        raise ValueError("sqrt(v) + epsilon vanishes in some coordinate")
    return OptimizerState(
        _descend(state.theta, hp.eta * g, denom), state.m, _decay(state.v, g, hp.beta), state.k + 1
    )


def adam_step(state: OptimizerState, g: np.ndarray, hp: HyperParams) -> OptimizerState:
    """Momentum and second-moment updates with bias correction.

    The correction for v uses the pre-update v at exponent k (identity at
    k = 0 by convention); the correction for m uses the post-update m at
    exponent k + 1. It is the one step that reads k, so it rejects k < 0.
    """
    g = np.asarray(g, dtype=float)
    k = state.k
    if k < 0:
        raise ValueError(f"step index must be nonnegative, got {k}")
    bc1 = 1.0 - hp.beta1 ** (k + 1)
    if bc1 == 0.0:
        raise ValueError("beta1 = 1 makes the momentum correction undefined")
    m = hp.beta1 * state.m
    m += (1.0 - hp.beta1) * g
    if k == 0:
        v_hat = state.v
    else:
        bc2 = 1.0 - hp.beta2**k
        if bc2 == 0.0:
            raise ValueError("beta2 = 1 makes the second-moment correction undefined")
        v_hat = state.v / bc2
    denom = np.sqrt(v_hat)
    denom += hp.epsilon
    if np.any(denom == 0.0):
        raise ValueError("sqrt(v_hat) + epsilon vanishes in some coordinate")
    step = m / bc1
    step *= hp.eta
    return OptimizerState(_descend(state.theta, step, denom), m, _decay(state.v, g, hp.beta2), k + 1)


def _descend(theta: np.ndarray, step: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """theta - step / denom, computed in ``step``, a fresh temporary of the caller's."""
    step /= denom
    return np.subtract(theta, step, out=step)


def _decay(v: np.ndarray, g: np.ndarray, beta: float) -> np.ndarray:
    """beta v + (1 - beta) g g, in that evaluation order, in fresh arrays; v is only read."""
    w = (1.0 - beta) * g
    w *= g
    out = beta * v
    out += w
    return out


def sgd_step(state: OptimizerState, g: np.ndarray, hp: HyperParams) -> OptimizerState:
    g = np.asarray(g, dtype=float)
    return OptimizerState(state.theta - hp.eta * g, state.m, state.v, state.k + 1)


_STEPS = {"rmsprop": rmsprop_step, "adam": adam_step, "sgd": sgd_step}
ALGORITHMS = tuple(_STEPS)


def step_function(algo: str):
    try:
        return _STEPS[algo]
    except KeyError:
        raise ValueError(f"unknown algorithm {algo!r}; expected one of {ALGORITHMS}") from None


def effective_time_step(algo: str, eta: float) -> float:
    """Continuous time advanced per discrete step: eta for SGD, eta^2 otherwise."""
    return eta if algo == "sgd" else eta * eta


def run_discrete(
    oracle: GradientOracle,
    algo: str,
    hp: HyperParams,
    init: OptimizerState,
    steps: int,
    fns: TestFunctionSet,
    checkpoints,
    rng: np.random.Generator,
) -> TrajectoryRecord:
    """Run an ensemble of discrete trajectories and record test functions.

    ``init.theta`` of shape (seeds, d) advances all seeds through a shared
    vectorized noise stream.
    The problem is the oracle's. Checkpoints are step indices in [0, steps];
    recorded states carry u = v / sigma_effective^2 so discrete and
    continuous records share a domain. Any non-finite value aborts with the offending step index.
    """
    return finish(discrete_loop(oracle, algo, hp, init, steps, fns, checkpoints, rng))


def discrete_loop(
    oracle: GradientOracle,
    algo: str,
    hp: HyperParams,
    init: OptimizerState,
    steps: int,
    fns: TestFunctionSet,
    checkpoints,
    rng: np.random.Generator,
) -> Generator[None, None, TrajectoryRecord]:
    """``run_discrete``'s loop, resumable: each ``next`` runs one step.

    Takes ``run_discrete``'s arguments. Nothing runs until the first
    ``next``, which also records step 0. After the last step the generator
    returns the record, which ``finish`` reads; runs held as loops can thus
    advance together, each on its own schedule. The first ``next`` checks
    the start: one (seeds, d) shape, v >= 0 and k >= 0, which every step
    keeps, and finite values, a failure raising NonFiniteError at the
    start's step. After that each step checks only the arrays it rebuilt
    (RMSprop passes m on, SGD m and v) and raises NonFiniteError with its
    step index when one holds a non-finite value.
    """
    step = step_function(algo)
    recorder = _Recorder(fns, checkpoints, steps)
    state = init
    shapes = [np.shape(a) for a in (state.theta, state.m, state.v)]
    if len(shapes[0]) != 2 or shapes.count(shapes[0]) != 3:
        raise ValueError(f"theta, m and v must share one (seeds, d) shape, got {shapes}")
    if np.any(state.v < 0):
        raise ValueError("v must be nonnegative coordinatewise")
    if state.k < 0:
        raise ValueError(f"step index must be nonnegative, got {state.k}")
    if not _finite(state):
        raise NonFiniteError(state.k, f"algo={algo}, eta={hp.eta}")

    sigma = oracle.sigma_effective
    dt_e = effective_time_step(algo, hp.eta)
    adaptive = algo in ("rmsprop", "adam")

    def snapshot(s: OptimizerState) -> None:
        u = s.v / sigma**2 if (adaptive and sigma > 0) else None
        view = StateView(
            theta=s.theta,
            t=s.k * dt_e,
            k=s.k,
            problem=oracle.problem,
            m=s.m if algo == "adam" else None,
            u=u,
        )
        recorder.record(view)

    if 0 in recorder.checkpoints:
        snapshot(state)
    for n in range(1, steps + 1):
        g = oracle.sample(state.theta, rng)
        new = step(state, g, hp)
        if not _finite(new, state):
            raise NonFiniteError(new.k, f"algo={algo}, eta={hp.eta}")
        state = new
        if n in recorder.checkpoints:
            snapshot(state)
        yield
    return recorder.build()


def _finite(state: OptimizerState, prev: OptimizerState | None = None) -> bool:
    """Whether theta, m and v are finite, reading only those not passed on from ``prev``."""
    old = (None, None, None) if prev is None else (prev.theta, prev.m, prev.v)
    return all(np.isfinite(a).all() for a, b in zip((state.theta, state.m, state.v), old) if a is not b)


def finish(loop: Generator[None, None, TrajectoryRecord]) -> TrajectoryRecord:
    """Run a discrete loop's remaining steps and return its record."""
    while True:
        try:
            next(loop)
        except StopIteration as done:
            return done.value
