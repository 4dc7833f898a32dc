"""Test functions over recorded states and the trajectory record they fill.

Discrete runs and integrated paths are recorded through the same interface:
both take a step count and checkpoint step indices, which ``_Recorder``
checks. At a checkpoint step, and only there, the runner builds a StateView
(theta, optional momentum, optional noise-normalized second moment u,
continuous time t) and evaluates every test function on it, one value per
seed.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .problems import CovarianceSpec, Problem

__all__ = ["StateView", "TestFunctionSet", "TrajectoryRecord", "NonFiniteError"]


class NonFiniteError(RuntimeError):
    """A NaN or infinity appeared while advancing a trajectory."""

    def __init__(self, step: int, detail: str = ""):
        self.step = step
        super().__init__(f"non-finite state at step {step}" + (f": {detail}" if detail else ""))


@dataclass(frozen=True, eq=False)
class StateView:
    """Snapshot handed to test functions; arrays have shape (seeds, d).

    Nothing in this package reads ``k`` or ``cov``; they serve views built by hand.
    """

    theta: np.ndarray
    t: float
    k: int
    problem: Problem
    m: np.ndarray | None = None
    u: np.ndarray | None = None
    cov: CovarianceSpec | None = None


def _coord(which: str, i: int) -> Callable[[StateView], np.ndarray]:
    def fn(view: StateView) -> np.ndarray:
        arr = getattr(view, which)
        if arr is None:
            raise ValueError(f"state has no {which} block")
        return arr[:, i]

    return fn


def _theta_norm_sq(view: StateView) -> np.ndarray:
    return np.sum(view.theta**2, axis=-1)


def _loss(view: StateView) -> np.ndarray:
    return view.problem.loss(view.theta)


def _grad_norm(view: StateView) -> np.ndarray:
    g = view.problem.full_gradient(view.theta)
    return np.sqrt(np.sum(g**2, axis=-1))


_NAMED = {
    "theta_norm_sq": _theta_norm_sq,
    "loss": _loss,
    "grad_norm": _grad_norm,
}


class TestFunctionSet:
    """Ordered, named scalar functions of the recorded state."""

    __test__ = False  # not a pytest collectable

    def __init__(self, functions: dict[str, Callable[[StateView], np.ndarray]]):
        if not functions:
            raise ValueError("need at least one test function")
        self.functions = dict(functions)

    @property
    def names(self) -> list[str]:
        return list(self.functions)

    def evaluate(self, view: StateView) -> dict[str, np.ndarray]:
        out = {}
        for name, fn in self.functions.items():
            vals = np.asarray(fn(view), dtype=float)
            if not np.all(np.isfinite(vals)):
                raise ValueError(f"test function {name!r} produced non-finite values")
            out[name] = vals
        return out

    @classmethod
    def from_names(cls, names: list[str], dim: int) -> "TestFunctionSet":
        """Build a set from names (theta_norm_sq, loss, grad_norm, theta_i, u_i, m_i)."""
        fns = {}
        for name in names:
            if name in fns:
                raise ValueError(f"duplicate test function name {name!r}")
            if name in _NAMED:
                fns[name] = _NAMED[name]
                continue
            parts = name.rsplit("_", 1)
            if len(parts) == 2 and parts[0] in ("theta", "u", "m") and parts[1].isdigit():
                i = int(parts[1])
                if i >= dim:
                    raise ValueError(f"test function {name!r} indexes beyond dimension {dim}")
                fns[name] = _coord(parts[0], i)
            else:
                raise ValueError(f"unknown test function {name!r}")
        return cls(fns)


@dataclass(eq=False)
class TrajectoryRecord:
    """Per-checkpoint test-function samples over seeds.

    ``values[name]`` has shape (checkpoints, seeds); ``times`` is strictly
    increasing and shared by every function.
    """

    times: np.ndarray
    values: dict[str, np.ndarray]

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("checkpoint times must be strictly increasing")
        counts = {v.shape for v in self.values.values()}
        if len(counts) > 1:
            raise ValueError("all functions must share the same (checkpoints, seeds) shape")
        for name, v in self.values.items():
            if v.shape[0] != self.times.size:
                raise ValueError(f"function {name!r} has {v.shape[0]} rows, expected {self.times.size}")

    @property
    def seed_count(self) -> int:
        first = next(iter(self.values.values()))
        return first.shape[1]

    @property
    def names(self) -> list[str]:
        return list(self.values)

    def mean(self, name: str) -> np.ndarray:
        return np.mean(self.values[name], axis=1)

    def se(self, name: str) -> np.ndarray:
        v = self.values[name]
        return np.std(v, axis=1, ddof=1) / np.sqrt(v.shape[1])


class _Recorder:
    """Accumulates checkpoint evaluations into a TrajectoryRecord.

    Owns both runners' checkpoint rule: at least one step index, each an
    int (not a bool) in [0, steps]. A runner records a step only if it is in
    ``checkpoints``.
    """

    def __init__(self, fns: TestFunctionSet, checkpoints, steps: int):
        checkpoints = list(checkpoints)
        if not checkpoints:
            raise ValueError("need at least one checkpoint")
        for c in checkpoints:
            if isinstance(c, bool) or not isinstance(c, (int, np.integer)) or not 0 <= c <= steps:
                raise ValueError(f"checkpoints must be integers in [0, {steps}], got {c!r}")
        self.checkpoints = frozenset(int(c) for c in checkpoints)
        self.fns = fns
        self.times: list[float] = []
        self.rows: dict[str, list[np.ndarray]] = {name: [] for name in fns.names}

    def record(self, view: StateView) -> None:
        self.times.append(view.t)
        for name, vals in self.fns.evaluate(view).items():
            self.rows[name].append(vals)

    def build(self) -> TrajectoryRecord:
        values = {name: np.stack(rows) for name, rows in self.rows.items()}
        return TrajectoryRecord(times=np.array(self.times), values=values)
