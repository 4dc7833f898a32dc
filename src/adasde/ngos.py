"""Noisy gradient oracles with an explicit noise-scale parameter.

Every oracle returns g = grad f(theta) + (scale) * z with mean-zero noise z
whose covariance Sigma(theta) is fixed across scales. The effective scale is
sigma for the Gaussian family, 1/sqrt(B) for minibatch sampling, and
ell * (inner scale) after noise amplification. Sampling is vectorized:
``theta`` of shape (..., d) yields one independent draw per leading index.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .problems import CovarianceSpec, LeastSquaresProblem, Problem

__all__ = [
    "GradientOracle",
    "GaussianOracle",
    "MinibatchOracle",
    "BernoulliNoiseOracle",
    "SvagOracle",
    "svag_coefficients",
]


class GradientOracle:
    """Interface: a stochastic gradient source tied to a problem."""

    problem: Problem

    def sample(self, theta: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One gradient draw per leading index of theta."""
        raise NotImplementedError

    @property
    def sigma_effective(self) -> float:
        """Scale that recovers normalized noise z = (g - grad f) / sigma_effective."""
        raise NotImplementedError


@dataclass(frozen=True)
class GaussianOracle(GradientOracle):
    """g = grad f + sigma * L(theta) w with w standard normal and L L' = Sigma(theta) (``cov.sqrt``)."""

    problem: Problem
    cov: CovarianceSpec
    sigma: float

    def __post_init__(self):
        if not self.sigma >= 0:
            raise ValueError("sigma must be nonnegative")

    @property
    def sigma_effective(self) -> float:
        return self.sigma

    def sample(self, theta, rng) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        grad = self.problem.full_gradient(theta)
        if self.sigma == 0.0:
            return grad
        w = self._standard_normal(theta.shape, rng)
        return grad + self.sigma * self.cov.apply_sqrt(self.problem, theta, w)

    def _standard_normal(self, shape, rng) -> np.ndarray:
        """The standard-normal block w of one draw; the only use of rng."""
        return rng.standard_normal(shape)


@dataclass(frozen=True)
class MinibatchOracle(GradientOracle):
    """Mean of B per-datum gradients from a finite-sum problem.

    The B indices are drawn uniformly with replacement, independently per
    leading index of theta, which makes the noise covariance exactly
    Sigma(theta) / B for any B >= 1 (B may exceed the number of points).

    ``sample`` draws the indices as one (..., B) block, so each leading
    index's stream is fixed by the rng alone. It then works seed-minor: the
    draw axis moves to the front, the rows are gathered from the data's
    transpose as (d, B, ...), and both contractions run with the leading
    (ensemble) axes innermost, where d and B are too short to vectorise
    over. The result is a fresh C-contiguous (..., d) array. The sums are
    those of the per-datum definition, but their order follows this layout,
    so a result may differ from a row-major contraction by rounding.
    """

    problem: LeastSquaresProblem
    batch_size: int

    def __post_init__(self):
        if not isinstance(self.problem, LeastSquaresProblem):  # sample reads its data and targets
            raise ValueError("minibatch sampling needs a finite-sum problem")
        if isinstance(self.batch_size, bool) or not isinstance(self.batch_size, (int, np.integer)):
            raise ValueError(f"batch_size must be an integer, got {self.batch_size!r}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")

    @property
    def sigma_effective(self) -> float:
        return 1.0 / math.sqrt(self.batch_size)

    def sample(self, theta, rng) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        problem = self.problem
        theta_t = np.ascontiguousarray(np.moveaxis(theta, -1, 0))  # (d, ...)
        idx = rng.integers(0, problem.n_points, size=theta.shape[:-1] + (self.batch_size,))
        idx = np.moveaxis(idx, -1, 0).copy()  # (B, ...), contiguous; the drawn block is freed
        r = np.take(problem.targets, idx)  # y at the draws, overwritten by the residuals
        xb = np.take(problem._data_t, idx, axis=1)  # (d, B, ...); take gathers faster than x[idx]
        del idx  # freed first, so the einsum's (B, ...) result can reuse its memory
        np.subtract(np.einsum("ib...,i...->b...", xb, theta_t), r, out=r)
        g = np.einsum("b...,ib...->i...", r, xb)
        return np.divide(np.moveaxis(g, 0, -1), self.batch_size, order="C")


@dataclass(frozen=True)
class BernoulliNoiseOracle(GradientOracle):
    """Coordinatewise centered-Bernoulli noise with unit variance.

    z_i = (X_i - p) / sqrt(p(1-p)) for X_i ~ Bernoulli(p), so Sigma = I and
    the per-coordinate skewness E[z^3] = (1 - 2p) / sqrt(p(1-p)) is nonzero
    for p != 1/2. Used as a known-skew test noise; its shape does not change
    with sigma.
    """

    problem: Problem
    sigma: float
    p: float = 0.2

    def __post_init__(self):
        if not 0 < self.p < 1:
            raise ValueError("p must lie strictly in (0, 1)")
        if not self.sigma >= 0:
            raise ValueError("sigma must be nonnegative")

    @property
    def sigma_effective(self) -> float:
        return self.sigma

    def sample(self, theta, rng) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        grad = self.problem.full_gradient(theta)
        if self.sigma == 0.0:
            return grad
        draws = rng.random(theta.shape) < self.p
        z = (draws - self.p) / math.sqrt(self.p * (1.0 - self.p))
        return grad + self.sigma * z


def svag_coefficients(ell: float) -> tuple[float, float]:
    """Combination weights (r1, r2) of the two-sample noise amplifier.

    r1 + r2 = 1 keeps the mean, and r1^2 + r2^2 = ell^2 amplifies the noise
    scale by ell.
    """
    if not ell >= 1:
        raise ValueError("ell must be >= 1")
    root = math.sqrt(2.0 * ell * ell - 1.0)
    return 0.5 * (1.0 - root), 0.5 * (1.0 + root)


@dataclass(frozen=True)
class SvagOracle(GradientOracle):
    """Noise amplifier: g_hat = r1 g1 + r2 g2 from two independent inner draws.

    The mean and covariance function are unchanged while the effective scale
    grows to ell * (inner scale). At ell = 1, r1 = 0 exactly and a single
    inner draw is returned, so the wrapped oracle replays the inner stream.
    """

    inner: GradientOracle
    ell: float
    r1: float = field(init=False)
    r2: float = field(init=False)

    def __post_init__(self):
        r1, r2 = svag_coefficients(self.ell)
        object.__setattr__(self, "r1", r1)
        object.__setattr__(self, "r2", r2)

    @property
    def problem(self) -> Problem:  # type: ignore[override]
        return self.inner.problem

    @property
    def sigma_effective(self) -> float:
        return self.ell * self.inner.sigma_effective

    def sample(self, theta, rng) -> np.ndarray:
        if self.r1 == 0.0:
            return self.inner.sample(theta, rng)
        g1 = self.inner.sample(theta, rng)
        g2 = self.inner.sample(theta, rng)
        return self.r1 * g1 + self.r2 * g2
