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

from .problems import CovarianceSpec, EmpiricalCovariance, Problem
from .stats import jackknife_moments, select_third_triples

__all__ = [
    "GradientOracle",
    "GaussianOracle",
    "MinibatchOracle",
    "BernoulliNoiseOracle",
    "SvagOracle",
    "NoiseMomentReport",
    "svag_coefficients",
    "estimate_noise_moments",
    "noise_dominance_ratio",
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

    def noise_covariance(self, theta: np.ndarray) -> np.ndarray:
        """Covariance Sigma(theta) of the normalized noise."""
        raise NotImplementedError


@dataclass(frozen=True)
class GaussianOracle(GradientOracle):
    """g = grad f + sigma * Sigma(theta)^{1/2} w with w standard normal."""

    problem: Problem
    cov: CovarianceSpec
    sigma: float

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")

    @property
    def sigma_effective(self) -> float:
        return self.sigma

    def noise_covariance(self, theta=None) -> np.ndarray:
        return self.cov.matrix(self.problem, theta)

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
    """

    problem: Problem
    batch_size: int

    def __post_init__(self):
        if not self.problem.is_finite_sum:
            raise ValueError("minibatch sampling needs a finite-sum problem")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")

    @property
    def sigma_effective(self) -> float:
        return 1.0 / math.sqrt(self.batch_size)

    def noise_covariance(self, theta) -> np.ndarray:
        return EmpiricalCovariance().matrix(self.problem, theta)

    def sample(self, theta, rng) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        n = self.problem.n_points
        x = self.problem.data
        y = self.problem.targets
        idx = rng.integers(0, n, size=theta.shape[:-1] + (self.batch_size,))
        xb = x[idx]  # (..., B, d)
        yb = y[idx]
        r = np.einsum("...bi,...i->...b", xb, theta) - yb
        return np.einsum("...b,...bi->...i", r, xb) / self.batch_size


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
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")

    @property
    def sigma_effective(self) -> float:
        return self.sigma

    @property
    def skewness(self) -> float:
        return (1.0 - 2.0 * self.p) / math.sqrt(self.p * (1.0 - self.p))

    def noise_covariance(self, theta=None) -> np.ndarray:
        return np.eye(self.problem.dim)

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
    if ell < 1:
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

    def noise_covariance(self, theta=None) -> np.ndarray:
        return self.inner.noise_covariance(theta)

    def sample(self, theta, rng) -> np.ndarray:
        if self.r1 == 0.0:
            return self.inner.sample(theta, rng)
        g1 = self.inner.sample(theta, rng)
        g2 = self.inner.sample(theta, rng)
        return self.r1 * g1 + self.r2 * g2


@dataclass(frozen=True)
class NoiseMomentReport:
    """Empirical moments of the normalized noise with jackknife errors."""

    mean: np.ndarray
    mean_se: np.ndarray
    covariance: np.ndarray
    covariance_se: np.ndarray
    third_diag: np.ndarray
    third_diag_se: np.ndarray
    third_triples: list[tuple[int, int, int]]
    third_triples_values: np.ndarray
    third_triples_se: np.ndarray
    third_moment_norm: float
    sample_count: int
    sigma_effective: float


def estimate_noise_moments(
    oracle: GradientOracle,
    theta,
    samples: int,
    rng: np.random.Generator,
) -> NoiseMomentReport:
    """Estimate mean, covariance, and third moments of z = (g - grad f) / scale.

    Third moments cover all diagonal entries E[z_i^3]; off-diagonal triples
    are measured exhaustively for d <= 8 and on a seeded random subset of 20
    triples otherwise.
    """
    if samples < 100:
        raise ValueError("need at least 100 samples")
    sigma = oracle.sigma_effective
    if sigma == 0.0:
        raise ValueError("noise moments are undefined at zero noise scale")
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1:
        raise ValueError("theta must be a single parameter vector")
    d = theta.size

    grad = oracle.problem.full_gradient(theta)
    g = oracle.sample(np.broadcast_to(theta, (samples, d)), rng)
    z = (g - grad) / sigma

    # a count of d^3 exceeds the number of triples, so small d gets all of them
    triples = select_third_triples(d, count=20 if d > 8 else d**3)
    mean, mean_se, cov, cov_se, third_diag, third_diag_se, tvals, tses = jackknife_moments(
        z, triples, centered=True
    )
    all_measured = np.concatenate([third_diag, tvals])
    return NoiseMomentReport(
        mean=mean,
        mean_se=mean_se,
        covariance=cov,
        covariance_se=cov_se,
        third_diag=third_diag,
        third_diag_se=third_diag_se,
        third_triples=triples,
        third_triples_values=tvals,
        third_triples_se=tses,
        third_moment_norm=float(np.max(np.abs(all_measured))),
        sample_count=samples,
        sigma_effective=sigma,
    )


def noise_dominance_ratio(
    oracle: GradientOracle,
    theta,
    samples: int,
    rng: np.random.Generator,
) -> float:
    """Monte Carlo estimate of E||g - grad f||^2 / ||grad f||^2.

    Values far above 1 indicate the noise-dominated regime. Returns +inf
    when the gradient vanishes but the noise does not ("fully
    noise-dominated"); a vanishing gradient with zero noise is an error.
    """
    if samples < 100:
        raise ValueError("need at least 100 samples")
    theta = np.asarray(theta, dtype=float)
    grad = oracle.problem.full_gradient(theta)
    grad_sq = float(grad @ grad)
    if oracle.sigma_effective == 0.0:
        if grad_sq == 0.0:
            raise ValueError("both the gradient and the noise vanish; ratio undefined")
        return 0.0
    if grad_sq == 0.0:
        return math.inf
    g = oracle.sample(np.broadcast_to(theta, (samples, theta.size)), rng)
    noise_sq = np.sum((g - grad) ** 2, axis=1)
    return float(np.mean(noise_sq) / grad_sq)
