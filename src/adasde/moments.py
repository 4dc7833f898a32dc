"""One-step moment formulas and the Monte Carlo estimator of discrete step differences.

The analytic moments carry the exact first moments and the leading-order
second moments of a single update in (theta[, m], u) coordinates; every
block not listed decays like eta^4 and is stored as zero. The one Monte
Carlo estimator, ``mc_discrete_moments``, measures the same quantities
from repeated single discrete steps, so the two can be compared entrywise
with an eta^4-sized slack. The SDE's side of a one-step comparison needs
no estimator: over time eta^2 its moments are eta^2 b(x) and
eta^2 s s' to leading order, read off the system's ``drift`` and
``apply_diffusion``. The latter gives only the driven block's rows of s
(its increment on each unit draw); every other row of s is zero.

A one-step estimate is a ``stats.Moments`` plus the eta it was taken at;
analytic estimates carry zero third moments and zero standard errors.

All formulas take the continuous-system constants (sigma0, epsilon0, c1,
c2) together with eta; ``scaling.hyperparams_from_constants`` gives the
discrete hyperparameters they imply.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ngos import GradientOracle
from .optimizers import HyperParams, OptimizerState, step_function
from .problems import CovarianceSpec, Problem
from .scaling import DECAYS, hyperparams_from_constants
from .stats import Moments, fit_loglog_slope, jackknife_moments, select_third_triples

__all__ = [
    "OneStepMoments",
    "MomentComparisonReport",
    "analytic_rmsprop_moments",
    "analytic_adam_moments",
    "mc_discrete_moments",
    "compare_moments",
    "residual_decay_sweep",
]


@dataclass(frozen=True, eq=False)
class OneStepMoments(Moments):
    """Moments of a one-step difference; ``second`` holds raw E[Delta_i Delta_j]."""

    eta: float


def _check_positive_u(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0):
        raise ValueError("u must be positive coordinatewise")
    return u


def _exact_moments(first: np.ndarray, second: np.ndarray, eta: float) -> OneStepMoments:
    """An analytic estimate: the given moments, zero third moments, zero SEs."""
    dim = first.size
    triples = tuple(select_third_triples(dim))
    return OneStepMoments(
        first=first,
        first_se=np.zeros(dim),
        second=second,
        second_se=np.zeros((dim, dim)),
        third_diag=np.zeros(dim),
        third_diag_se=np.zeros(dim),
        triples=triples,
        triple_values=np.zeros(len(triples)),
        triple_se=np.zeros(len(triples)),
        eta=eta,
    )


def analytic_rmsprop_moments(
    problem: Problem,
    cov: CovarianceSpec,
    theta,
    u,
    sigma0: float,
    epsilon0: float,
    c2: float,
    eta: float,
) -> OneStepMoments:
    """Exact first moments and leading second moments of one update from (theta, u)."""
    theta = np.asarray(theta, dtype=float)
    u = _check_positive_u(u)
    d = theta.size
    grad = problem.full_gradient(theta)
    sig = cov.matrix(problem, theta)
    sigma = sigma0 / eta

    first = np.zeros(2 * d)
    first[:d] = -(eta**2) * grad / (sigma0 * np.sqrt(u) + epsilon0)
    first[d:] = c2 * eta**2 * ((grad / sigma) ** 2 + np.diag(sig) - u)

    scale = np.sqrt(u) + epsilon0 / sigma0
    second = np.zeros((2 * d, 2 * d))
    second[:d, :d] = eta**2 * sig / np.outer(scale, scale)
    return _exact_moments(first, second, eta)


def analytic_adam_moments(
    problem: Problem,
    cov: CovarianceSpec,
    theta,
    m,
    u,
    sigma0: float,
    epsilon0: float,
    c1: float,
    c2: float,
    eta: float,
    k: int,
) -> OneStepMoments:
    """Exact first moments and leading second moments of one update from (theta, m, u).

    The step index enters through the bias corrections: gamma1 = 1 - beta1^(k+1)
    on the updated momentum and gamma2 = 1 - beta2^k on the pre-update second
    moment. k = 0 is rejected because gamma2 vanishes there.
    """
    if k < 1:
        raise ValueError("step index must be >= 1 (the second-moment correction vanishes at 0)")
    theta = np.asarray(theta, dtype=float)
    m = np.asarray(m, dtype=float)
    u = _check_positive_u(u)
    d = theta.size
    hp, sigma = hyperparams_from_constants("adam", eta, sigma0, epsilon0, c2, c1)
    gamma1 = 1.0 - hp.beta1 ** (k + 1)
    gamma2 = 1.0 - hp.beta2**k
    grad = problem.full_gradient(theta)
    sig = cov.matrix(problem, theta)

    first = np.zeros(3 * d)
    denom = sigma0 * np.sqrt(u) + epsilon0 * math.sqrt(gamma2)
    first[:d] = -(math.sqrt(gamma2) / gamma1) * eta**2 * (m + c1 * eta**2 * (grad - m)) / denom
    first[d : 2 * d] = c1 * eta**2 * (grad - m)
    first[2 * d :] = c2 * eta**2 * ((grad / sigma) ** 2 + np.diag(sig) - u)

    second = np.zeros((3 * d, 3 * d))
    second[d : 2 * d, d : 2 * d] = c1**2 * sigma0**2 * eta**2 * sig
    return _exact_moments(first, second, eta)


def _moments_from_samples(delta: np.ndarray, eta: float) -> OneStepMoments:
    triples = select_third_triples(delta.shape[1])
    return OneStepMoments(**vars(jackknife_moments(delta, triples, centered=False)), eta=eta)


def mc_discrete_moments(
    oracle: GradientOracle,
    algo: str,
    theta,
    u,
    hp: HyperParams,
    samples: int,
    rng: np.random.Generator,
    m=None,
    k: int = 1,
) -> OneStepMoments:
    """Monte Carlo moments of one discrete step from a fixed state.

    The state is given in u-coordinates; internally v = u * sigma_effective^2.
    Differences are reported in (theta[, m], u) coordinates. A noiseless
    oracle degenerates the normalization, so u is then read as v directly
    and the step is deterministic (all standard errors vanish).
    """
    if samples < 1000:
        raise ValueError("need at least 1000 samples")
    if not DECAYS.get(algo):
        raise ValueError("one-step moments are defined for the adaptive algorithms")
    theta = np.asarray(theta, dtype=float)
    u = _check_positive_u(u)
    d = theta.size
    sigma = oracle.sigma_effective if oracle.sigma_effective > 0 else 1.0
    v = u * sigma**2
    m0 = np.zeros(d) if m is None else np.asarray(m, dtype=float)

    state = OptimizerState(
        theta=np.broadcast_to(theta, (samples, d)).copy(),
        m=np.broadcast_to(m0, (samples, d)).copy(),
        v=np.broadcast_to(v, (samples, d)).copy(),
        k=k,
    )
    g = oracle.sample(state.theta, rng)
    new = step_function(algo)(state, g, hp)
    blocks = [new.theta - theta]
    if algo == "adam":
        blocks.append(new.m - m0)
    blocks.append((new.v - v) / sigma**2)
    delta = np.concatenate(blocks, axis=1)
    return _moments_from_samples(delta, hp.eta)


@dataclass(frozen=True, eq=False)
class MomentComparisonReport:
    """Entrywise gaps between two moment estimates and their combined SEs, per kind."""

    eta: float
    gaps: dict[str, np.ndarray]
    ses: dict[str, np.ndarray]
    tol_eta4: float
    passed: bool

    @property
    def max_gap(self) -> float:
        return max((float(np.max(np.abs(g))) for g in self.gaps.values() if g.size), default=0.0)


def compare_moments(a: OneStepMoments, b: OneStepMoments, tol_eta4: float = 0.0) -> MomentComparisonReport:
    """Compare two moment estimates entrywise.

    An entry passes when |gap| <= max(4 * combined SE, tol_eta4 * eta^4); the
    tolerance absorbs the eta^4 terms the analytic leading forms drop.
    """
    if a.dim != b.dim:
        raise ValueError("moment dimensions differ")
    if a.eta != b.eta:
        raise ValueError("moments were taken at different eta")
    if a.triples != b.triples:
        raise ValueError("third-moment triples differ")
    gaps = {kind: getattr(a, kind) - getattr(b, kind) for kind, _ in Moments.KINDS}
    ses = {kind: np.hypot(getattr(a, se), getattr(b, se)) for kind, se in Moments.KINDS}
    slack = tol_eta4 * a.eta**4
    passed = all(bool(np.all(np.abs(gaps[k]) <= np.maximum(4.0 * ses[k], slack))) for k in gaps)
    return MomentComparisonReport(eta=a.eta, gaps=gaps, ses=ses, tol_eta4=tol_eta4, passed=passed)


def residual_decay_sweep(
    make_analytic,
    make_mc,
    etas,
    block: slice,
) -> dict:
    """Fit the decay rate of |analytic - MC| over a second-moment block.

    ``make_analytic(eta)`` and ``make_mc(eta)`` produce OneStepMoments; the
    residual per eta is the largest absolute entry of the block difference.
    Returns the per-eta residuals and the fitted log-log slope (eta^4 terms
    give a slope near 4).
    """
    etas = sorted(float(e) for e in etas)
    residuals = []
    for eta in etas:
        a = make_analytic(eta)
        b = make_mc(eta)
        gap = np.abs(a.second[block, block] - b.second[block, block])
        residuals.append(float(np.max(gap)))
    slope = fit_loglog_slope(np.array(etas), np.array(residuals))
    return {"etas": list(etas), "residuals": residuals, "slope": slope}
