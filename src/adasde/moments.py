"""One-step moment formulas and Monte Carlo estimators of step differences.

The analytic moments carry the exact first moments and the leading-order
second moments of a single update in (theta[, m], u) coordinates; every
block not listed decays like eta^4 and is stored as zero. Monte Carlo
estimators measure the same quantities from repeated single steps, so the
two can be compared entrywise with an eta^4-sized slack.

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
from .scaling import hyperparams_from_constants
from .sde import SdeSystem, _em_loop
from .stats import fit_loglog_slope, jackknife_moments, select_third_triples

__all__ = [
    "OneStepMoments",
    "MomentComparisonReport",
    "analytic_rmsprop_moments",
    "analytic_adam_moments",
    "mc_discrete_moments",
    "mc_sde_moments",
    "compare_moments",
    "residual_decay_sweep",
]


@dataclass(frozen=True)
class OneStepMoments:
    """First/second/selected-third moments of a one-step difference."""

    eta: float
    first: np.ndarray          # (D,)
    second: np.ndarray         # (D, D), raw moments E[Delta_i Delta_j]
    third_diag: np.ndarray     # (D,)
    third_triples: tuple       # index triples measured off the diagonal
    third_triple_values: np.ndarray
    source: str                # analytic-discrete | mc-discrete | mc-sde
    first_se: np.ndarray | None = None
    second_se: np.ndarray | None = None
    third_diag_se: np.ndarray | None = None
    third_triple_se: np.ndarray | None = None

    def __post_init__(self):
        if self.second.shape != (self.first.size, self.first.size):
            raise ValueError("second moment shape mismatch")
        if not np.allclose(self.second, self.second.T, atol=1e-12):
            raise ValueError("second moment must be symmetric")

    @property
    def dim(self) -> int:
        return self.first.size


def _check_positive_u(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0):
        raise ValueError("u must be positive coordinatewise")
    return u


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

    triples = tuple(select_third_triples(2 * d))
    return OneStepMoments(
        eta=eta,
        first=first,
        second=second,
        third_diag=np.zeros(2 * d),
        third_triples=triples,
        third_triple_values=np.zeros(len(triples)),
        source="analytic-discrete",
    )


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

    triples = tuple(select_third_triples(3 * d))
    return OneStepMoments(
        eta=eta,
        first=first,
        second=second,
        third_diag=np.zeros(3 * d),
        third_triples=triples,
        third_triple_values=np.zeros(len(triples)),
        source="analytic-discrete",
    )


def _moments_from_samples(delta: np.ndarray, eta: float, source: str) -> OneStepMoments:
    triples = tuple(select_third_triples(delta.shape[1]))
    first, first_se, second, second_se, third_diag, third_diag_se, tvals, tses = jackknife_moments(
        delta, triples, centered=False
    )
    return OneStepMoments(
        eta=eta,
        first=first,
        second=0.5 * (second + second.T),
        third_diag=third_diag,
        third_triples=triples,
        third_triple_values=tvals,
        source=source,
        first_se=first_se,
        second_se=second_se,
        third_diag_se=third_diag_se,
        third_triple_se=tses,
    )


def mc_discrete_moments(
    problem: Problem,
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
    if algo not in ("rmsprop", "adam"):
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
    return _moments_from_samples(delta, hp.eta, "mc-discrete")


def mc_sde_moments(
    system: SdeSystem,
    x,
    t: float,
    eta: float,
    samples: int,
    dt: float,
    rng: np.random.Generator,
) -> OneStepMoments:
    """Monte Carlo moments of X_{t + eta^2} - x over integrated paths from x."""
    if samples < 1000:
        raise ValueError("need at least 1000 samples")
    if not 0 < dt <= eta**2 / 10:
        raise ValueError("dt must lie in (0, eta^2 / 10]")
    x = np.asarray(x, dtype=float)
    x0 = np.broadcast_to(x, (samples, x.size)).copy()
    n_steps = int(round(eta**2 / dt))
    x1 = _em_loop(system, x0, t, eta**2 / n_steps, n_steps, rng)
    return _moments_from_samples(x1 - x, eta, "mc-sde")


@dataclass(frozen=True)
class MomentComparisonReport:
    """Entrywise gaps between two moment estimates and their eta^4 ratios."""

    eta: float
    first_gap: np.ndarray
    first_se: np.ndarray
    second_gap: np.ndarray
    second_se: np.ndarray
    third_diag_gap: np.ndarray
    third_diag_se: np.ndarray
    triples: tuple
    triple_gap: np.ndarray
    triple_se: np.ndarray
    tol_eta4: float
    passed: bool

    @property
    def max_gap(self) -> float:
        return float(
            max(
                np.max(np.abs(self.first_gap)),
                np.max(np.abs(self.second_gap)),
                np.max(np.abs(self.third_diag_gap)),
                np.max(np.abs(self.triple_gap)) if self.triple_gap.size else 0.0,
            )
        )


def _combined_se(a, b, shape) -> np.ndarray:
    out = np.zeros(shape)
    for se in (a, b):
        if se is not None:
            out = np.sqrt(out**2 + se**2)
    return out


def compare_moments(a: OneStepMoments, b: OneStepMoments, tol_eta4: float = 0.0) -> MomentComparisonReport:
    """Compare two moment estimates entrywise.

    An entry passes when |gap| <= max(4 * combined SE, tol_eta4 * eta^4); the
    tolerance absorbs the eta^4 terms the analytic leading forms drop.
    """
    if a.dim != b.dim:
        raise ValueError("moment dimensions differ")
    if a.eta != b.eta:
        raise ValueError("moments were taken at different eta")
    if a.third_triples != b.third_triples:
        raise ValueError("third-moment triples differ")
    eta = a.eta
    first_gap = a.first - b.first
    second_gap = a.second - b.second
    third_gap = a.third_diag - b.third_diag
    triple_gap = a.third_triple_values - b.third_triple_values
    first_se = _combined_se(a.first_se, b.first_se, first_gap.shape)
    second_se = _combined_se(a.second_se, b.second_se, second_gap.shape)
    third_se = _combined_se(a.third_diag_se, b.third_diag_se, third_gap.shape)
    triple_se = _combined_se(a.third_triple_se, b.third_triple_se, triple_gap.shape)

    slack = tol_eta4 * eta**4
    ok = True
    for gap, se in (
        (first_gap, first_se),
        (second_gap, second_se),
        (third_gap, third_se),
        (triple_gap, triple_se),
    ):
        ok = ok and bool(np.all(np.abs(gap) <= np.maximum(4.0 * se, slack)))
    return MomentComparisonReport(
        eta=eta,
        first_gap=first_gap,
        first_se=first_se,
        second_gap=second_gap,
        second_se=second_se,
        third_diag_gap=third_gap,
        third_diag_se=third_se,
        triples=a.third_triples,
        triple_gap=triple_gap,
        triple_se=triple_se,
        tol_eta4=tol_eta4,
        passed=ok,
    )


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
