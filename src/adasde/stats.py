"""Small statistics helpers shared by the estimators and the sweep harness.

``Moments`` is the one result of the moment estimator ``jackknife_moments``:
first, second and selected third moments, each with its standard error.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Moments",
    "jackknife_se",
    "select_third_triples",
    "jackknife_moments",
    "fit_loglog_slope",
]


@dataclass(frozen=True, eq=False)
class Moments:
    """First, second and selected third moments of a (d,) variable, with SEs.

    ``third_diag`` holds E[x_i^3] for every i, ``triple_values`` holds
    E[x_i x_j x_k] for each (i, j, k) in ``triples``. An exact estimate
    carries standard errors of zero.
    """

    first: np.ndarray          # (d,)
    first_se: np.ndarray
    second: np.ndarray         # (d, d), symmetric
    second_se: np.ndarray
    third_diag: np.ndarray     # (d,)
    third_diag_se: np.ndarray
    triples: tuple             # index triples measured off the diagonal
    triple_values: np.ndarray
    triple_se: np.ndarray

    def __post_init__(self):
        d, t = self.first.size, len(self.triples)
        shapes = {
            "first": (d,), "first_se": (d,), "second": (d, d), "second_se": (d, d),
            "third_diag": (d,), "third_diag_se": (d,), "triple_values": (t,), "triple_se": (t,),
        }
        for name, shape in shapes.items():
            got = np.shape(getattr(self, name))
            if got != shape:
                raise ValueError(f"{name} has shape {got}, expected {shape} for dim {d}, {t} triples")
        if not np.allclose(self.second, self.second.T, atol=1e-12):
            raise ValueError("second moment must be symmetric")

    @property
    def dim(self) -> int:
        return self.first.size


def jackknife_se(per_sample_terms: np.ndarray) -> np.ndarray:
    """Delete-one jackknife standard error of a mean-of-terms statistic over axis 0.

    For a statistic that is the average of per-sample terms, the delete-one
    jackknife SE reduces exactly to std(terms, ddof=1) / sqrt(n).
    """
    terms = np.asarray(per_sample_terms, dtype=float)
    n = terms.shape[0]
    if n < 2:
        raise ValueError("need at least 2 samples for a jackknife")
    return np.std(terms, axis=0, ddof=1) / np.sqrt(n)


def select_third_triples(dim: int, count: int = 20) -> list[tuple[int, int, int]]:
    """Deterministic sample of off-diagonal index triples i <= j <= k.

    Diagonal entries (i == j == k) are tracked separately, so they are
    excluded here. The selection depends only on (dim, count).
    """
    triples = [
        (i, j, k)
        for i in range(dim)
        for j in range(i, dim)
        for k in range(j, dim)
        if not (i == j == k)
    ]
    if len(triples) <= count:
        return triples
    rng = np.random.default_rng(0x7E57)
    idx = rng.choice(len(triples), size=count, replace=False)
    return [triples[i] for i in sorted(idx)]


def jackknife_moments(samples: np.ndarray, triples, centered: bool) -> Moments:
    """Mean, second and third moments of (n, d) samples, each with its jackknife SE.

    Second moments are the covariance (about the sample mean, divided by
    n - 1) when ``centered``, else the raw E[x_i x_j]; either is symmetrized.
    Third moments are raw: E[x_i^3] for every i and E[x_i x_j x_k] for each
    (i, j, k) in ``triples``.
    """
    n, d = samples.shape
    mean = np.mean(samples, axis=0)
    mean_se = jackknife_se(samples)
    base = samples - mean if centered else samples
    second = base.T @ base / (n - 1 if centered else n)
    second = 0.5 * (second + second.T)
    second_se = np.empty((d, d))
    for i in range(d):  # row blocks bound the transient memory at large n
        second_se[i] = jackknife_se(base[:, i, None] * base)
    cubes = samples**3
    third_diag, third_diag_se = np.mean(cubes, axis=0), jackknife_se(cubes)
    triple_values = np.empty(len(triples))
    triple_se = np.empty(len(triples))
    for t_idx, (i, j, k) in enumerate(triples):
        terms = samples[:, i] * samples[:, j] * samples[:, k]
        triple_values[t_idx] = np.mean(terms)
        triple_se[t_idx] = jackknife_se(terms)
    return Moments(
        first=mean,
        first_se=mean_se,
        second=second,
        second_se=second_se,
        third_diag=third_diag,
        third_diag_se=third_diag_se,
        triples=tuple(triples),
        triple_values=triple_values,
        triple_se=triple_se,
    )


def fit_loglog_slope(x: np.ndarray, y: np.ndarray) -> float | np.ndarray:
    """Least-squares slope of log(y) against log(x); x, y must be finite and positive.

    y of shape (k,) for k points gives one slope; y of shape (k, B) fits
    each of its B columns against x and gives B slopes, each bitwise the one
    its column alone would give.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("log-log fit needs finite values")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("log-log fit needs strictly positive values")
    if x.size < 2:
        raise ValueError("need at least 2 points to fit a slope")
    if not np.any(x != x[0]):
        raise ValueError("need at least 2 distinct x values to fit a slope")
    slope = np.polyfit(np.log(x), np.log(y), 1)[0]
    return float(slope) if y.ndim == 1 else slope
