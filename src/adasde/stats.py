"""Small statistics helpers shared by the estimators and the sweep harness."""
from __future__ import annotations

import numpy as np

__all__ = [
    "jackknife_se",
    "select_third_triples",
    "jackknife_moments",
    "fit_loglog_slope",
]


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


def jackknife_moments(samples: np.ndarray, triples, centered: bool) -> tuple[np.ndarray, ...]:
    """Mean, second and third moments of (n, d) samples, each with its jackknife SE.

    Second moments are the covariance (about the sample mean, divided by
    n - 1) when ``centered``, else the raw E[x_i x_j]. Third moments are raw:
    E[x_i^3] for every i and E[x_i x_j x_k] for each (i, j, k) in ``triples``.
    Returns (mean, mean_se, second, second_se, third_diag, third_diag_se,
    triple_values, triple_se).
    """
    n, d = samples.shape
    mean = np.mean(samples, axis=0)
    mean_se = jackknife_se(samples)
    base = samples - mean if centered else samples
    second = base.T @ base / (n - 1 if centered else n)
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
    return mean, mean_se, second, second_se, third_diag, third_diag_se, triple_values, triple_se


def fit_loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of log(y) against log(x); x, y must be positive."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("log-log fit needs strictly positive values")
    if x.size < 2:
        raise ValueError("need at least 2 points to fit a slope")
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])
