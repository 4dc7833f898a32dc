"""The log-log slope fit that the sweeps use to read a decay order."""
from __future__ import annotations

import numpy as np

__all__ = ["fit_loglog_slope"]


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
