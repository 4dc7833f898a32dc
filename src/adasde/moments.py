"""The Monte Carlo estimator of one discrete step's moments.

``mc_discrete_moments`` measures the first, second and selected third raw
moments of a single update from a fixed state, in (theta[, m], u)
coordinates, as a ``stats.Moments``. It is the discrete side of a one-step
moment comparison. The SDE's side needs no estimator: over time eta^2 its
moments are eta^2 b(x) and eta^2 s s' to leading order, read off the
system's ``drift`` and ``apply_diffusion``. The latter gives only the
driven block's rows of s (its increment on each unit draw); every other
row of s is zero.
"""
from __future__ import annotations

import numpy as np

from .ngos import GradientOracle
from .optimizers import HyperParams, OptimizerState, step_function
from .scaling import DECAYS
from .stats import Moments, jackknife_moments, select_third_triples

__all__ = ["mc_discrete_moments"]


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
) -> Moments:
    """Monte Carlo moments of one discrete step from a fixed state.

    The state is given in u-coordinates; internally v = u * sigma_effective^2.
    Differences are reported in (theta[, m], u) coordinates, and ``second``
    holds the raw E[Delta_i Delta_j]. A noiseless oracle degenerates the
    normalization, so u is then read as v directly and the step is
    deterministic (all standard errors vanish). RMSprop reads no m, so
    passing one is rejected.
    """
    if samples < 1000:
        raise ValueError("need at least 1000 samples")
    if not DECAYS.get(algo):
        raise ValueError("one-step moments are defined for the adaptive algorithms")
    if algo == "rmsprop" and m is not None:
        raise ValueError("RMSprop steps ignore m; leave it at None")
    theta = np.asarray(theta, dtype=float)
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0):
        raise ValueError("u must be positive coordinatewise")
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
    return jackknife_moments(delta, select_third_triples(delta.shape[1]), centered=False)
