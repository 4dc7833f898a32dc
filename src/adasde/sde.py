"""Continuous-time systems for the adaptive algorithms and their integrator.

State layouts: (theta, u) for the RMSprop system, (theta, m, u) for Adam,
theta alone for SGD, with u the noise-normalized second-moment estimate.

Each diffusion carries its SDE's sign, so a discrete step and the
integrator read a shared draw with the same sign.

A system is a drift and an ``apply_diffusion``, which maps a state, a time
and a draw of d Wiener components to the noise increment. The diffusion is
structured: one block, the system's ``driven`` one, takes all the noise:
the parameter block (RMSprop, SGD) or the momentum block (Adam).
``apply_diffusion`` returns that block's increment alone; every other block
steps as x + b dt. It scales ``CovarianceSpec.apply_sqrt``, the one place a
covariance's noise factor (any L with L L' = Sigma, see ``CovarianceSpec``)
meets a draw, shared with the Gaussian oracle so that discrete and
continuous draws on the same w stay coupled. Only the diffusion's product
with its transpose is fixed by the SDE; its columns are ``apply_diffusion``
on the unit draws, in the driven block's rows, and zero elsewhere.

The adaptive systems divide by sqrt(u), so they are defined only while u > 0.

Every integration runs through ``euler_maruyama``, which owns the step,
the checks on each state (finite values, u > 0 on a system with a u block;
a failed check names its step) and the record. It records test functions
at checkpoint step indices, as the discrete runner does: step i is at
t0 + i dt, so a run at m substeps per discrete step reads step k at m k.
It reads its standard-normal increments one step's block at a time, so no
caller holds a whole path of noise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sized

import numpy as np

from .problems import CovarianceSpec, Problem
from .recording import NonFiniteError, StateView, TestFunctionSet, TrajectoryRecord, _Recorder

__all__ = [
    "SdeSystem",
    "build_rmsprop_sde",
    "build_adam_sde",
    "build_sgd_sde",
    "euler_maruyama",
]


@dataclass(frozen=True)
class SdeSystem:
    """A drift and an ``apply_diffusion`` over an augmented state with block structure.

    ``drift(x, t)`` returns the (..., D) drift. ``apply_diffusion(x, t, dw)``
    returns the noise increment of a draw dw of shape (..., noise_dim) in the
    ``driven`` block alone, an array shaped like ``x[..., blocks[driven]]``;
    the other blocks take no noise. ``blocks`` maps each block name to its
    slice of the state; the state dimension D is where the last block stops.
    A "u" block must stay positive, and the integrator rejects a state where
    it does not.
    """

    noise_dim: int
    drift: Callable
    apply_diffusion: Callable
    blocks: dict  # name -> slice
    driven: str = "theta"  # the one block apply_diffusion drives
    problem: Problem | None = None

    def __post_init__(self):
        if self.driven not in self.blocks:
            raise ValueError(f"driven block {self.driven!r} is not one of {sorted(self.blocks)}")

    @property
    def state_dim(self) -> int:
        return max(sl.stop for sl in self.blocks.values())

    def block(self, x: np.ndarray, name: str) -> np.ndarray | None:
        sl = self.blocks.get(name)
        return None if sl is None else x[..., sl]


def build_rmsprop_sde(
    problem: Problem,
    cov: CovarianceSpec,
    sigma0: float,
    epsilon0: float,
    c2: float,
) -> SdeSystem:
    """Preconditioned gradient-flow-plus-noise system over (theta, u).

    d theta = -P^{-1}(grad f dt + sigma0 Sigma^{1/2} dW), P = sigma0 diag(sqrt u) + eps0 I
    d u     = c2 (diag Sigma - u) dt
    """
    if not (sigma0 > 0 and c2 > 0 and epsilon0 >= 0):
        raise ValueError("need sigma0 > 0, c2 > 0, epsilon0 >= 0")
    d = problem.dim

    def drift(x, t):
        theta, u = x[..., :d], x[..., d:]
        denom = sigma0 * np.sqrt(u) + epsilon0
        # column-major, the integrator's layout, so each block is computed
        # in its own contiguous columns of out, with no temporary
        out = np.empty(x.shape, order="F")
        drift_theta, drift_u = out[..., :d], out[..., d:]
        np.negative(problem.full_gradient(theta), out=drift_theta)
        drift_theta /= denom
        np.subtract(cov.diagonal(problem, theta), u, out=drift_u)
        drift_u *= c2
        return out

    def apply_diffusion(x, t, dw):
        theta, u = x[..., :d], x[..., d:]
        scale = -1.0 / (np.sqrt(u) + epsilon0 / sigma0)
        return scale * cov.apply_sqrt(problem, theta, dw)

    return SdeSystem(
        noise_dim=d,
        drift=drift,
        apply_diffusion=apply_diffusion,
        blocks={"theta": slice(0, d), "u": slice(d, 2 * d)},
        problem=problem,
    )


def build_adam_sde(
    problem: Problem,
    cov: CovarianceSpec,
    sigma0: float,
    epsilon0: float,
    c1: float,
    c2: float,
) -> SdeSystem:
    """Momentum system over (theta, m, u) with time-dependent preconditioner.

    d m = c1 (grad f - m) dt + sigma0 c1 Sigma^{1/2} dW takes the noise with
    the plus sign it has in the discrete momentum update. gamma_1(t) =
    1 - exp(-c1 t) and gamma_2(t) = 1 - exp(-c2 t) play the role of the
    discrete bias corrections; gamma_1(0) = 0 makes t = 0 singular, so
    evaluation requires t > 0.
    """
    if not (sigma0 > 0 and c1 > 0 and c2 > 0 and epsilon0 >= 0):
        raise ValueError("need sigma0, c1, c2 > 0 and epsilon0 >= 0")
    d = problem.dim

    def gammas(t):
        if t <= 0:
            raise ValueError("momentum system is singular at t <= 0; start from t0 > 0")
        return 1.0 - math.exp(-c1 * t), 1.0 - math.exp(-c2 * t)

    def drift(x, t):
        g1, g2 = gammas(t)
        theta, m, u = x[..., :d], x[..., d : 2 * d], x[..., 2 * d :]
        denom = sigma0 * np.sqrt(u) + epsilon0 * math.sqrt(g2)
        out = np.empty(x.shape, order="F")
        drift_theta, drift_m, drift_u = out[..., :d], out[..., d : 2 * d], out[..., 2 * d :]
        np.multiply(-(math.sqrt(g2) / g1), m, out=drift_theta)
        drift_theta /= denom
        np.subtract(problem.full_gradient(theta), m, out=drift_m)
        drift_m *= c1
        np.subtract(cov.diagonal(problem, theta), u, out=drift_u)
        drift_u *= c2
        return out

    def apply_diffusion(x, t, dw):
        gammas(t)  # enforce the t > 0 domain
        return sigma0 * c1 * cov.apply_sqrt(problem, x[..., :d], dw)

    return SdeSystem(
        noise_dim=d,
        drift=drift,
        apply_diffusion=apply_diffusion,
        blocks={"theta": slice(0, d), "m": slice(d, 2 * d), "u": slice(2 * d, 3 * d)},
        driven="m",
        problem=problem,
    )


def build_sgd_sde(problem: Problem, cov: CovarianceSpec, eta: float) -> SdeSystem:
    """Gradient flow with sqrt(eta)-scaled noise over theta alone.

    d theta = -(grad f dt + sqrt(eta) Sigma^{1/2} dW)
    """
    if not eta > 0:
        raise ValueError("eta must be positive")
    d = problem.dim
    amp = -math.sqrt(eta)

    def drift(x, t):
        return -problem.full_gradient(x)

    def apply_diffusion(x, t, dw):
        return amp * cov.apply_sqrt(problem, x, dw)

    return SdeSystem(
        noise_dim=d,
        drift=drift,
        apply_diffusion=apply_diffusion,
        blocks={"theta": slice(0, d)},
        problem=problem,
    )


def euler_maruyama(
    system: SdeSystem,
    x0,
    t0: float,
    dt: float,
    n_steps: int,
    fns: TestFunctionSet,
    checkpoints,
    noise: Iterable[np.ndarray],
) -> TrajectoryRecord:
    """Integrate x <- x + b dt + sigma sqrt(dt) w from x0 at time t0, recorded at checkpoints.

    ``x0`` of shape (paths, D), and no other shape, integrates all paths
    against a shared vectorized stream from the start time ``t0 >= 0`` for
    n_steps steps of dt > 0. ``checkpoints`` are step indices, integers in
    [0, n_steps] (``_Recorder`` checks them); step i is recorded at time
    t0 + i dt, and no other step builds a view.

    Step n reads its increment w, a (paths, noise_dim) standard-normal
    block, as the next item of ``noise``, the one noise source. ``noise`` is
    any iterable of such blocks in step order: an (n_steps, paths,
    noise_dim) array or another sized collection of n_steps blocks (its
    length checked up front), or a generator that draws each block when the
    step asks for it, which lets systems share noise exactly without holding
    a whole path. A block of another shape, or a stream that ends before
    n_steps, raises ValueError naming the step.
    The start and every step are checked: a non-finite state raises
    NonFiniteError with its step, and u <= 0 on a system with a "u" block
    raises ValueError with its step and time. A system defined only for
    t > 0 (Adam's) raises from its drift on the first step.

    The ensemble is held column-major: a system's blocks are then
    contiguous columns, and elementwise work on them runs without strided
    inner loops. Each step allocates one array, the drift's product with dt
    (column-major whatever the drift's layout), adds the state into it and
    the diffusion's increment, made column-major, into the driven block's
    columns; x0, the noise and whatever a system returns are only read.
    """
    if not t0 >= 0:
        raise ValueError("time must be nonnegative")
    if not dt > 0:
        raise ValueError("dt must be positive")
    recorder = _Recorder(fns, checkpoints, n_steps)
    x = np.asfortranarray(x0, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"x0 must have shape (paths, D), got {x.shape}")
    if x.shape[-1] != system.state_dim:
        raise ValueError(f"state has dimension {x.shape[-1]}, system expects {system.state_dim}")
    noise_shape = (x.shape[0], system.noise_dim)
    if isinstance(noise, Sized) and len(noise) != n_steps:
        raise ValueError(f"noise holds {len(noise)} blocks, expected {n_steps}")
    blocks = iter(noise)

    u_slice = system.blocks.get("u")
    driven = system.blocks[system.driven]
    sqrt_dt = math.sqrt(dt)
    for n in range(n_steps + 1):  # check and record state n, then step it unless it is the last
        t = t0 + n * dt
        if not np.isfinite(x).all():
            raise NonFiniteError(n, f"t={t:.6g}")
        if u_slice is not None and not (x[:, u_slice] > 0.0).all():
            raise ValueError(f"u reached zero at step {n}, t={t:.6g}; reduce dt")
        if n in recorder.checkpoints:
            recorder.record(StateView(
                theta=x[:, system.blocks["theta"]],
                t=t,
                k=n,
                problem=system.problem,
                m=system.block(x, "m"),
                u=system.block(x, "u"),
            ))
        if n == n_steps:
            break
        w = next(blocks, None)
        if w is None:
            raise ValueError(f"noise stream ended at step {n} of {n_steps}")
        if np.shape(w) != noise_shape:
            raise ValueError(
                f"noise block at step {n} has shape {np.shape(w)}, expected {noise_shape}"
            )
        step = np.multiply(system.drift(x, t), dt, order="F")
        step += x
        # copying a row-major increment column-major and adding it costs
        # less than one add across the two layouts
        step[:, driven] += np.asfortranarray(system.apply_diffusion(x, t, sqrt_dt * w))
        x = step
    return recorder.build()
