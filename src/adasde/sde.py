"""Continuous-time systems for the adaptive algorithms and their integrator.

State layouts: (theta, u) for the RMSprop system, (theta, m, u) for Adam,
theta alone for SGD, with u the noise-normalized second-moment estimate.

Sign convention: the parameter-block noise enters the dynamics with a minus
sign, but Wiener increments are symmetric in law, so the diffusion factor is
stored with a plus sign. Path-wise comparisons against hand-derived formulas
must account for this.

Diffusion matrices are structured: only the parameter block (RMSprop, SGD)
or the momentum block (Adam) is driven by noise, and only d Wiener
components are consumed per step. ``apply_diffusion`` scales
``CovarianceSpec.apply_sqrt``, the one place a covariance root meets a draw
(shared with the Gaussian oracle). ``dense_diffusion`` materializes the full
D x D matrix from ``CovarianceSpec.sqrt`` as the reference for cross-checks
on small systems.

Every integration runs through one Euler-Maruyama loop, ``_em_loop``, which
owns the step and the checks on each state (finite values, u > 0 where the
system requires it). ``euler_maruyama`` records test functions at
checkpoints on top of it; the one-step moment estimators call it directly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .problems import CovarianceSpec, Problem
from .recording import NonFiniteError, StateView, TestFunctionSet, TrajectoryRecord, _Recorder

__all__ = [
    "SdeSystem",
    "SdeState",
    "build_rmsprop_sde",
    "build_adam_sde",
    "build_sgd_sde",
    "build_auxiliary_sde",
    "transition_tau",
    "clamp_mu",
    "euler_maruyama",
]


def transition_tau(z):
    """Smooth monotone step: 0 for z <= 0, 1 for z >= 1, C-infinity blend between."""
    z_arr = np.asarray(z, dtype=float)
    out = np.zeros_like(z_arr)
    out[z_arr >= 1.0] = 1.0
    mid = (z_arr > 0.0) & (z_arr < 1.0)
    if np.any(mid):
        zm = z_arr[mid]
        a = np.exp(-1.0 / zm)
        b = np.exp(-1.0 / (1.0 - zm))
        out[mid] = a / (a + b)
    return float(out) if np.isscalar(z) or np.asarray(z).ndim == 0 else out


def clamp_mu(u, u_min: float):
    """Smooth floor keeping u untouched above u_min and >= u_min/2 everywhere.

    Exactly the identity for u >= u_min (taken on a separate branch so shared
    noise produces bit-identical paths there).
    """
    if u_min <= 0:
        raise ValueError("u_min must be positive")
    u_arr = np.asarray(u, dtype=float)
    half = 0.5 * u_min
    blended = half + transition_tau(2.0 * u_arr / u_min - 1.0) * (u_arr - half)
    out = np.where(u_arr >= u_min, u_arr, blended)
    return float(out) if np.isscalar(u) or np.asarray(u).ndim == 0 else out


@dataclass(frozen=True)
class SdeState:
    """Continuous state: x of shape (..., D) at time t."""

    x: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        if self.t < 0:
            raise ValueError("time must be nonnegative")


@dataclass(frozen=True)
class SdeSystem:
    """Drift/diffusion pair over an augmented state with block structure."""

    state_dim: int
    noise_dim: int
    drift: Callable
    apply_diffusion: Callable  # (x, t, dw) -> increment contribution, dw ~ (..., noise_dim)
    dense_diffusion: Callable  # (x, t) -> (..., D, D)
    blocks: dict = field(default_factory=dict)  # name -> slice
    algorithm: str = "custom"
    constants: dict = field(default_factory=dict)
    problem: Problem | None = None
    cov: CovarianceSpec | None = None
    requires_positive_u: bool = True
    min_time: float = 0.0
    u_min: float | None = None  # set on clamped systems

    def block(self, x: np.ndarray, name: str) -> np.ndarray | None:
        sl = self.blocks.get(name)
        return None if sl is None else x[..., sl]


def build_rmsprop_sde(
    problem: Problem,
    cov: CovarianceSpec,
    sigma0: float,
    epsilon0: float,
    c2: float,
    u_min: float | None = None,
) -> SdeSystem:
    """Preconditioned gradient-flow-plus-noise system over (theta, u).

    d theta = -P^{-1}(grad f dt + sigma0 Sigma^{1/2} dW), P = sigma0 diag(sqrt u) + eps0 I
    d u     = c2 (diag Sigma - u) dt

    With ``u_min`` set, every sqrt(u) in a denominator becomes sqrt(mu(u)),
    bounding the preconditioner away from zero.
    """
    if sigma0 <= 0 or c2 <= 0 or epsilon0 < 0:
        raise ValueError("need sigma0 > 0, c2 > 0, epsilon0 >= 0")
    d = problem.dim
    clamped = u_min is not None
    u_of = (lambda u: clamp_mu(u, u_min)) if clamped else (lambda u: u)

    def drift(x, t):
        theta, u = x[..., :d], x[..., d:]
        denom = sigma0 * np.sqrt(u_of(u)) + epsilon0
        out = np.empty_like(x)
        out[..., :d] = -problem.full_gradient(theta) / denom
        out[..., d:] = c2 * (cov.diagonal(problem, theta) - u)
        return out

    def apply_diffusion(x, t, dw):
        theta, u = x[..., :d], x[..., d:]
        scale = 1.0 / (np.sqrt(u_of(u)) + epsilon0 / sigma0)
        out = np.zeros_like(x)
        out[..., :d] = scale * cov.apply_sqrt(problem, theta, dw)
        return out

    def dense_diffusion(x, t):
        theta, u = x[..., :d], x[..., d:]
        scale = 1.0 / (np.sqrt(u_of(u)) + epsilon0 / sigma0)
        full = np.zeros(x.shape[:-1] + (2 * d, 2 * d))
        full[..., :d, :d] = scale[..., :, None] * cov.sqrt(problem, theta)
        return full

    return SdeSystem(
        state_dim=2 * d,
        noise_dim=d,
        drift=drift,
        apply_diffusion=apply_diffusion,
        dense_diffusion=dense_diffusion,
        blocks={"theta": slice(0, d), "u": slice(d, 2 * d)},
        algorithm="rmsprop",
        constants={"sigma0": sigma0, "epsilon0": epsilon0, "c2": c2},
        problem=problem,
        cov=cov,
        requires_positive_u=not clamped,
        u_min=u_min,
    )


def build_adam_sde(
    problem: Problem,
    cov: CovarianceSpec,
    sigma0: float,
    epsilon0: float,
    c1: float,
    c2: float,
    u_min: float | None = None,
) -> SdeSystem:
    """Momentum system over (theta, m, u) with time-dependent preconditioner.

    gamma_1(t) = 1 - exp(-c1 t) and gamma_2(t) = 1 - exp(-c2 t) play the role
    of the discrete bias corrections; gamma_1(0) = 0 makes t = 0 singular, so
    evaluation requires t > 0.
    """
    if sigma0 <= 0 or c1 <= 0 or c2 <= 0 or epsilon0 < 0:
        raise ValueError("need sigma0, c1, c2 > 0 and epsilon0 >= 0")
    d = problem.dim
    clamped = u_min is not None
    u_of = (lambda u: clamp_mu(u, u_min)) if clamped else (lambda u: u)

    def gammas(t):
        if t <= 0:
            raise ValueError("momentum system is singular at t <= 0; start from t0 > 0")
        return 1.0 - math.exp(-c1 * t), 1.0 - math.exp(-c2 * t)

    def drift(x, t):
        g1, g2 = gammas(t)
        theta, m, u = x[..., :d], x[..., d : 2 * d], x[..., 2 * d :]
        denom = sigma0 * np.sqrt(u_of(u)) + epsilon0 * math.sqrt(g2)
        out = np.empty_like(x)
        out[..., :d] = -(math.sqrt(g2) / g1) * m / denom
        out[..., d : 2 * d] = c1 * (problem.full_gradient(theta) - m)
        out[..., 2 * d :] = c2 * (cov.diagonal(problem, theta) - u)
        return out

    def apply_diffusion(x, t, dw):
        gammas(t)  # enforce the t > 0 domain
        theta = x[..., :d]
        out = np.zeros_like(x)
        out[..., d : 2 * d] = sigma0 * c1 * cov.apply_sqrt(problem, theta, dw)
        return out

    def dense_diffusion(x, t):
        gammas(t)
        theta = x[..., :d]
        full = np.zeros(x.shape[:-1] + (3 * d, 3 * d))
        full[..., d : 2 * d, :d] = sigma0 * c1 * cov.sqrt(problem, theta)
        return full

    return SdeSystem(
        state_dim=3 * d,
        noise_dim=d,
        drift=drift,
        apply_diffusion=apply_diffusion,
        dense_diffusion=dense_diffusion,
        blocks={"theta": slice(0, d), "m": slice(d, 2 * d), "u": slice(2 * d, 3 * d)},
        algorithm="adam",
        constants={"sigma0": sigma0, "epsilon0": epsilon0, "c1": c1, "c2": c2},
        problem=problem,
        cov=cov,
        requires_positive_u=not clamped,
        min_time=np.nextafter(0.0, 1.0),
        u_min=u_min,
    )


def build_sgd_sde(problem: Problem, cov: CovarianceSpec, eta: float) -> SdeSystem:
    """Gradient flow with sqrt(eta)-scaled noise over theta alone."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    d = problem.dim
    amp = math.sqrt(eta)

    def drift(x, t):
        return -problem.full_gradient(x)

    def apply_diffusion(x, t, dw):
        return amp * cov.apply_sqrt(problem, x, dw)

    def dense_diffusion(x, t):
        return amp * np.broadcast_to(cov.sqrt(problem, x), x.shape[:-1] + (d, d))

    return SdeSystem(
        state_dim=d,
        noise_dim=d,
        drift=drift,
        apply_diffusion=apply_diffusion,
        dense_diffusion=dense_diffusion,
        blocks={"theta": slice(0, d)},
        algorithm="sgd",
        constants={"eta": eta},
        problem=problem,
        cov=cov,
        requires_positive_u=False,
    )


def build_auxiliary_sde(system: SdeSystem, u_min: float) -> SdeSystem:
    """Clamped twin of an adaptive system: sqrt(u) denominators become sqrt(mu(u)).

    Paths of the clamped and unclamped systems coincide under shared noise
    whenever u stays at or above u_min.
    """
    if system.algorithm not in ("rmsprop", "adam"):
        raise ValueError("only the adaptive systems have a clamped variant")
    if system.u_min is not None:
        raise ValueError("system is already clamped")
    c = system.constants
    if system.algorithm == "rmsprop":
        return build_rmsprop_sde(system.problem, system.cov, c["sigma0"], c["epsilon0"], c["c2"], u_min=u_min)
    return build_adam_sde(
        system.problem, system.cov, c["sigma0"], c["epsilon0"], c["c1"], c["c2"], u_min=u_min
    )


def _em_loop(
    system: SdeSystem,
    x: np.ndarray,
    t0: float,
    dt: float,
    n_steps: int,
    rng: np.random.Generator | None,
    noise: np.ndarray | None = None,
    on_state: Callable | None = None,
) -> np.ndarray:
    """The Euler-Maruyama loop x <- x + b dt + sigma sqrt(dt) w over a path ensemble.

    ``x`` of shape (paths, D) (or (D,) for one path) starts at time t0 and
    advances n_steps of size dt > 0. The increments w are ``noise[n]`` when a
    (n_steps, paths, noise_dim) array is given, else fresh draws from rng.
    The start and every step are checked: a non-finite state raises
    NonFiniteError with its step, and u <= 0 on a system that requires u > 0
    raises ValueError. ``on_state(x, step)`` sees the start (step 0) and the
    state after every step. Returns the final states.
    """
    if t0 < system.min_time:
        raise ValueError(f"initial time {t0} below the system's domain (> {system.min_time:g})")
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[-1] != system.state_dim:
        raise ValueError(f"state has dimension {x.shape[-1]}, system expects {system.state_dim}")
    noise_shape = (x.shape[0], system.noise_dim)
    if noise is not None:
        noise = np.asarray(noise, dtype=float)
        if noise.shape != (n_steps, *noise_shape):
            raise ValueError(f"noise must have shape {(n_steps, *noise_shape)}, got {noise.shape}")
    elif rng is None and n_steps > 0:
        raise ValueError("either rng or a noise array is required")

    u_slice = system.blocks.get("u") if system.requires_positive_u else None

    def visit(xc, step, t):
        if not np.all(np.isfinite(xc)):
            raise NonFiniteError(step, f"t={t:.6g}")
        if u_slice is not None and np.any(xc[..., u_slice] <= 0.0):
            raise ValueError(
                f"u reached zero at t={t:.6g}; integrate the clamped auxiliary system or reduce dt"
            )
        if on_state is not None:
            on_state(xc, step)

    visit(x, 0, t0)
    sqrt_dt = math.sqrt(dt)
    for n in range(n_steps):
        t = t0 + n * dt
        w = noise[n] if noise is not None else rng.standard_normal(noise_shape)
        x = x + system.drift(x, t) * dt + system.apply_diffusion(x, t, sqrt_dt * w)
        visit(x, n + 1, t + dt)
    return x


def euler_maruyama(
    system: SdeSystem,
    init: SdeState,
    t_end: float,
    dt: float,
    rng: np.random.Generator | None,
    fns: TestFunctionSet,
    checkpoint_times,
    noise: np.ndarray | None = None,
) -> TrajectoryRecord:
    """Fixed-step integration of a path ensemble, recorded at checkpoints.

    ``init.x`` of shape (paths, D) integrates all paths against a shared
    vectorized stream; checkpoints snap to the nearest grid time (callers
    align the grid so they coincide). ``noise`` optionally supplies the
    standard-normal increments, shape (n_steps, paths, noise_dim), enabling
    exact noise sharing between systems.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    span = t_end - init.t
    if span < -1e-12:
        raise ValueError("t_end must not precede the initial time")
    n_steps = max(int(round(span / dt)), 0)

    grid_index: dict[int, float] = {}
    for c in sorted(float(c) for c in checkpoint_times):
        if c < init.t - 1e-12 or c > t_end + 1e-12:
            raise ValueError(f"checkpoint {c} outside [{init.t}, {t_end}]")
        grid_index[min(max(int(round((c - init.t) / dt)), 0), n_steps)] = c

    recorder = _Recorder(fns)

    def snapshot(xc, idx):
        if idx not in grid_index:
            return
        view = StateView(
            theta=xc[..., system.blocks["theta"]],
            t=init.t + idx * dt,
            k=idx,
            problem=system.problem,
            m=system.block(xc, "m"),
            u=system.block(xc, "u"),
            cov=system.cov,
        )
        recorder.record(view)

    _em_loop(system, init.x, init.t, dt, n_steps, rng, noise, snapshot)
    meta = {"algo": system.algorithm, "dt": dt, "t0": init.t, "t_end": t_end}
    return recorder.build(meta)
