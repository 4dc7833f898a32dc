"""Weak-error measurement between discrete and continuous trajectories.

The sweeps here operationalize the approximation claims: expectations of
test functions along matched trajectories are compared checkpoint by
checkpoint, and the decay of the worst gap is fitted against the step size
(or the amplification factor, or the batch multiplier).

Statistical conventions:

* Every estimate is a mean over trajectories ("seeds"). The Brownian path
  is antithetic: seed i + S/2 rides the negation of seed i's path, so the
  S/2 pair means (of seeds i and i + S/2) are the i.i.d. samples, and SE =
  sample std of the pair means / sqrt(S/2). Noise that is odd in the path
  cancels within a pair, which shrinks the SE of the theta gaps; a loss is
  even in the path, and its SE can grow (Glasserman, *Monte Carlo Methods
  in Financial Engineering*, 2004, section 4.2). The bootstrap of a decay
  fit resamples the same samples: the pair means of the per-seed gaps, which
  the paired SE reads. Pass/fail thresholds are stated in SE units so the
  suite stays sample-size aware.
* Every discrete/continuous pair is coupled: the Euler-Maruyama
  increments within one discrete step sum to that step's gradient noise,
  so both processes ride the same Brownian path. Coupling leaves each
  marginal distribution untouched (the gap estimate is unbiased) while
  shrinking its variance by orders of magnitude; the paired SE, over the
  pair means of the per-seed differences, is then the honest uncertainty
  of the gap. One mechanism, ``_shared_path``, does all the coupling: it
  draws the path one fine block at a time, each block's first S/2 rows
  fresh and the rest their negation, and each discrete run rides it in
  lockstep, stepping on the normalized sum of its step's blocks. The path
  is never held whole, and no block outlives the step that reads it.
* ``validate_scaling`` is not coupled and not antithetic: its base and
  scaled runs draw plain noise from independent ``derive_rng(...,
  "scaling", rule, tag)`` streams, and its z-scores use the unpaired
  per-seed SE. Coupling that pair is ROADMAP item 19.
* A gap below 2 SE is reported as inconclusive rather than failed.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields

import numpy as np

from .ngos import GaussianOracle, MinibatchOracle
from .optimizers import (
    HyperParams,
    OptimizerState,
    adam_step,
    discrete_loop,
    effective_time_step,
    finish,
    run_discrete,
)
from .problems import CovarianceSpec, IsotropicCovariance, LinearProblem, Problem
from .recording import TestFunctionSet, TrajectoryRecord
from .scaling import DECAYS, ScalingPlan, hyperparams_from_constants, scale_sqrt
from .sde import build_adam_sde, build_rmsprop_sde, build_sgd_sde, euler_maruyama
from .stats import fit_loglog_slope

__all__ = [
    "derive_rng",
    "ApproximationSetup",
    "WeakErrorReport",
    "weak_error",
    "compare_at_eta",
    "OrderReport",
    "order_sweep",
    "SvagReport",
    "svag_sweep",
    "ScalingReport",
    "validate_scaling",
    "WarmupReport",
    "linear_warmup_check",
]


def label_entropy(label: str) -> int:
    """Stable 64-bit entropy for a cell label (independent of cell order)."""
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def derive_rng(root_seed: int, *labels: str) -> np.random.Generator:
    """Generator for a named cell: seeded by the root seed plus label hashes.

    Cells are keyed by their labels, never by position, so adding or removing
    one sweep cell cannot perturb another cell's stream.
    """
    entropy = [int(root_seed)] + [label_entropy(lab) for lab in labels]
    return np.random.default_rng(np.random.SeedSequence(entropy))


class _SequencedGaussianOracle(GaussianOracle):
    """Gaussian oracle that samples on the standard-normal blocks fed to it.

    Each ``sample`` reads the (seeds, d) block of the last ``feed`` and
    ignores its rng. A discrete run riding a shared path (``_shared_path``),
    or Adam's warm-up, is fed one block per step. Not part of the public oracle family (it is
    deliberately stateful).
    """

    def __init__(self, problem: Problem, cov: CovarianceSpec, sigma: float):
        super().__init__(problem, cov, float(sigma))
        object.__setattr__(self, "_fed", [])

    def feed(self, block: np.ndarray) -> None:
        """Set the block the next ``sample`` reads."""
        self._fed[:] = [block]

    def _standard_normal(self, shape, rng) -> np.ndarray:
        if not self._fed:
            raise RuntimeError("sequenced oracle sampled with no block fed")
        return self._fed.pop()


def _check_count(name: str, value, least: int) -> None:
    """Reject a size that is not an int >= ``least`` (a bool is not): a run would fail on it deep inside."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an int >= {least}, got {value!r}")


def _check_paired_seeds(seeds: int) -> None:
    """Reject a seed count that does not split into two or more antithetic pairs."""
    if seeds % 2 or seeds < 4:
        raise ValueError(
            f"seeds must be even and at least 4, got {seeds}: seeds i and i + seeds/2 are"
            " paired, and an SE needs two pairs"
        )


def _check_start(name: str, vec: np.ndarray, d: int) -> None:
    """Reject a start vector that a run would broadcast, or fail on only at its first step."""
    if vec.shape != (d,):
        raise ValueError(f"{name} must have shape ({d},), got {vec.shape}")
    if not np.all(np.isfinite(vec)):
        raise ValueError(f"{name} must be finite, got {vec}")


# The setup constants an adaptive SDE reads, one c per decay; SGD's reads none.
_READS = {a: {"sigma0", "epsilon0", "u0", *c.values()} if c else set() for a, c in DECAYS.items()}


@dataclass(frozen=True, eq=False)
class ApproximationSetup:
    """One discrete-vs-continuous comparison family at fixed constants.

    RMSprop reads sigma0, epsilon0, c2 and u0, Adam these and c1, SGD none:
    a constant read may not be None, one not read must keep its default.
    ``coupled`` accepts only True: every comparison rides one shared path,
    and the field stays only while the benchmark passes it.
    """

    problem: Problem
    cov: CovarianceSpec
    algo: str  # rmsprop | adam | sgd
    theta0: np.ndarray
    u0: np.ndarray | None = None
    sigma0: float = 1.0
    epsilon0: float = 0.0
    c1: float | None = None
    c2: float = 1.0
    T: float = 2.0
    n_checkpoints: int = 5
    em_substeps: int = 20
    seeds: int = 200
    coupled: bool = True

    def __post_init__(self):
        if self.coupled is not True:
            raise ValueError(
                f"coupled must be True, got {self.coupled!r}: every comparison rides one shared"
                " path, and the field goes once the benchmark stops passing it"
            )
        object.__setattr__(self, "theta0", np.asarray(self.theta0, dtype=float))
        if self.u0 is not None:
            object.__setattr__(self, "u0", np.asarray(self.u0, dtype=float))
        if self.algo not in DECAYS:
            raise ValueError(f"unknown algorithm {self.algo!r}")
        read = _READS[self.algo]
        unread = set().union(*_READS.values()) - read
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in read and value is None:
                raise ValueError(f"{self.algo} setups need {f.name}")
            if f.name not in unread:
                continue
            if value is not None if f.default is None else value != f.default:
                raise ValueError(
                    f"{self.algo.upper()} setups ignore {f.name}; leave it at {f.default!r}"
                )
        for name in ("theta0", "u0"):
            if getattr(self, name) is not None:
                _check_start(name, getattr(self, name), self.problem.dim)
        if self.u0 is not None and not np.all(self.u0 > 0):
            raise ValueError("u0 must be positive coordinatewise")
        _check_count("em_substeps", self.em_substeps, 1)
        _check_count("seeds", self.seeds, 1)  # an int, then two or more pairs of them
        _check_paired_seeds(self.seeds)
        _check_count("n_checkpoints", self.n_checkpoints, 1)
        if not 0 < self.T < math.inf:
            raise ValueError(f"T must be positive and finite, got {self.T!r}")


@dataclass(eq=False)
class WeakErrorReport:
    """Per-checkpoint expectation gaps between two records of one family."""

    times: np.ndarray
    gaps: dict[str, np.ndarray]
    combined_se: dict[str, np.ndarray]
    paired_se: dict[str, np.ndarray]
    max_gap: dict[str, float]
    discrete: TrajectoryRecord
    continuous: TrajectoryRecord

    @property
    def names(self) -> list[str]:
        return list(self.gaps)

    def se_at_max(self, name: str) -> float:
        idx = int(np.argmax(np.abs(self.gaps[name])))
        return float(self.paired_se[name][idx])


def _pair_means(values: np.ndarray) -> np.ndarray:
    """The (checkpoints, S/2) means of seeds i and i + S/2 of (checkpoints, S) values.

    These pair means are the i.i.d. samples that the SEs and the bootstrap read.
    """
    h = values.shape[1] // 2
    return (values[:, :h] + values[:, h:]) / 2.0


def _pair_se(values: np.ndarray) -> np.ndarray:
    """SE of the mean of (checkpoints, S) values, over their pair means."""
    return np.std(_pair_means(values), axis=1, ddof=1) / math.sqrt(values.shape[1] // 2)


def weak_error(discrete: TrajectoryRecord, continuous: TrajectoryRecord) -> WeakErrorReport:
    """Gap per function per checkpoint, the max over checkpoints, and SEs.

    The two records must hold the same functions and seed counts and share
    checkpoint times within 1e-9: seed i of one is paired with seed i of the
    other. Within a record, seeds i and i + S/2 form a pair (antithetic on
    the shared path), so S must be even and at least 4, and both SEs are
    taken over the S/2 pair means. Pair means are i.i.d. whether or not a
    run rode the path, so every caller gets the same SE. The paired SE (of
    the per-seed differences) is the relevant one for coupled runs; the
    unpaired combined SE is reported alongside it.
    """
    if discrete.seed_count != continuous.seed_count:
        raise ValueError(
            f"paired records need equal seed counts, got {discrete.seed_count}"
            f" and {continuous.seed_count}"
        )
    _check_paired_seeds(discrete.seed_count)
    if discrete.times.size != continuous.times.size or np.any(
        np.abs(discrete.times - continuous.times) > 1e-9
    ):
        raise ValueError("checkpoint time grids do not match")
    if set(discrete.names) != set(continuous.names):
        raise ValueError(
            f"records hold different test functions: {discrete.names} and {continuous.names}"
        )

    gaps, comb, paired, max_gap = {}, {}, {}, {}
    for name in discrete.names:
        g = discrete.mean(name) - continuous.mean(name)
        gaps[name] = g
        d, c = discrete.values[name], continuous.values[name]
        comb[name] = np.hypot(_pair_se(d), _pair_se(c))
        paired[name] = _pair_se(d - c)
        max_gap[name] = float(np.max(np.abs(g)))
    return WeakErrorReport(
        times=discrete.times.copy(),
        gaps=gaps,
        combined_se=comb,
        paired_se=paired,
        max_gap=max_gap,
        discrete=discrete,
        continuous=continuous,
    )


def _horizon_steps(setup: ApproximationSetup, eta: float) -> int:
    """The discrete steps at eta that fit in the setup's horizon T; at least one."""
    dt_e = effective_time_step(setup.algo, eta)
    n_steps = int(math.floor(setup.T / dt_e + 1e-9))
    if n_steps < 1:
        raise ValueError(
            f"horizon T={setup.T:g} is shorter than one {setup.algo} step: "
            f"at eta={eta:g} each step advances t by {dt_e:g}"
        )
    return n_steps


def _checkpoint_steps(k_start: int, n_steps: int, count: int) -> list[int]:
    # a set, not np.unique, which imports numpy.ma on its first call
    ks = sorted({int(k) for k in np.round(np.linspace(k_start + 1, n_steps, count))})
    return [k for k in ks if k > k_start]


def _path_block(rng, shape) -> tuple[np.ndarray, int]:
    """One fine block of the antithetic path, and the count h of its drawn rows.

    Rows :h (h = seeds / 2) are fresh standard normals, drawn into the block
    with the bits of a plain draw of their shape, and rows h: are their
    negation: seed i + h rides the negation of seed i's path.
    """
    block = np.empty(shape)
    h = shape[0] // 2
    rng.standard_normal(out=block[:h])
    np.negative(block[:h], out=block[h:])
    return block, h


def _shared_path(rng, blocks: int, shape, riders):
    """One antithetic Brownian path, drawn one standard-normal block of ``shape`` at a time.

    A generator of the path's ``blocks`` blocks in draw order (``_path_block``),
    for the driver that pulls it (the integrator, or a loop that drains the
    path). A rider is a discrete run on the path, ``(loop, window,
    oracle)``: a ``discrete_loop`` sampling from the
    ``_SequencedGaussianOracle`` ``oracle``, one step per ``window`` blocks.
    When the window closes, before its last block is yielded, the oracle is
    fed the window's sum / sqrt(window), a unit-variance block, and the loop
    runs one step on it. A window-1 rider is fed the block itself. A longer
    one keeps a running sum of the drawn rows s alone and is fed [s; -s] /
    sqrt(window): negation is exact, so these are the bits of the sum of
    the whole blocks at half the adds. No block outlives the window that
    reads it, so memory does not grow with the path; an error a rider's
    step raises reaches the driver as raised.
    """
    sums = [None] * len(riders)
    for j in range(blocks):
        block, h = _path_block(rng, shape)
        for r, (loop, window, oracle) in enumerate(riders):
            if window == 1:
                oracle.feed(block)
                next(loop)
                continue
            sums[r] = block[:h] if j % window == 0 else sums[r] + block[:h]
            if (j + 1) % window == 0:
                fed = np.empty(shape)
                np.divide(sums[r], math.sqrt(window), out=fed[:h])
                # rows h: negate the rows above them: all h on an antithetic
                # block, none on a block drawn whole
                np.negative(fed[: shape[0] - h], out=fed[h:])
                oracle.feed(fed)
                next(loop)
        yield block


def _build_system(setup: ApproximationSetup, eta: float):
    if setup.algo == "rmsprop":
        return build_rmsprop_sde(setup.problem, setup.cov, setup.sigma0, setup.epsilon0, setup.c2)
    if setup.algo == "adam":
        return build_adam_sde(
            setup.problem, setup.cov, setup.sigma0, setup.epsilon0, setup.c1, setup.c2
        )
    return build_sgd_sde(setup.problem, setup.cov, eta)


def compare_at_eta(
    setup: ApproximationSetup,
    eta: float,
    fn_names,
    root_seed: int,
) -> WeakErrorReport:
    """Run the discrete ensemble and the matched integrator ensemble at one eta.

    The noise scale and decays are pinned to the setup's constants
    (sigma = sigma0/eta, 1 - beta = c eta^2) so the continuous target is the
    same for every eta. Momentum comparisons warm-start: the discrete runs
    alone up to k0 = ceil(t0/eta^2) and hands its states to the integrator.

    The discrete run rides the integrator's path (``_shared_path``) with a
    window of em_substeps blocks per step: both advance together as the
    integrator pulls the path, each discrete step on the normalized Wiener
    increment over its interval. Adam's warm-up draws are antithetic too,
    one path block per step, so seeds i and i + S/2 start the comparison as
    a pair.
    """
    d = setup.problem.dim
    S = setup.seeds
    algo = setup.algo
    hp, sigma = hyperparams_from_constants(
        algo, eta, setup.sigma0, setup.epsilon0, setup.c2, setup.c1
    )
    dt_e = effective_time_step(algo, eta)
    n_steps = _horizon_steps(setup, eta)
    m = setup.em_substeps
    dt = dt_e / m

    if algo == "adam":  # warm-start time max(10 dt, 0.01 T)
        t0 = max(10 * dt, 0.01 * setup.T)
        k0 = max(int(math.ceil(t0 / dt_e - 1e-9)), 1)
    else:
        k0 = 0
    if k0 >= n_steps:
        raise ValueError(f"warm start k0={k0} swallows the whole horizon ({n_steps} steps)")
    ks = _checkpoint_steps(k0, n_steps, setup.n_checkpoints)
    fns = TestFunctionSet.from_names(fn_names, d)

    rng = derive_rng(root_seed, "order", algo, f"eta={eta!r}")
    # rng is read in one fixed order: the warm-up's blocks, then the
    # Euler-Maruyama path one substep's block at a time (S/2 rows drawn per
    # block, the rest their negation)
    sequenced = _SequencedGaussianOracle(setup.problem, setup.cov, sigma)
    # SGD never reads v, and its sigma is 1, so unit u0 is as good as any
    u0 = np.ones(d) if algo == "sgd" else setup.u0
    state = OptimizerState.initial(np.broadcast_to(setup.theta0, (S, d)), v0=u0 * sigma**2)
    for block in _shared_path(rng, k0, (S, d), []):  # shared warm-up prefix, momentum path only
        sequenced.feed(block)
        state = adam_step(state, sequenced.sample(state.theta, None), hp)

    system = _build_system(setup, eta)
    blocks = {"theta": state.theta, "m": state.m, "u": state.v / sigma**2}
    x0 = np.concatenate([blocks[b] for b in system.blocks], axis=1)
    steps, ks = n_steps - k0, [k - k0 for k in ks]
    loop = discrete_loop(sequenced, algo, hp, state, steps, fns, ks, None)
    em_rec = euler_maruyama(
        system, x0, k0 * dt_e, dt, steps * m, fns, [k * m for k in ks],
        noise=_shared_path(rng, steps * m, (S, d), [(loop, m, sequenced)]),
    )
    return weak_error(finish(loop), em_rec)


@dataclass(eq=False)
class OrderReport:
    """Fitted decay order of the worst expectation gap against eta."""

    etas: list[float]
    reports: list[WeakErrorReport]
    slopes: dict[str, float | None]
    slope_se: dict[str, float]
    status: dict[str, str]  # ok | inconclusive | degenerate


# bootstrap replicates drawn and fitted together
_BOOT_CHUNK = 8


def _fit_gap_decay(x, reports: list[WeakErrorReport], name: str, rng, n_boot: int):
    """Decay of the worst gap of ``name`` against x, one report per point.

    Returns (gaps, gap SEs, log-log slope, bootstrap slope SE, status). The
    bootstrap resamples within each report the pair means of the per-seed
    gaps, the i.i.d. samples the paired SE of ``weak_error`` reads: it
    draws S/2 pair indices and averages their pair means; every report must
    hold the same seed count. Replicates are drawn and fitted
    ``_BOOT_CHUNK`` at a time. Status is "degenerate" when every gap
    vanishes (no slope), "inconclusive" when some gap is within 2 SE, else
    "ok".
    """
    gaps = np.array([rep.max_gap[name] for rep in reports])
    ses = np.array([rep.se_at_max(name) for rep in reports])
    if np.all(gaps < 1e-300):
        return gaps, ses, None, 0.0, "degenerate"
    status = "inconclusive" if np.any(gaps < 2.0 * ses) else "ok"
    x = np.asarray(x, dtype=float)
    slope = fit_loglog_slope(x, np.maximum(gaps, 1e-300))
    # each report's pair means of the per-seed gaps, pair-major (S/2, checkpoints)
    pairs = [_pair_means(rep.discrete.values[name] - rep.continuous.values[name]).T for rep in reports]
    h = len(pairs[0])
    boots = np.empty(n_boot)
    for start in range(0, n_boot, _BOOT_CHUNK):
        chunk = min(_BOOT_CHUNK, n_boot - start)
        # one draw in the order the replicates, then the reports, then the pairs take
        idx = rng.integers(0, h, size=(chunk, len(reports), h))
        boot_gaps = np.empty((len(reports), chunk))
        for r, p in enumerate(pairs):
            means = np.take(p, idx[:, r].T, axis=0).mean(axis=0)
            boot_gaps[r] = np.maximum(np.abs(means).max(axis=1), 1e-300)
        boots[start : start + chunk] = fit_loglog_slope(x, boot_gaps)
    return gaps, ses, slope, float(np.std(boots, ddof=1)), status


def order_sweep(
    setup: ApproximationSetup,
    etas,
    fn_names,
    root_seed: int,
) -> OrderReport:
    """Fit log(max gap) against log(eta) per test function.

    Requires at least 3 positive eta values with successive ratios >= sqrt(2). The
    fitted slope targets the approximation order (2 for the adaptive
    algorithms with effective time eta^2, 1 for SGD in eta). Cells whose gap
    never clears 2 SE are flagged inconclusive, not failed; identically zero
    gaps leave the slope undefined.
    """
    fn_names = list(fn_names)
    etas = sorted((float(e) for e in etas), reverse=True)
    if len(etas) < 3:
        raise ValueError("need at least 3 eta values")
    if not etas[-1] > 0:
        raise ValueError(f"eta values must be positive, got {etas}")
    ratios = [etas[i] / etas[i + 1] for i in range(len(etas) - 1)]
    if min(ratios) < math.sqrt(2.0) * 0.98:  # 2% slack admits the standard 0.2/0.14/0.1/... ladder
        raise ValueError("eta values must shrink by roughly sqrt(2) or more per step")

    reports = [compare_at_eta(setup, eta, fn_names, root_seed) for eta in etas]

    slopes: dict[str, float | None] = {}
    slope_se: dict[str, float] = {}
    status: dict[str, str] = {}
    for name in fn_names:
        _, _, slopes[name], slope_se[name], status[name] = _fit_gap_decay(
            etas, reports, name, np.random.default_rng(0xB00), n_boot=200
        )
    return OrderReport(
        etas=list(etas),
        reports=reports,
        slopes=slopes,
        slope_se=slope_se,
        status=status,
    )


@dataclass(eq=False)
class SvagReport:
    """Convergence of amplified-noise trajectories as ell grows."""

    ells: list[float]
    records: dict[float, TrajectoryRecord]
    pair_gaps: dict[str, np.ndarray]      # per consecutive ell pair: max_t gap
    pair_se: dict[str, np.ndarray]
    decay_slope: dict[str, float | None]  # fitted on log gap vs log(1/ell^2)
    decay_slope_se: dict[str, float]
    status: dict[str, str]

    @property
    def pairs(self) -> list[tuple[float, float]]:
        return [(self.ells[i], self.ells[i + 1]) for i in range(len(self.ells) - 1)]


def svag_sweep(
    setup: ApproximationSetup,
    eta: float,
    ells,
    fn_names,
    root_seed: int,
) -> SvagReport:
    """Trajectories at increasing noise amplification, on a shared time grid.

    Run ell uses eta/ell as its step and ell^2 floor(T/eta^2) steps, so its
    checkpoints land on the same continuous times t = k eta^2 for every ell
    (no interpolation). Consecutive-ell discrepancies should shrink like
    1/ell^2; the fitted decay exponent and its bootstrap SE quantify that.

    All runs ride one shared Brownian path: on Gaussian base noise the
    amplified two-draw combination is itself Gaussian at scale ell * sigma,
    so each run's step noise is the normalized shared-path increment over
    its own step interval. Marginal trajectory laws are untouched; only the
    variance of cross-ell discrepancies drops. Every ell must divide the
    largest one.

    Every run rides the shared path (``_shared_path``) with a window of
    ell_max^2 / ell^2 fine blocks per step, so the runs advance in lockstep
    and memory does not grow with the horizon. Each function's bootstrap
    draws from its own fresh generator, so its slope SE does not depend on
    the other names. Needs at least 3 distinct ell values, since the decay
    fit has one point per consecutive pair.
    """
    fn_names = list(fn_names)
    ells = sorted(float(ell) for ell in ells)
    if len(set(ells)) != len(ells):
        raise ValueError(f"ell values must be distinct, got {ells}")
    if len(ells) < 3:
        raise ValueError(f"need at least 3 ell values, got {ells}")
    if ells[0] != 1.0:
        raise ValueError("the sweep must include ell = 1 as its base")
    for ell in ells:
        if abs(ell - round(ell)) > 1e-12:
            raise ValueError("ell values must be integers so checkpoint grids coincide")
    d = setup.problem.dim
    if not DECAYS[setup.algo]:
        raise ValueError("the amplified simulation applies to the adaptive algorithms")
    hp, sigma = hyperparams_from_constants(
        setup.algo, eta, setup.sigma0, setup.epsilon0, setup.c2, setup.c1
    )
    base_steps = _horizon_steps(setup, eta)
    base_ks = _checkpoint_steps(0, base_steps, setup.n_checkpoints)
    fns = TestFunctionSet.from_names(fn_names, d)
    ell_max = int(round(ells[-1]))
    for ell in ells:
        if ell_max % int(round(ell)) != 0:
            raise ValueError("every ell must divide the largest ell")

    def cell(ell: float):
        """Run ell as a discrete loop, and its window on the shared path: a rider."""
        ell_i = int(round(ell))
        hp_ell = scale_sqrt(hp, ell**-2, setup.algo) if ell > 1 else hp
        oracle = _SequencedGaussianOracle(setup.problem, setup.cov, ell * sigma)
        init = OptimizerState.initial(
            np.broadcast_to(setup.theta0, (setup.seeds, d)), v0=setup.u0 * oracle.sigma_effective**2
        )
        ks = [k * ell_i**2 for k in base_ks]
        loop = discrete_loop(oracle, setup.algo, hp_ell, init, base_steps * ell_i**2, fns, ks, None)
        return loop, ell_max**2 // ell_i**2, oracle

    riders = [cell(ell) for ell in ells]
    path = derive_rng(root_seed, "svag", setup.algo, "shared-path")
    for _ in _shared_path(path, base_steps * ell_max**2, (setup.seeds, d), riders):
        pass
    records = {ell: finish(loop) for ell, (loop, *_) in zip(ells, riders)}

    # consecutive-ell pairs are weak-error reports, paired seed by seed;
    # weak_error rejects a pair whose runs left the shared time grid
    pairs = [weak_error(records[a], records[b]) for a, b in zip(ells, ells[1:])]
    pair_x = [1.0 / ell**2 for ell in ells[:-1]]
    pair_gaps: dict[str, np.ndarray] = {}
    pair_se: dict[str, np.ndarray] = {}
    decay: dict[str, float | None] = {}
    decay_se: dict[str, float] = {}
    status: dict[str, str] = {}
    for name in fn_names:
        pair_gaps[name], pair_se[name], decay[name], decay_se[name], status[name] = _fit_gap_decay(
            pair_x, pairs, name, np.random.default_rng(0xB0075), n_boot=120
        )
    return SvagReport(
        ells=list(ells),
        records=records,
        pair_gaps=pair_gaps,
        pair_se=pair_se,
        decay_slope=decay,
        decay_slope_se=decay_se,
        status=status,
    )


def _z_scores(diff: np.ndarray, se: np.ndarray) -> np.ndarray:
    """diff / se, never NaN.

    Where se is 0 (a deterministic checkpoint, e.g. step 0) the two sides
    agree exactly or not at all: z is 0 where diff is 0 and +-inf elsewhere.
    """
    exact = np.where(diff == 0, 0.0, np.copysign(np.inf, diff))
    return np.divide(diff, se, out=exact, where=se > 0)


@dataclass(eq=False)
class ScalingReport:
    """Aligned-checkpoint agreement between a base run and a rescaled run."""

    plan: ScalingPlan
    times: np.ndarray
    base_mean: dict[str, np.ndarray]
    base_se: dict[str, np.ndarray]
    scaled_mean: dict[str, np.ndarray]
    scaled_se: dict[str, np.ndarray]
    z_scores: dict[str, np.ndarray]
    threshold = 4.0  # the check passes when every |z| is at most this

    @property
    def max_abs_z(self) -> float:
        return float(max(np.max(np.abs(z)) for z in self.z_scores.values()))

    @property
    def passed(self) -> bool:
        return self.max_abs_z <= self.threshold


def validate_scaling(
    plan: ScalingPlan,
    problem: Problem,
    algo: str,
    fn_names,
    base_steps: int,
    checkpoints,
    seeds: int,
    root_seed: int,
    batch_size: int | None = None,
    sigma: float | None = None,
    cov: CovarianceSpec | None = None,
    theta0=None,
) -> ScalingReport:
    """Compare test-function traces at aligned checkpoints across batch sizes.

    The base run uses minibatch noise at an integer ``batch_size`` (or, with
    no batch size, a Gaussian oracle at scale ``sigma`` on ``cov``) from
    ``theta0``, a finite (d,) vector that defaults to 0, and u = 1; the
    scaled run multiplies the batch by plan.kappa (or divides sigma by
    sqrt(kappa)) and runs floor(steps/kappa) steps with the plan's
    hyperparameters, so total continuous time matches under the square-root
    rule. Checkpoints are base-run step indices and must be divisible by
    kappa so that aligned pairs share exact times; one of them must be after
    step 0, and ``base_steps`` at least kappa, or the runs would only compare
    their identical starts. The plan's rule must name ``algo`` after its dash
    (``sqrt-rmsprop`` runs rmsprop): a plan built for another algorithm
    moves fields this one does not read.

    The two runs are not coupled: each draws from its own
    ``derive_rng(root_seed, "scaling", plan.rule, tag)`` stream, and each
    z-score divides the gap by the unpaired SE, sqrt(base SE^2 + scaled
    SE^2). ROADMAP item 19 puts them on one ``_shared_path``.
    """
    if plan.rule.partition("-")[2] != algo:
        raise ValueError(f"plan {plan.rule!r} was built for another algorithm than {algo!r}")
    if (batch_size is None) == (sigma is None):
        raise ValueError("give exactly one of batch_size or sigma")
    if sigma is not None and cov is None:
        raise ValueError("a Gaussian oracle at scale sigma needs cov")
    if batch_size is not None and cov is not None:
        raise ValueError("cov goes with sigma: minibatch noise is the problem's own")
    if batch_size is not None:
        _check_count("batch_size", batch_size, 1)
    _check_count("seeds", seeds, 2)  # every SE needs two samples
    kappa = plan.kappa
    if kappa < 1:
        raise ValueError("kappa must be at least 1")
    if abs(kappa - round(kappa)) > 1e-12:
        raise ValueError("kappa must be an integer for exact checkpoint alignment")
    _check_count("base_steps", base_steps, 0)
    if base_steps < round(kappa):
        raise ValueError(f"base_steps {base_steps!r} is below kappa {kappa!r}: the scaled run takes no step")
    checkpoints = list(checkpoints)
    if any(k % int(round(kappa)) != 0 for k in checkpoints):
        raise ValueError("checkpoints must be multiples of kappa for exact alignment")
    if checkpoints and max(checkpoints) <= 0:  # no checkpoint at all is the recorder's error
        raise ValueError("checkpoints leave no step after t = 0: both runs would compare their start")
    d = problem.dim
    theta0 = np.zeros(d) if theta0 is None else np.asarray(theta0, dtype=float)
    _check_start("theta0", theta0, d)
    fns = TestFunctionSet.from_names(fn_names, d)

    def one_run(tag: str, hp: HyperParams, steps: int, ks, scale_batch: float) -> TrajectoryRecord:
        if batch_size is not None:
            oracle = MinibatchOracle(problem, int(round(batch_size * scale_batch)))
        else:
            oracle = GaussianOracle(problem, cov, sigma / math.sqrt(scale_batch))
        init = OptimizerState.initial(
            np.broadcast_to(theta0, (seeds, d)), v0=oracle.sigma_effective**2
        )
        rng = derive_rng(root_seed, "scaling", plan.rule, tag)
        return run_discrete(oracle, algo, hp, init, steps, fns, ks, rng)

    scaled_steps = plan.map_step(base_steps)
    scaled_ks = [plan.map_step(k) for k in checkpoints]
    base_rec = one_run("base", plan.base, base_steps, checkpoints, 1.0)
    scaled_rec = one_run(f"kappa={kappa!r}", plan.scaled, scaled_steps, scaled_ks, kappa)

    # aligned times: base k eta^2 must equal scaled (k/kappa) eta'^2 under the
    # sqrt rule; linear rules redefine the clock, so alignment is by step pair
    base_t = base_rec.times
    z_scores, b_mean, b_se, s_mean, s_se = {}, {}, {}, {}, {}
    for name in fns.names:
        bm, bs = base_rec.mean(name), base_rec.se(name)
        sm, ss = scaled_rec.mean(name), scaled_rec.se(name)
        z_scores[name] = _z_scores(bm - sm, np.sqrt(bs**2 + ss**2))
        b_mean[name], b_se[name], s_mean[name], s_se[name] = bm, bs, sm, ss
    return ScalingReport(
        plan=plan,
        times=base_t,
        base_mean=b_mean,
        base_se=b_se,
        scaled_mean=s_mean,
        scaled_se=s_se,
        z_scores=z_scores,
    )


def _rel_err(exact: np.ndarray, approx: np.ndarray) -> np.ndarray:
    """|exact - approx| / |approx|, and 0 where the approximation vanishes."""
    return np.divide(
        np.abs(exact - approx), np.abs(approx), out=np.zeros_like(approx), where=approx != 0
    )


@dataclass(eq=False)
class WarmupReport:
    """Closed-form check for the frozen-preconditioner linear-loss run."""

    k: int
    exact_mean: np.ndarray
    exact_var: np.ndarray
    empirical_mean: np.ndarray
    empirical_var: np.ndarray
    z_mean: np.ndarray
    z_var: np.ndarray
    approx_mean_rel_err: np.ndarray
    approx_var_rel_err: np.ndarray
    seeds: int

    @property
    def passed(self) -> bool:
        return bool(np.all(np.abs(self.z_mean) <= 4.0) and np.all(np.abs(self.z_var) <= 4.0))


def linear_warmup_check(
    g_bar,
    sigma: float,
    eta: float,
    k: int,
    seeds: int,
    root_seed: int,
) -> WarmupReport:
    """Frozen-v run of k steps on a linear loss against the exact law of step k.

    With decay frozen at 1, v stays at g_bar^2 + sigma^2 forever and each
    coordinate of theta_k is exactly Gaussian:

        mean  = -k eta g_i / sqrt(g_i^2 + sigma^2)
        var   =  k eta^2 sigma^2 / (g_i^2 + sigma^2)

    At sigma >> |g_bar| this collapses to the noise-dominated approximation
    (-k eta/sigma g, k eta^2 I); both the exact law (within 4 SE) and the
    approximation residual are reported. Requires sigma > 0 and
    sigma >= 100 max|g_i|.
    """
    g_bar = np.atleast_1d(np.asarray(g_bar, dtype=float))
    if not sigma > 0:  # at g_bar = 0 the dominance check below holds at sigma = 0
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    if sigma < 100.0 * np.max(np.abs(g_bar)):
        raise ValueError("noise dominance requires sigma >= 100 * max|g_bar|")
    _check_count("seeds", seeds, 2)  # every SE needs two samples
    problem = LinearProblem(g_bar)
    d = problem.dim
    oracle = GaussianOracle(problem, IsotropicCovariance(1.0), sigma)
    hp = HyperParams(eta=eta, beta=1.0, epsilon=0.0)
    v0 = g_bar**2 + sigma**2
    init = OptimizerState.initial(np.zeros((seeds, d)), v0=np.broadcast_to(v0, (seeds, d)))
    fns = TestFunctionSet.from_names([f"theta_{i}" for i in range(d)], d)
    rng = derive_rng(root_seed, "warmup")
    rec = run_discrete(oracle, "rmsprop", hp, init, k, fns, [k], rng)

    samples = np.stack([rec.values[f"theta_{i}"][0] for i in range(d)], axis=1)
    emp_mean = samples.mean(axis=0)
    emp_var = samples.var(axis=0, ddof=1)
    exact_mean = -k * eta * g_bar / np.sqrt(g_bar**2 + sigma**2)
    exact_var = k * eta**2 * sigma**2 / (g_bar**2 + sigma**2)
    se_mean = np.sqrt(emp_var / seeds)
    se_var = emp_var * math.sqrt(2.0 / (seeds - 1))
    approx_mean = -k * eta / sigma * g_bar
    approx_var = np.full(d, k * eta**2)
    return WarmupReport(
        k=k,
        exact_mean=exact_mean,
        exact_var=exact_var,
        empirical_mean=emp_mean,
        empirical_var=emp_var,
        z_mean=_z_scores(emp_mean - exact_mean, se_mean),
        z_var=_z_scores(emp_var - exact_var, se_var),
        approx_mean_rel_err=_rel_err(exact_mean, approx_mean),
        approx_var_rel_err=_rel_err(exact_var, approx_var),
        seeds=seeds,
    )
