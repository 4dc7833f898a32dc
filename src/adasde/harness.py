"""Weak-error measurement between discrete and continuous trajectories.

The sweeps here operationalize the approximation claims: expectations of
test functions along matched trajectories are compared checkpoint by
checkpoint, and the decay of the worst gap is fitted against the step size
(or the amplification factor, or the batch multiplier).

Statistical conventions:

* Every estimate is a mean over independent trajectories ("seeds") with
  SE = sample std / sqrt(seeds); pass/fail thresholds are stated in SE
  units so the suite stays sample-size aware.
* Discrete/continuous pairs are coupled by default: the Euler-Maruyama
  increments within one discrete step sum to that step's gradient noise,
  so both processes ride the same Brownian path. Coupling leaves each
  marginal distribution untouched (the gap estimate is unbiased) while
  shrinking its variance by orders of magnitude; the paired SE is then the
  honest uncertainty of the gap.
* A gap below 2 SE is reported as inconclusive rather than failed.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .moments import hyperparams_from_constants
from .ngos import GaussianOracle, GradientOracle, MinibatchOracle, SvagOracle
from .optimizers import (
    HyperParams,
    OptimizerState,
    adam_step,
    effective_time_step,
    run_discrete,
    svag_transform_hparams,
)
from .problems import CovarianceSpec, Problem
from .recording import TestFunctionSet, TrajectoryRecord
from .scaling import ScalingPlan
from .sde import SdeState, build_adam_sde, build_rmsprop_sde, build_sgd_sde, euler_maruyama
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
    """Gaussian oracle fed from a pre-drawn queue of standard-normal blocks.

    Used internally to couple a discrete run to an integrator run: each
    ``sample`` consumes the next (seeds, d) block and ignores its rng. Not
    part of the public oracle family (it is deliberately stateful).
    """

    def __init__(self, problem: Problem, cov: CovarianceSpec, sigma: float, draws: np.ndarray):
        super().__init__(problem, cov, float(sigma))
        object.__setattr__(self, "_queue", iter(draws))

    def _standard_normal(self, shape, rng) -> np.ndarray:
        try:
            return next(self._queue)
        except StopIteration:
            raise RuntimeError("sequenced oracle exhausted its draws") from None


@dataclass(frozen=True)
class ApproximationSetup:
    """One discrete-vs-continuous comparison family at fixed constants."""

    problem: Problem
    cov: CovarianceSpec
    algo: str  # rmsprop | adam | sgd
    theta0: np.ndarray
    u0: np.ndarray | None = None
    m0: np.ndarray | None = None
    sigma0: float = 1.0
    epsilon0: float = 0.0
    c1: float | None = None
    c2: float = 1.0
    T: float = 2.0
    t0: float | None = None  # adam warm-start time; default max(10 dt, 0.01 T)
    n_checkpoints: int = 5
    em_substeps: int = 20
    seeds: int = 200
    coupled: bool = True

    def __post_init__(self):
        object.__setattr__(self, "theta0", np.asarray(self.theta0, dtype=float))
        if self.u0 is not None:
            object.__setattr__(self, "u0", np.asarray(self.u0, dtype=float))
        if self.m0 is not None:
            object.__setattr__(self, "m0", np.asarray(self.m0, dtype=float))
        if self.algo not in ("rmsprop", "adam", "sgd"):
            raise ValueError(f"unknown algorithm {self.algo!r}")
        if self.algo != "sgd" and self.u0 is None:
            raise ValueError("adaptive setups need u0")
        if self.algo == "adam" and self.c1 is None:
            raise ValueError("adam setups need c1")


@dataclass
class WeakErrorReport:
    """Per-checkpoint expectation gaps between two records of one family."""

    times: np.ndarray
    gaps: dict[str, np.ndarray]
    combined_se: dict[str, np.ndarray]
    paired_se: dict[str, np.ndarray] | None
    max_gap: dict[str, float]
    argmax_t: dict[str, float]
    eta: float | None = None
    meta: dict = field(default_factory=dict)
    discrete: TrajectoryRecord | None = None
    continuous: TrajectoryRecord | None = None

    @property
    def names(self) -> list[str]:
        return list(self.gaps)

    def se_at_max(self, name: str) -> float:
        idx = int(np.argmax(np.abs(self.gaps[name])))
        se = self.paired_se if self.paired_se is not None else self.combined_se
        return float(se[name][idx])


def weak_error(
    discrete: TrajectoryRecord,
    continuous: TrajectoryRecord,
    names,
    eta: float | None = None,
) -> WeakErrorReport:
    """Gap per function per checkpoint, the max over checkpoints, and SEs.

    The two records must share checkpoint times within 1e-9. When the seed
    counts match, a paired SE (std of the per-seed differences) is reported
    alongside the unpaired combined SE; it is the relevant one for coupled
    runs.
    """
    if discrete.times.size != continuous.times.size or np.any(
        np.abs(discrete.times - continuous.times) > 1e-9
    ):
        raise ValueError("checkpoint time grids do not match")
    names = list(names)
    missing = [n for n in names if n not in discrete.values or n not in continuous.values]
    if missing:
        raise ValueError(f"functions missing from a record: {missing}")

    paired_possible = discrete.seed_count == continuous.seed_count
    gaps, comb, paired = {}, {}, {}
    max_gap, argmax_t = {}, {}
    for name in names:
        g = discrete.mean(name) - continuous.mean(name)
        gaps[name] = g
        comb[name] = np.sqrt(discrete.se(name) ** 2 + continuous.se(name) ** 2)
        if paired_possible:
            diff = discrete.values[name] - continuous.values[name]
            paired[name] = np.std(diff, axis=1, ddof=1) / math.sqrt(diff.shape[1])
        idx = int(np.argmax(np.abs(g)))
        max_gap[name] = float(np.abs(g[idx]))
        argmax_t[name] = float(discrete.times[idx])
    return WeakErrorReport(
        times=discrete.times.copy(),
        gaps=gaps,
        combined_se=comb,
        paired_se=paired if paired_possible else None,
        max_gap=max_gap,
        argmax_t=argmax_t,
        eta=eta,
        discrete=discrete,
        continuous=continuous,
    )


def _checkpoint_steps(k_start: int, n_steps: int, count: int) -> list[int]:
    ks = np.unique(np.round(np.linspace(k_start + 1, n_steps, count)).astype(int))
    return [int(k) for k in ks if k > k_start]


def _coarse_increments(fine: np.ndarray, factor: int) -> np.ndarray:
    """Sum ``factor`` consecutive standard-normal blocks along axis 0, rescaled to unit variance."""
    out = fine.reshape(fine.shape[0] // factor, factor, *fine.shape[1:]).sum(axis=1)
    out /= math.sqrt(factor)
    return out


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
    """
    d = setup.problem.dim
    S = setup.seeds
    algo = setup.algo
    hp, sigma = hyperparams_from_constants(
        algo, eta, setup.sigma0, setup.epsilon0, setup.c2, setup.c1
    )
    dt_e = effective_time_step(algo, eta)
    n_steps = int(math.floor(setup.T / dt_e + 1e-9))
    dt = dt_e / setup.em_substeps

    if algo == "adam":
        t0 = setup.t0 if setup.t0 is not None else max(10 * dt, 0.01 * setup.T)
        k0 = max(int(math.ceil(t0 / dt_e - 1e-9)), 1)
    else:
        k0 = 0
    if k0 >= n_steps:
        raise ValueError(f"warm start k0={k0} swallows the whole horizon ({n_steps} steps)")
    ks = _checkpoint_steps(k0, n_steps, setup.n_checkpoints)
    t_checkpoints = [k * dt_e for k in ks]

    rng = derive_rng(root_seed, "order", algo, f"eta={eta!r}")
    prefix = rng.standard_normal((k0, S, d)) if k0 else np.zeros((0, S, d))
    em_noise = rng.standard_normal(((n_steps - k0) * setup.em_substeps, S, d))
    if setup.coupled:
        # Each discrete step's noise is the normalized Wiener increment over
        # its interval. The stored diffusion keeps a plus sign while the
        # parameter-block noise enters the discrete update negatively, so the
        # pathwise identification flips sign except through Adam's momentum.
        main_draws = _coarse_increments(em_noise, setup.em_substeps)
        if algo != "adam":
            main_draws *= -1.0
    else:
        main_draws = rng.standard_normal((n_steps - k0, S, d))

    oracle = _SequencedGaussianOracle(
        setup.problem, setup.cov, sigma, np.concatenate([prefix, main_draws], axis=0)
    )
    # SGD never reads v, and its sigma is 1, so unit u0 is as good as any
    u0 = np.ones(d) if setup.u0 is None else setup.u0
    m0 = np.zeros(d) if setup.m0 is None else setup.m0
    state = OptimizerState.initial(
        np.broadcast_to(setup.theta0, (S, d)),
        v0=np.broadcast_to(u0 * sigma**2, (S, d)),
        m0=np.broadcast_to(m0, (S, d)),
    )
    for _ in range(k0):  # shared warm-up prefix, momentum path only
        state = adam_step(state, oracle.sample(state.theta, rng), hp)
    fns = TestFunctionSet.from_names(fn_names, d)
    discrete = run_discrete(
        setup.problem, oracle, algo, hp, state, n_steps - k0, fns,
        [k - k0 for k in ks], rng, cov=setup.cov,
    )

    if algo == "rmsprop":
        x0 = np.concatenate([state.theta, np.broadcast_to(u0, (S, d))], axis=1)
    elif algo == "adam":
        x0 = np.concatenate([state.theta, state.m, state.v / sigma**2], axis=1)
    else:
        x0 = state.theta.copy()
    em_rec = euler_maruyama(
        _build_system(setup, eta), SdeState(x0, k0 * dt_e), n_steps * dt_e, dt, None, fns,
        t_checkpoints, noise=em_noise,
    )
    return weak_error(discrete, em_rec, fn_names, eta=eta)


@dataclass
class OrderReport:
    """Fitted decay order of the worst expectation gap against eta."""

    etas: list[float]
    reports: list[WeakErrorReport]
    slopes: dict[str, float | None]
    slope_se: dict[str, float]
    status: dict[str, str]  # ok | inconclusive | degenerate
    meta: dict = field(default_factory=dict)

    def passed(self, names, lo: float, hi: float) -> bool:
        return all(
            self.status[n] == "ok" and self.slopes[n] is not None and lo <= self.slopes[n] <= hi
            for n in names
        )


def _fit_gap_decay(x, reports: list[WeakErrorReport], name: str, rng, n_boot: int):
    """Decay of the worst gap of ``name`` against x, one report per point.

    Returns (gaps, gap SEs, log-log slope, bootstrap slope SE, status). The
    bootstrap resamples seeds jointly within each report (paired when the
    two records have equal seed counts). Status is "degenerate" when every
    gap vanishes (no slope), "inconclusive" when some gap is within 2 SE,
    else "ok".
    """
    gaps = np.array([rep.max_gap[name] for rep in reports])
    ses = np.array([rep.se_at_max(name) for rep in reports])
    if np.all(gaps < 1e-300):
        return gaps, ses, None, 0.0, "degenerate"
    status = "inconclusive" if np.any(gaps < 2.0 * ses) else "ok"
    x = np.asarray(x, dtype=float)
    slope = fit_loglog_slope(x, np.maximum(gaps, 1e-300))
    boots = np.empty(n_boot)
    for b in range(n_boot):
        boot_gaps = []
        for rep in reports:
            dvals = rep.discrete.values[name]
            svals = rep.continuous.values[name]
            nd, ns = dvals.shape[1], svals.shape[1]
            di = rng.integers(0, nd, size=nd)
            si = di if nd == ns else rng.integers(0, ns, size=ns)
            gap = np.abs(dvals[:, di].mean(axis=1) - svals[:, si].mean(axis=1))
            boot_gaps.append(max(float(np.max(gap)), 1e-300))
        boots[b] = fit_loglog_slope(x, np.asarray(boot_gaps))
    return gaps, ses, slope, float(np.std(boots, ddof=1)), status


def order_sweep(
    setup: ApproximationSetup,
    etas,
    fn_names,
    root_seed: int,
) -> OrderReport:
    """Fit log(max gap) against log(eta) per test function.

    Requires at least 3 eta values with successive ratios >= sqrt(2). The
    fitted slope targets the approximation order (2 for the adaptive
    algorithms with effective time eta^2, 1 for SGD in eta). Cells whose gap
    never clears 2 SE are flagged inconclusive, not failed; identically zero
    gaps leave the slope undefined.
    """
    etas = sorted((float(e) for e in etas), reverse=True)
    if len(etas) < 3:
        raise ValueError("need at least 3 eta values")
    ratios = [etas[i] / etas[i + 1] for i in range(len(etas) - 1)]
    if min(ratios) < math.sqrt(2.0) * 0.98:  # 2% slack admits the standard 0.2/0.14/0.1/... ladder
        raise ValueError("eta values must shrink by roughly sqrt(2) or more per step")

    reports = [compare_at_eta(setup, eta, list(fn_names), root_seed) for eta in etas]

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
        meta={"algo": setup.algo, "seeds": setup.seeds, "coupled": setup.coupled},
    )


@dataclass
class SvagReport:
    """Convergence of amplified-noise trajectories as ell grows."""

    ells: list[float]
    records: dict[float, TrajectoryRecord]
    pair_gaps: dict[str, np.ndarray]      # per consecutive ell pair: max_t gap
    pair_se: dict[str, np.ndarray]
    decay_slope: dict[str, float | None]  # fitted on log gap vs log(1/ell^2)
    decay_slope_se: dict[str, float]
    status: dict[str, str]
    meta: dict = field(default_factory=dict)

    @property
    def pairs(self) -> list[tuple[float, float]]:
        return [(self.ells[i], self.ells[i + 1]) for i in range(len(self.ells) - 1)]

    def strictly_decreasing(self, name: str) -> bool:
        g = self.pair_gaps[name]
        return bool(np.all(np.diff(g) < 0))


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

    With a Gaussian base oracle and setup.coupled (the default), all runs
    ride one shared Brownian path: the amplified two-draw combination of
    Gaussians is itself Gaussian at scale ell * sigma, so each run's step
    noise can be taken as the normalized shared-path increment over its own
    step interval. Marginal trajectory laws are untouched; only the variance
    of cross-ell discrepancies drops. Coupling requires every ell to divide
    the largest one. Uncoupled runs draw through the genuine two-sample
    amplifier on independent streams.
    """
    ells = sorted(float(ell) for ell in ells)
    if ells[0] != 1.0:
        raise ValueError("the sweep must include ell = 1 as its base")
    for ell in ells:
        if abs(ell - round(ell)) > 1e-12:
            raise ValueError("ell values must be integers so checkpoint grids coincide")
    d = setup.problem.dim
    if setup.algo not in ("rmsprop", "adam"):
        raise ValueError("the amplified simulation applies to the adaptive algorithms")
    hp, sigma = hyperparams_from_constants(
        setup.algo, eta, setup.sigma0, setup.epsilon0, setup.c2, setup.c1
    )
    dt_e = effective_time_step(setup.algo, eta)
    base_steps = int(math.floor(setup.T / dt_e + 1e-9))
    base_ks = _checkpoint_steps(0, base_steps, setup.n_checkpoints)
    fns = TestFunctionSet.from_names(fn_names, d)
    base_oracle = GaussianOracle(setup.problem, setup.cov, sigma)
    m0 = np.zeros(d) if setup.m0 is None else setup.m0
    ell_max = int(round(ells[-1]))
    if setup.coupled:
        for ell in ells:
            if ell_max % int(round(ell)) != 0:
                raise ValueError("coupled sweeps need every ell to divide the largest ell")
        fine = derive_rng(root_seed, "svag", setup.algo, "shared-path").standard_normal(
            (base_steps * ell_max**2, setup.seeds, d)
        )

    def run_cell(ell: float) -> TrajectoryRecord:
        ell_i = int(round(ell))
        hp_ell = svag_transform_hparams(hp, ell, setup.algo) if ell > 1 else hp
        if setup.coupled:
            factor = (ell_max // ell_i) ** 2
            # coarsening by 1 would only copy the path, so the finest run reads it directly
            draws = fine if factor == 1 else _coarse_increments(fine, factor)
            oracle: GradientOracle = _SequencedGaussianOracle(
                setup.problem, setup.cov, ell * sigma, draws
            )
        else:
            oracle = SvagOracle(base_oracle, ell) if ell > 1 else base_oracle
        sig_eff = oracle.sigma_effective
        theta0 = np.broadcast_to(setup.theta0, (setup.seeds, d))
        init = OptimizerState.initial(
            theta0,
            v0=np.broadcast_to(setup.u0 * sig_eff**2, (setup.seeds, d)),
            m0=np.broadcast_to(m0, (setup.seeds, d)),
        )
        rng = derive_rng(root_seed, "svag", setup.algo, f"ell={ell_i}")
        ks = [k * ell_i**2 for k in base_ks]
        return run_discrete(
            setup.problem, oracle, setup.algo, hp_ell, init,
            base_steps * ell_i**2, fns, ks, rng, cov=setup.cov,
        )

    records = {ell: run_cell(ell) for ell in ells}
    for ell, rec in records.items():
        expected = np.asarray(base_ks, dtype=float) * dt_e
        if np.any(np.abs(rec.times - expected) > 1e-9):
            raise AssertionError("amplified runs drifted off the shared time grid")

    # consecutive-ell pairs are weak-error reports; equal seed counts (exact
    # seed sharing under coupling) make their SEs paired
    pairs = [weak_error(records[a], records[b], fn_names) for a, b in zip(ells, ells[1:])]
    pair_x = [1.0 / ell**2 for ell in ells[:-1]]
    pair_gaps: dict[str, np.ndarray] = {}
    pair_se: dict[str, np.ndarray] = {}
    decay: dict[str, float | None] = {}
    decay_se: dict[str, float] = {}
    status: dict[str, str] = {}
    rng_boot = np.random.default_rng(0xB0075)
    for name in fn_names:
        pair_gaps[name], pair_se[name], decay[name], decay_se[name], status[name] = _fit_gap_decay(
            pair_x, pairs, name, rng_boot, n_boot=120
        )
    return SvagReport(
        ells=list(ells),
        records=records,
        pair_gaps=pair_gaps,
        pair_se=pair_se,
        decay_slope=decay,
        decay_slope_se=decay_se,
        status=status,
        meta={"eta": eta, "algo": setup.algo, "seeds": setup.seeds},
    )


@dataclass
class ScalingReport:
    """Aligned-checkpoint agreement between a base run and a rescaled run."""

    plan: ScalingPlan
    times: np.ndarray
    base_mean: dict[str, np.ndarray]
    base_se: dict[str, np.ndarray]
    scaled_mean: dict[str, np.ndarray]
    scaled_se: dict[str, np.ndarray]
    z_scores: dict[str, np.ndarray]
    threshold: float
    meta: dict = field(default_factory=dict)

    @property
    def max_abs_z(self) -> float:
        return float(max(np.max(np.abs(z)) for z in self.z_scores.values()))

    @property
    def passed(self) -> bool:
        return self.max_abs_z <= self.threshold

    def rows(self):
        for name, z in self.z_scores.items():
            for i, t in enumerate(self.times):
                yield {
                    "t": float(t),
                    "function": name,
                    "mean_base": float(self.base_mean[name][i]),
                    "se_base": float(self.base_se[name][i]),
                    "mean_scaled": float(self.scaled_mean[name][i]),
                    "se_scaled": float(self.scaled_se[name][i]),
                    "z": float(z[i]),
                }


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
    u0=None,
    theta0=None,
    z_threshold: float = 4.0,
) -> ScalingReport:
    """Compare test-function traces at aligned checkpoints across batch sizes.

    The base run uses ``batch_size`` minibatch noise (or a Gaussian oracle at
    scale ``sigma``); the scaled run multiplies the batch by plan.kappa (or
    divides sigma by sqrt(kappa)) and runs floor(steps/kappa) steps with the
    plan's hyperparameters, so total continuous time matches under the
    square-root rule. Checkpoints must be divisible by kappa so that aligned
    pairs share exact times.
    """
    if (batch_size is None) == (sigma is None):
        raise ValueError("give exactly one of batch_size or sigma")
    kappa = plan.kappa
    if kappa < 1:
        raise ValueError("kappa must be at least 1")
    if abs(kappa - round(kappa)) > 1e-12:
        raise ValueError("kappa must be an integer for exact checkpoint alignment")
    checkpoints = sorted(int(k) for k in checkpoints)
    if not checkpoints:
        raise ValueError("need at least one checkpoint")
    if any(k % int(round(kappa)) != 0 for k in checkpoints):
        raise ValueError("checkpoints must be multiples of kappa for exact alignment")
    if checkpoints[-1] > base_steps:
        raise ValueError("checkpoints exceed the base run length")
    d = problem.dim
    theta0 = np.zeros(d) if theta0 is None else np.asarray(theta0, dtype=float)
    fns = TestFunctionSet.from_names(fn_names, d)

    def one_run(tag: str, hp: HyperParams, steps: int, ks, scale_batch: float) -> TrajectoryRecord:
        if batch_size is not None:
            oracle = MinibatchOracle(problem, int(round(batch_size * scale_batch)))
        else:
            oracle = GaussianOracle(problem, cov, sigma / math.sqrt(scale_batch))
        sig_eff = oracle.sigma_effective
        u_init = np.ones(d) if u0 is None else np.asarray(u0, dtype=float)
        init = OptimizerState.initial(
            np.broadcast_to(theta0, (seeds, d)),
            v0=np.broadcast_to(u_init * sig_eff**2, (seeds, d)),
        )
        rng = derive_rng(root_seed, "scaling", plan.rule, tag)
        return run_discrete(problem, oracle, algo, hp, init, steps, fns, ks, rng, cov=cov)

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
        diff, se = bm - sm, np.sqrt(bs**2 + ss**2)
        # a deterministic checkpoint (both SEs 0, e.g. step 0) agrees exactly or not at all
        exact = np.where(diff == 0, 0.0, np.copysign(np.inf, diff))
        z_scores[name] = np.divide(diff, se, out=exact, where=se > 0)
        b_mean[name], b_se[name], s_mean[name], s_se[name] = bm, bs, sm, ss
    return ScalingReport(
        plan=plan,
        times=base_t,
        base_mean=b_mean,
        base_se=b_se,
        scaled_mean=s_mean,
        scaled_se=s_se,
        z_scores=z_scores,
        threshold=z_threshold,
        meta={"algo": algo, "seeds": seeds, "base_steps": base_steps},
    )


@dataclass
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
    meta: dict = field(default_factory=dict)
    record: TrajectoryRecord | None = None

    @property
    def passed(self) -> bool:
        return bool(np.all(np.abs(self.z_mean) <= 4.0) and np.all(np.abs(self.z_var) <= 4.0))


def linear_warmup_check(
    g_bar,
    sigma: float,
    eta: float,
    k_max: int,
    seeds: int,
    root_seed: int,
    checkpoints=None,
) -> WarmupReport:
    """Frozen-v run on a linear loss against its exact per-coordinate law.

    With decay frozen at 1, v stays at g_bar^2 + sigma^2 forever and each
    coordinate of theta_k is exactly Gaussian:

        mean  = -k eta g_i / sqrt(g_i^2 + sigma^2)
        var   =  k eta^2 sigma^2 / (g_i^2 + sigma^2)

    At sigma >> |g_bar| this collapses to the noise-dominated approximation
    (-k eta/sigma g, k eta^2 I); both the exact law (within 4 SE) and the
    approximation residual are reported. Requires sigma >= 100 max|g_i|.
    """
    from .problems import IsotropicCovariance, LinearProblem

    g_bar = np.atleast_1d(np.asarray(g_bar, dtype=float))
    if sigma < 100.0 * np.max(np.abs(g_bar)):
        raise ValueError("noise dominance requires sigma >= 100 * max|g_bar|")
    problem = LinearProblem(g_bar)
    d = problem.dim
    oracle = GaussianOracle(problem, IsotropicCovariance(1.0), sigma)
    hp = HyperParams(eta=eta, beta=1.0, epsilon=0.0)
    v0 = g_bar**2 + sigma**2
    init = OptimizerState.initial(np.zeros((seeds, d)), v0=np.broadcast_to(v0, (seeds, d)))
    fns = TestFunctionSet.from_names([f"theta_{i}" for i in range(d)], d)
    ks = sorted(set(int(k) for k in (checkpoints or [k_max])))
    rng = derive_rng(root_seed, "warmup")
    rec = run_discrete(problem, oracle, "rmsprop", hp, init, k_max, fns, ks, rng)

    k = ks[-1]
    idx = len(ks) - 1
    samples = np.stack([rec.values[f"theta_{i}"][idx] for i in range(d)], axis=1)
    emp_mean = samples.mean(axis=0)
    emp_var = samples.var(axis=0, ddof=1)
    exact_mean = -k * eta * g_bar / np.sqrt(g_bar**2 + sigma**2)
    exact_var = k * eta**2 * sigma**2 / (g_bar**2 + sigma**2)
    se_mean = np.sqrt(emp_var / seeds)
    se_var = emp_var * math.sqrt(2.0 / (seeds - 1))
    approx_mean = -k * eta / sigma * g_bar
    approx_var = np.full(d, k * eta**2)
    with np.errstate(divide="ignore", invalid="ignore"):
        mean_rel = np.where(
            approx_mean != 0, np.abs(exact_mean - approx_mean) / np.abs(approx_mean), 0.0
        )
    return WarmupReport(
        k=k,
        exact_mean=exact_mean,
        exact_var=exact_var,
        empirical_mean=emp_mean,
        empirical_var=emp_var,
        z_mean=(emp_mean - exact_mean) / se_mean,
        z_var=(emp_var - exact_var) / se_var,
        approx_mean_rel_err=mean_rel,
        approx_var_rel_err=np.abs(exact_var - approx_var) / approx_var,
        seeds=seeds,
        meta={"eta": eta, "sigma": sigma, "g_bar": g_bar.tolist()},
        record=rec,
    )
