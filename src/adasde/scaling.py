"""The constant-preserving hyperparameter map and the batch-size scaling rules.

The RMSprop and Adam SDEs see the discrete hyperparameters only through

    sigma0 = sigma * eta,   epsilon0 = epsilon * eta,   c = (1 - beta) / eta^2,

one c per decay the algorithm uses (``DECAYS``). The SGD SDE, on the clock
t = k eta, sees only sigma0 = sigma * sqrt(eta). ``sde_constants`` reads
these constants off (hyperparameters, sigma) and ``hyperparams_from_constants``
inverts it at a given eta. Holding them fixed while the noise scale divides
by sqrt(kappa) gives the square-root rule (``scale_sqrt``):

    eta' = eta sqrt(kappa),   epsilon' = epsilon / sqrt(kappa),   1 - beta' = kappa (1 - beta).

The noise-amplified (SVAG) run at ell keeps the same constants at step
eta/ell, so it is built by ``hyperparams_from_constants`` at eta/ell: in
exact arithmetic, the square-root rule at kappa = 1/ell^2.

``make_plan`` builds one of two batch-size rules, named in ``SCALING_RULES``
with the algorithm after the dash: the square-root rule above, and the
linear rule, which moves eta only (eta' = kappa eta, every other field
kept). The linear rule keeps SGD's sigma0 and deliberately breaks Adam's
constants, the baseline the square-root rule is contrasted with.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .optimizers import HyperParams

__all__ = [
    "DECAYS",
    "ScalingPlan",
    "SCALING_RULES",
    "hyperparams_from_constants",
    "scale_sqrt",
    "make_plan",
    "sde_constants",
]

# Each decay field an algorithm uses, and the continuous constant it pins.
DECAYS = {"rmsprop": {"beta": "c2"}, "adam": {"beta1": "c1", "beta2": "c2"}, "sgd": {}}

SCALING_RULES = ("sqrt-rmsprop", "sqrt-adam", "linear-sgd", "linear-adam")


def _decays(algo: str) -> dict[str, str]:
    try:
        return DECAYS[algo]
    except KeyError:
        raise ValueError(f"unknown algorithm {algo!r}") from None


def _check_kappa(kappa: float) -> float:
    if not kappa > 0:
        raise ValueError("kappa must be positive")
    return float(kappa)


def _scaled_decay(name: str, value: float, kappa: float) -> float:
    excess = kappa * (1.0 - value)
    if value < 1.0 and excess >= 1.0:
        raise ValueError(f"scaled decay leaves [0,1): kappa*(1-{name}) = {excess:g}")
    return 1.0 - excess


def sde_constants(algo: str, hp: HyperParams, sigma: float) -> dict[str, float]:
    """Continuous-time constants implied by discrete hyperparameters at noise scale sigma."""
    decays = _decays(algo)
    if not decays:  # the SGD SDE's noise amplitude; its step reads no epsilon
        return {"sigma0": sigma * math.sqrt(hp.eta)}
    out = {"sigma0": sigma * hp.eta, "epsilon0": hp.epsilon * hp.eta}
    for name, const in decays.items():
        out[const] = (1.0 - getattr(hp, name)) / hp.eta**2
    return out


def hyperparams_from_constants(
    algo: str, eta: float, sigma0: float, epsilon0: float, c2: float, c1: float | None = None
) -> tuple[HyperParams, float]:
    """Discrete (hyperparams, sigma) pinned to fixed continuous constants at this eta.

    SGD has no decays and runs at sigma = 1, so sigma0, epsilon0 and c2 do
    not apply to it.
    """
    if not eta > 0:  # checked before sigma0 / eta and epsilon0 / eta divide by it
        raise ValueError("eta must be positive")
    decays = _decays(algo)
    if not decays:
        return HyperParams(eta=eta), 1.0
    given = {"c1": c1, "c2": c2}
    kwargs = {}
    for name, const in decays.items():
        c = given[const]
        if c is None:
            raise ValueError(f"{algo} needs {const}")
        beta = 1.0 - c * eta**2
        if not 0.0 <= beta <= 1.0:
            raise ValueError(f"{const} eta^2 = {c * eta**2:g} leaves the decay range")
        kwargs[name] = beta
    return HyperParams(eta=eta, epsilon=epsilon0 / eta, **kwargs), sigma0 / eta


def scale_sqrt(hp: HyperParams, kappa: float, algo: str) -> HyperParams:
    """The square-root rule: keeps ``sde_constants`` when the noise scale divides by sqrt(kappa)."""
    decays = _decays(algo)
    kappa = _check_kappa(kappa)
    root = math.sqrt(kappa)
    moved = {name: _scaled_decay(name, getattr(hp, name), kappa) for name in decays}
    return replace(hp, eta=hp.eta * root, epsilon=hp.epsilon / root, **moved)


@dataclass(frozen=True)
class ScalingPlan:
    """Validated description of a base-vs-scaled pair of runs."""

    rule: str
    kappa: float
    base: HyperParams
    scaled: HyperParams

    def map_step(self, k: int) -> int:
        """Scaled-run step paired with base step k; square-root rules keep their times equal."""
        return int(k // self.kappa)


def make_plan(rule: str, hp: HyperParams, kappa: float) -> ScalingPlan:
    """Build a plan, rejecting out-of-range decays before any run starts."""
    if rule in ("sqrt-rmsprop", "sqrt-adam"):
        scaled = scale_sqrt(hp, kappa, rule.removeprefix("sqrt-"))
    elif rule in ("linear-sgd", "linear-adam"):
        scaled = replace(hp, eta=hp.eta * _check_kappa(kappa))
    else:
        raise ValueError(f"unknown scaling rule {rule!r}; expected one of {SCALING_RULES}")
    return ScalingPlan(rule=rule, kappa=float(kappa), base=hp, scaled=scaled)
