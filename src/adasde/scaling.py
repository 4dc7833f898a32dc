"""Hyperparameter scaling rules across batch sizes and checkpoint alignment.

The square-root rules move every hyperparameter so that the continuous-time
constants sigma0 = sigma * eta, c = (1 - beta) / eta^2, and eps0 = eps * eta
are unchanged when the batch size multiplies by kappa (noise scale divides
by sqrt(kappa)). The linear variants deliberately break this and exist as
ablation baselines.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .optimizers import HyperParams

__all__ = [
    "ScalingPlan",
    "SCALING_RULES",
    "scale_rmsprop",
    "scale_adam",
    "scale_linear_variant",
    "scale_partial_sqrt",
    "make_plan",
    "sde_constants",
]

SCALING_RULES = (
    "sqrt-rmsprop",
    "sqrt-adam",
    "linear-sgd",
    "linear-adam",
    "partial-sqrt",
)

_DECAY_FIELDS = ("beta", "beta1", "beta2")


def _check_kappa(kappa: float) -> float:
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    return float(kappa)


def _scaled_decay(name: str, value: float, kappa: float) -> float:
    excess = kappa * (1.0 - value)
    if value < 1.0 and excess >= 1.0:
        raise ValueError(f"scaled decay leaves [0,1): kappa*(1-{name}) = {excess:g}")
    return 1.0 - excess


def scale_rmsprop(hp: HyperParams, kappa: float) -> HyperParams:
    """eta' = eta sqrt(kappa), beta' = 1 - kappa(1-beta), eps' = eps / sqrt(kappa)."""
    return scale_partial_sqrt(hp, kappa, {"eta", "beta", "epsilon"})


def scale_adam(hp: HyperParams, kappa: float) -> HyperParams:
    """Like the RMSprop rule with both decays moved together."""
    return scale_partial_sqrt(hp, kappa, {"eta", "beta1", "beta2", "epsilon"})


def scale_linear_variant(hp: HyperParams, kappa: float, flags=frozenset({"eta"})) -> HyperParams:
    """Ablation rule: eta scales by kappa, flagged (1-beta) fields by kappa, eps fixed."""
    kappa = _check_kappa(kappa)
    flags = frozenset(flags)
    unknown = flags - {"eta", *_DECAY_FIELDS}
    if unknown:
        raise ValueError(f"unknown linear-rule flags: {sorted(unknown)}")
    if "eta" not in flags:
        raise ValueError("the linear variants always scale eta")
    kwargs = {"eta": hp.eta * kappa}
    for name in _DECAY_FIELDS:
        if name in flags:
            kwargs[name] = _scaled_decay(name, getattr(hp, name), kappa)
    return replace(hp, **kwargs)


def scale_partial_sqrt(hp: HyperParams, kappa: float, flags) -> HyperParams:
    """Ablation rule: apply the square-root move to a subset of the fields."""
    kappa = _check_kappa(kappa)
    flags = frozenset(flags)
    unknown = flags - {"eta", "epsilon", *_DECAY_FIELDS}
    if unknown:
        raise ValueError(f"unknown partial-rule flags: {sorted(unknown)}")
    kwargs = {}
    if "eta" in flags:
        kwargs["eta"] = hp.eta * math.sqrt(kappa)
    if "epsilon" in flags:
        kwargs["epsilon"] = hp.epsilon / math.sqrt(kappa)
    for name in _DECAY_FIELDS:
        if name in flags:
            kwargs[name] = _scaled_decay(name, getattr(hp, name), kappa)
    return replace(hp, **kwargs)


@dataclass(frozen=True)
class ScalingPlan:
    """Validated description of a base-vs-scaled pair of runs."""

    rule: str
    kappa: float
    base: HyperParams
    scaled: HyperParams
    flags: frozenset = frozenset()

    def map_step(self, k: int) -> int:
        """Scaled-run step paired with base step k; square-root rules keep their times equal."""
        return int(k // self.kappa)


def make_plan(rule: str, hp: HyperParams, kappa: float, flags=None) -> ScalingPlan:
    """Build a plan, rejecting out-of-range decays before any run starts."""
    if rule == "sqrt-rmsprop":
        scaled = scale_rmsprop(hp, kappa)
    elif rule == "sqrt-adam":
        scaled = scale_adam(hp, kappa)
    elif rule == "linear-sgd":
        scaled = scale_linear_variant(hp, kappa, {"eta"})
    elif rule == "linear-adam":
        scaled = scale_linear_variant(hp, kappa, flags or frozenset({"eta"}))
    elif rule == "partial-sqrt":
        if not flags:
            raise ValueError("partial-sqrt needs a flag subset")
        scaled = scale_partial_sqrt(hp, kappa, flags)
    else:
        raise ValueError(f"unknown scaling rule {rule!r}; expected one of {SCALING_RULES}")
    return ScalingPlan(rule=rule, kappa=float(kappa), base=hp, scaled=scaled,
                       flags=frozenset(flags or ()))


def sde_constants(algo: str, hp: HyperParams, sigma: float) -> dict[str, float]:
    """Continuous-time constants implied by discrete hyperparameters at noise scale sigma."""
    out = {"sigma0": sigma * hp.eta, "epsilon0": hp.epsilon * hp.eta}
    if algo == "rmsprop":
        out["c2"] = (1.0 - hp.beta) / hp.eta**2
    elif algo == "adam":
        out["c1"] = (1.0 - hp.beta1) / hp.eta**2
        out["c2"] = (1.0 - hp.beta2) / hp.eta**2
    elif algo == "sgd":
        pass
    else:
        raise ValueError(f"unknown algorithm {algo!r}")
    return out
