"""In-memory spans around the library's layer boundaries, for the traced run.

``Tracer.wrap`` times one function; ``installed`` puts wrappers where the
callers look the names up (module globals of the caller, or class
attributes for methods) and restores the originals on exit. Nothing in
``src/`` is changed: the spans sit at the boundaries, seen from outside.

Self time of a span is its duration minus the durations of its direct
children; spans nest strictly because the workloads run in one thread.
"""
from __future__ import annotations

import contextlib
import dataclasses
from time import perf_counter

from adasde import harness, ngos, optimizers, problems, recording

# Every span name the traced run can produce, in report order. Each is a
# module of src/adasde plus the function (or method family) it times.
SPAN_NAMES = (
    "sde.euler_maruyama",
    "sde.drift",
    "sde.apply_diffusion",
    "problems.full_gradient",
    "problems.cov_matrix",
    "problems.cov_sqrt",
    "problems.cov_diagonal",
    "linalg.psd_sqrt",
    "ngos.sample",
    "optimizers.run_discrete",
    "optimizers.step",
    "harness.order_sweep",
    "harness.svag_sweep",
    "harness.validate_scaling",
    "harness.compare_at_eta",
    "harness.weak_error",
    "stats.fit_loglog_slope",
    "recording.evaluate",
)

# Groups used to check the workload design: which layers a workload stresses.
LAYER_GROUPS = {
    "sde": ("sde.",),
    "problems+linalg": ("problems.", "linalg."),
    "ngos+optimizers": ("ngos.", "optimizers."),
    "harness": ("harness.",),
    "stats": ("stats.",),
    "recording": ("recording.",),
}


class Tracer:
    """Records (name, start, end, parent) spans in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._open[-1] if self._open else -1)
            self.ends.append(0.0)
            self._open.append(idx)
            self.starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.ends[idx] = perf_counter()
                self._open.pop()

        traced.__wrapped__ = fn
        return traced

    def clear(self) -> None:
        for buf in (self.names, self.starts, self.ends, self.parents):
            buf.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total seconds and self seconds."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(durations)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += durations[idx]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
        for name, dur, ch in zip(self.names, durations, child):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += dur
            row["self_s"] += dur - ch
        return out


def _traced_sde_factory(tracer: Tracer, build):
    """Wrap an SDE constructor so the systems it returns carry traced drift and diffusion."""

    def traced_build(*args, **kwargs):
        system = build(*args, **kwargs)
        return dataclasses.replace(
            system,
            drift=tracer.wrap("sde.drift", system.drift),
            apply_diffusion=tracer.wrap("sde.apply_diffusion", system.apply_diffusion),
        )

    return traced_build


def _traced_step_function(tracer: Tracer, step_function):
    def traced_step_function(algo):
        return tracer.wrap("optimizers.step", step_function(algo))

    return traced_step_function


def targets(tracer: Tracer):
    """(owner, attribute, replacement factory) for every boundary the tracer times."""
    wrap = tracer.wrap
    module_targets = [
        (harness, "euler_maruyama", lambda f: wrap("sde.euler_maruyama", f)),
        (harness, "run_discrete", lambda f: wrap("optimizers.run_discrete", f)),
        (harness, "adam_step", lambda f: wrap("optimizers.step", f)),
        (harness, "compare_at_eta", lambda f: wrap("harness.compare_at_eta", f)),
        (harness, "weak_error", lambda f: wrap("harness.weak_error", f)),
        (harness, "fit_loglog_slope", lambda f: wrap("stats.fit_loglog_slope", f)),
        (harness, "order_sweep", lambda f: wrap("harness.order_sweep", f)),
        (harness, "svag_sweep", lambda f: wrap("harness.svag_sweep", f)),
        (harness, "validate_scaling", lambda f: wrap("harness.validate_scaling", f)),
        (optimizers, "step_function", lambda f: _traced_step_function(tracer, f)),
        (problems, "psd_sqrt", lambda f: wrap("linalg.psd_sqrt", f)),
    ]
    module_targets += [
        (harness, name, lambda f: _traced_sde_factory(tracer, f))
        for name in ("build_rmsprop_sde", "build_adam_sde", "build_sgd_sde")
    ]
    covariances = (
        problems.CovarianceSpec,
        problems.IsotropicCovariance,
        problems.ConstantCovariance,
        problems.EmpiricalCovariance,
    )
    oracles = (
        ngos.GaussianOracle,
        ngos.MinibatchOracle,
        ngos.BernoulliNoiseOracle,
        ngos.SvagOracle,
        harness._SequencedGaussianOracle,
    )
    classes = [
        (
            (problems.LinearProblem, problems.QuadraticProblem, problems.LeastSquaresProblem),
            "full_gradient", "problems.full_gradient",
        ),
        (covariances, "matrix", "problems.cov_matrix"),
        (covariances, "sqrt", "problems.cov_sqrt"),
        (covariances, "diagonal", "problems.cov_diagonal"),
        (oracles, "sample", "ngos.sample"),
        ((recording.TestFunctionSet,), "evaluate", "recording.evaluate"),
    ]
    class_targets = [
        (cls, attr, lambda f, span=span: wrap(span, f))
        for owners, attr, span in classes
        for cls in owners
        if attr in vars(cls)  # inherited methods are timed once, on the defining class
    ]
    return module_targets + class_targets


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install every wrapper for the duration of the block, then restore the originals."""
    saved = []
    try:
        for owner, attr, make in targets(tracer):
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

