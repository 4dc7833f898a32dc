"""Workload passes, the measurement loops, and the run's environment record."""
from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import resource
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import gate
import spans


@dataclass
class PassResult:
    """One pass over every experiment of a workload."""

    wall_s: float
    values: dict  # cell -> function -> (max gap, SE) or None
    failures: dict  # cell -> reason
    digest: str
    reports: dict | None  # experiment name -> report; kept for the first pass only
    peak_rss_mib: float  # process peak so far, read when the pass ends


def run_pass(experiments, reference: gate.Reference, seed: int) -> PassResult:
    """Run each experiment once (timed), then gate its cells (untimed)."""
    reports, raised = {}, {}
    t0 = perf_counter()
    for exp in experiments:
        try:
            reports[exp.name] = exp.call()
        except Exception as err:  # a raising sweep fails its cells; the run goes on
            raised[exp.name] = f"{type(err).__name__}: {err}"
    wall = perf_counter() - t0

    values, failures = {}, {}
    for exp in experiments:
        if exp.name in raised:
            failures.update({cell: f"raised {raised[exp.name]}" for cell in exp.cells})
        else:
            values.update(gate.cell_values(exp, reports[exp.name]))
    failures.update(gate.check(values, reference, seed))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return PassResult(wall, values, failures, gate.digest(values), reports, peak)


class CpuRotation:
    """Pins pass ``i`` to the i-th usable CPU in turn, restoring the full set on exit.

    The CPUs of a shared host slow down independently, for seconds to
    minutes, as other tenants load them. A process left on one CPU measures
    that CPU's phase; rotating passes over all of them averages the phases.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))

    def pin(self, i: int) -> None:
        os.sched_setaffinity(0, {self.cpus[i % len(self.cpus)]})

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        os.sched_setaffinity(0, self.cpus)


def passes_until(experiments, reference, seed: int, deadline: float) -> list[PassResult]:
    """Passes back to back until the next one would likely end after ``deadline``."""
    results: list[PassResult] = []
    with CpuRotation() as cpus:
        while True:
            cpus.pin(len(results))
            res = run_pass(experiments, reference, seed)
            if results:
                res.reports = None
            results.append(res)
            if perf_counter() + statistics.median(r.wall_s for r in results) > deadline:
                return results


def alternating_passes(experiments, reference, seed: int, deadline: float):
    """Untraced and traced passes in turn, so both see the same machine conditions.

    Returns the untraced results, the traced results and one span summary
    per traced pass.
    """
    tracer = spans.Tracer()
    untraced: list[PassResult] = []
    traced: list[PassResult] = []
    tables: list[dict] = []
    with CpuRotation() as cpus:
        while True:
            cpus.pin(len(untraced))  # both passes of a pair on the same CPU
            untraced.append(run_pass(experiments, reference, seed))
            tracer.clear()
            with spans.installed(tracer):
                traced.append(run_pass(experiments, reference, seed))
            tables.append(tracer.summary())
            for res in untraced[1:] + traced:
                res.reports = None
            pair = statistics.median(r.wall_s for r in untraced) + statistics.median(
                r.wall_s for r in traced
            )
            if perf_counter() + pair > deadline:
                return untraced, traced, tables


def layer_metrics(tables, traced_walls, untraced_walls) -> tuple[dict, dict]:
    """Per-layer metrics (medians over traced passes) and each layer group's share of wall time."""
    metrics: dict[str, tuple[float, str]] = {}
    for name in spans.SPAN_NAMES:
        metrics[f"{name}.calls"] = (tables[0][name]["calls"], "count")
        metrics[f"{name}.s"] = (statistics.median(t[name]["s"] for t in tables), "s")
        metrics[f"{name}.self_s"] = (statistics.median(t[name]["self_s"] for t in tables), "s")
    wall = statistics.median(traced_walls)
    remainders = [w - sum(row["self_s"] for row in t.values()) for w, t in zip(traced_walls, tables)]
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_frac"] = (wall / statistics.median(untraced_walls) - 1.0, "ratio")
    metrics["trace.unattributed_s"] = (statistics.median(remainders), "s")

    shares = {
        group: sum(
            metrics[f"{name}.self_s"][0]
            for name in spans.SPAN_NAMES
            if name.startswith(prefixes)
        ) / wall
        for group, prefixes in spans.LAYER_GROUPS.items()
    }
    shares["unattributed"] = metrics["trace.unattributed_s"][0] / wall
    return metrics, shares


def _blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if it exposes one."""
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit(root: Path) -> str | None:
    """HEAD commit read from .git without running git; None outside a repository."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + name):
            return line.split()[0]
    return None


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "adasde").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(root: Path, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
        "seed": seed,
    }
