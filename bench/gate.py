"""Correctness gate and verdicts for the reports a workload pass returns.

The gate decides, per cell, whether the library's output is acceptable:

* the cell did not raise, and its gaps, SEs and the sweep's slopes are finite;
* each cell's max gap agrees with the reference recorded at the seed commit
  (``reference/<workload>.json``) within ``REFERENCE_K`` combined SEs. When
  the workload seed was not recorded, the gap must instead lie within the
  recorded seeds' range, widened by ``REFERENCE_K`` times their spread.

The bit-for-bit comparison with the recorded digest is reported as a flag,
not gated: a change of RNG stream legitimately breaks it.

Verdicts (slopes, statuses, z-scores, seeds needed) are computed from the
reports and printed; they are not gated, because they are the library's
scientific claims, not the benchmark's checks.
"""
from __future__ import annotations

import hashlib
import json
import math
import statistics
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_K = 6.0


def _finite(*values) -> bool:
    return all(v is not None and bool(np.all(np.isfinite(v))) for v in values)


def _seeds_needed(seeds: int, gap: float, se: float) -> int | None:
    """Seeds that would put the gap at 2 SE, since SE shrinks like 1/sqrt(S)."""
    if gap >= 2.0 * se or gap <= 0.0:
        return None
    return int(math.ceil(seeds * (2.0 * se / gap) ** 2))


def cell_values(exp, report) -> dict[str, dict[str, tuple[float, float] | None]]:
    """Per cell, per test function: (max gap, its SE), or None when not finite.

    An order cell is one eta; an SVAG cell is one ell, judged on the gap to
    the previous ell (the base ell has none); a scaling cell is one run pair.
    """
    out: dict[str, dict] = {}
    if exp.kind == "order":
        sweep_ok = all(_finite(report.slopes[n], report.slope_se[n]) for n in report.slopes)
        for cell, rep in zip(exp.cells, report.reports):
            out[cell] = {}
            for name in rep.names:
                ok = sweep_ok and _finite(
                    rep.gaps[name], rep.combined_se[name], rep.paired_se[name]
                )
                out[cell][name] = (rep.max_gap[name], rep.se_at_max(name)) if ok else None
    elif exp.kind == "svag":
        sweep_ok = all(_finite(report.decay_slope[n], report.decay_slope_se[n]) for n in report.status)
        for i, (cell, ell) in enumerate(zip(exp.cells, report.ells)):
            record_ok = sweep_ok and _finite(*report.records[ell].values.values())
            out[cell] = {}
            for name in report.pair_gaps:
                if i == 0:
                    out[cell][name] = (0.0, 0.0) if record_ok else None
                    continue
                gap, se = report.pair_gaps[name][i - 1], report.pair_se[name][i - 1]
                out[cell][name] = (float(gap), float(se)) if record_ok and _finite(gap, se) else None
    else:
        cell = exp.cells[0]
        out[cell] = {}
        for name, z in report.z_scores.items():
            diff = np.abs(report.base_mean[name] - report.scaled_mean[name])
            se = np.sqrt(report.base_se[name] ** 2 + report.scaled_se[name] ** 2)
            idx = int(np.argmax(diff))
            ok = _finite(z, diff, se)
            out[cell][name] = (float(diff[idx]), float(se[idx])) if ok else None
    return out


def digest(values: dict[str, dict]) -> str:
    """Hash of every cell value's exact bits, in cell order."""
    h = hashlib.sha256()
    for cell in sorted(values):
        for name in sorted(values[cell]):
            h.update(f"{cell}/{name}".encode())
            h.update(np.asarray(values[cell][name], dtype=float).tobytes())
    return h.hexdigest()


class Reference:
    """Max gaps and digests recorded at the seed commit, per workload seed."""

    def __init__(self, table: dict):
        self.seeds: dict[str, dict] = table.get("seeds", {})
        pooled: dict[str, list[tuple[float, float]]] = {}
        for entry in self.seeds.values():
            for key, (gap, se) in entry["cells"].items():
                pooled.setdefault(key, []).append((gap, se))
        # Across seeds the gap varies by its SE and, where the problem data
        # depend on the seed, by the data, with heavy tails; the fallback for
        # an unrecorded seed therefore admits the whole recorded range plus
        # REFERENCE_K spreads. One recorded seed gives its SE as the spread.
        self.pooled = {}
        for key, rows in pooled.items():
            gaps = [g for g, _ in rows]
            center = statistics.median(gaps)
            spread = statistics.stdev(gaps) if len(gaps) > 1 else rows[0][1]
            self.pooled[key] = (center, spread, max(abs(g - center) for g in gaps))

    @classmethod
    def load(cls, workload: str) -> "Reference":
        path = REFERENCE_DIR / f"{workload}.json"
        return cls(json.loads(path.read_text()) if path.exists() else {})

    def bound(self, seed: int, key: str, se: float) -> tuple[float, float] | None:
        """(reference gap, allowed distance) for one cell function, or None if unrecorded."""
        entry = self.seeds.get(str(seed))
        if entry is not None and key in entry["cells"]:
            ref_gap, ref_se = entry["cells"][key]
            return ref_gap, REFERENCE_K * math.hypot(se, ref_se)
        if key in self.pooled:
            ref_gap, spread, half_range = self.pooled[key]
            return ref_gap, half_range + REFERENCE_K * math.hypot(se, spread)
        return None

    def bitwise_equal(self, seed: int, pass_digest: str) -> bool | None:
        entry = self.seeds.get(str(seed))
        return None if entry is None else entry["digest"] == pass_digest


def check(values: dict[str, dict], reference: Reference, seed: int) -> dict[str, str]:
    """Failure reason per failed cell; cells absent from the result passed."""
    failures = {}
    for cell, per_fn in values.items():
        for name, val in per_fn.items():
            if val is None:
                failures[cell] = f"{name}: non-finite gap, SE or slope"
                break
            gap, se = val
            bound = reference.bound(seed, f"{cell}/{name}", se)
            if bound is not None and abs(gap - bound[0]) > bound[1]:
                failures[cell] = (
                    f"{name}: max gap {gap:.6g} is {abs(gap - bound[0]):.3g} from the"
                    f" reference {bound[0]:.6g}, beyond the bound {bound[1]:.3g}"
                )
                break
    return failures


def verdicts(exp, report) -> dict:
    """The experiment's scientific verdicts, as plain JSON values."""
    if exp.kind == "order":
        out = {}
        for name in report.slopes:
            cells = []
            for eta, rep in zip(report.etas, report.reports):
                gap, se = rep.max_gap[name], rep.se_at_max(name)
                cells.append({"eta": eta, "max_gap": gap, "paired_se": se,
                              "seeds_needed": _seeds_needed(exp.seeds, gap, se)})
            out[name] = {"slope": report.slopes[name], "slope_se": report.slope_se[name],
                         "status": report.status[name], "cells": cells}
        return out
    if exp.kind == "svag":
        out = {}
        for name in report.status:
            pairs = []
            for (a, b), gap, se in zip(report.pairs, report.pair_gaps[name], report.pair_se[name]):
                pairs.append({"ells": [a, b], "gap": float(gap), "se": float(se),
                              "seeds_needed": _seeds_needed(exp.seeds, float(gap), float(se))})
            out[name] = {"decay_slope": report.decay_slope[name],
                         "decay_slope_se": report.decay_slope_se[name],
                         "status": report.status[name], "pairs": pairs}
        return out
    return {
        "max_abs_z": report.max_abs_z,
        "threshold": report.threshold,
        "passed": report.passed,
        "max_abs_z_by_function": {n: float(np.max(np.abs(z))) for n, z in report.z_scores.items()},
    }
