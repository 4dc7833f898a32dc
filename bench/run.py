"""Benchmark of the adasde experiments: end-to-end figures or a traced per-layer breakdown.

Run from the repository root:

    python3 bench/run.py --workload order-const --seed 0 --seconds 30 --trace 0

Each run is a fresh interpreter that runs one workload's experiments back to
back (a closed loop in one process, one experiment at a time) for about
``--seconds`` seconds and checks every result against the correctness gate
(``gate.py``). The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` and ``failed`` count sweep cells (one eta, one ell, or one
scaling run). With ``--trace 0`` the metrics are end to end: ``wall_s``
(median wall time of one pass over the workload), ``setup_s`` (median time to
import and build the workload, over several fresh interpreters),
``peak_rss_mb`` (peak resident memory through set-up and the first pass)
and ``ok_frac`` (share of cells that passed the gate). With
``--trace 1`` they are per layer: span counts and times (``spans.py``),
tracing overhead and microbenchmarks (``micro.py``). The line before the last
holds the details: environment, verdicts, gate failures and layer shares.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# One BLAS thread: the workloads' matrices are at most 4 x 4 per seed, so
# threads add only scheduling noise. Fixed before numpy is first imported.
BLAS_THREADS = "1"
SETUP_PROBES = 4


def prepare() -> None:
    """Pin the BLAS thread count and make the checkout's ``src`` and ``bench`` importable."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    src = ROOT / "src"
    if not (src / "adasde" / "__init__.py").is_file():
        sys.exit(f"bench: no adasde package under {src}; run from a full checkout")
    sys.path[:0] = [str(src), str(BENCH_DIR)]


def _setup(workload: str, seed: int):
    """Import the library and build the workload; returns (experiments, seconds taken)."""
    t0 = perf_counter()
    import adasde
    import workloads

    experiments = workloads.build(workload, seed)
    elapsed = perf_counter() - t0
    if not Path(adasde.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"bench: imported adasde from {adasde.__file__}, not from this checkout")
    return experiments, elapsed


def _probe_setup(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter, so the import is not cached."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="order-const, order-empirical or svag-scaling")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    prepare()
    experiments, setup_main = _setup(args.workload, args.seed)
    if args.setup_probe:
        print(repr(setup_main))
        return 0

    import core
    import gate
    import micro

    reference = gate.Reference.load(args.workload)
    detail: dict = {"workload": args.workload, "trace": args.trace,
                    "env": core.environment(ROOT, args.seed)}

    if args.trace:
        micro_us = micro.run(args.seed)
        untraced, traced, tables = core.alternating_passes(
            experiments, reference, args.seed, perf_counter() + args.seconds
        )
        results = untraced + traced
        metrics, shares = core.layer_metrics(
            tables, [r.wall_s for r in traced], [r.wall_s for r in untraced]
        )
        metrics.update({f"micro.{name}": (us, "us") for name, us in micro_us.items()})
        detail["layer_shares"] = shares
        detail["calls_repeat"] = all(
            t[n]["calls"] == tables[0][n]["calls"] for t in tables for n in tables[0]
        )
    else:
        setup_samples = [setup_main] + [
            _probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)
        ]
        detail["setup_samples_s"] = setup_samples
        results = core.passes_until(experiments, reference, args.seed, perf_counter() + args.seconds)

    attempted = len(results) * sum(len(exp.cells) for exp in experiments)
    failed = sum(len(r.failures) for r in results)
    walls = [r.wall_s for r in results]
    if not args.trace:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setup_samples), "s"),
            # After the first pass: later passes add only allocator
            # fragmentation, which grows with the number of passes run.
            "peak_rss_mb": (results[0].peak_rss_mib, "MiB"),
            "ok_frac": (1.0 - failed / attempted, "ratio"),
        }
    passes_agree = all(r.digest == results[0].digest for r in results)
    detail.update(
        passes=len(results),
        pass_wall_s=walls,
        pass_wall_quartiles_s=statistics.quantiles(walls, n=4) if len(walls) > 1 else None,
        failed_frac=failed / attempted,
        failures={f"pass{i}/{cell}": why for i, r in enumerate(results) for cell, why in r.failures.items()},
        passes_agree=passes_agree,
        bitwise_equal=reference.bitwise_equal(args.seed, results[0].digest),
        verdicts={
            exp.name: gate.verdicts(exp, results[0].reports[exp.name])
            for exp in experiments
            if exp.name in results[0].reports
        },
    )
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0 and passes_agree,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
