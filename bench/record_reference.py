"""Record the correctness gate's reference: one pass per workload seed.

    python3 bench/record_reference.py --workload order-const --seeds 0-31

Writes ``bench/reference/<workload>.json`` with each seed's per-cell max
gaps and SEs and the digest of their exact bits. Run it only at a commit
whose results are trusted; the gate compares every later run against it.
"""
from __future__ import annotations

import argparse
import json
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-31")
    args = parser.parse_args(argv)
    first, last = (int(x) for x in args.seeds.split("-"))

    run.prepare()
    import core
    import gate
    import workloads

    empty = gate.Reference({})
    table = {
        "source_sha256": core.source_digest(run.ROOT),
        "git_commit": core.git_commit(run.ROOT),
        "seeds": {},
    }
    for seed in range(first, last + 1):
        result = core.run_pass(workloads.build(args.workload, seed), empty, seed)
        if result.failures:
            sys.exit(f"seed {seed}: cells failed, nothing recorded: {result.failures}")
        cells = {
            f"{cell}/{name}": list(val)
            for cell, per_fn in result.values.items()
            for name, val in per_fn.items()
        }
        table["seeds"][str(seed)] = {"digest": result.digest, "cells": cells}
        print(f"{args.workload} seed {seed}: {len(cells)} values", flush=True)

    gate.REFERENCE_DIR.mkdir(exist_ok=True)
    path = gate.REFERENCE_DIR / f"{args.workload}.json"
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
