"""Run every workload untraced and traced, and print every metric by name with its unit.

    python3 bench/summary.py --seed 0

Each run is ``bench/run.py`` in a fresh interpreter, exactly as it is run
one at a time; this script only collects and prints their results.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=300, cwd=ROOT,
    )
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    all_correct = True
    for w in spec["workloads"]:
        for trace in (0, 1):
            detail, result = run_once(w["name"], args.seed, args.seconds, trace)
            all_correct &= result["correct"]
            print(f"== {w['name']} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"passes={detail['passes']} bitwise_equal={detail['bitwise_equal']}")
            for name, m in result["metrics"].items():
                print(f"{w['name']:16s} {name:36s} {m['value']:>14.6g} {m['unit']}")
            if trace:
                for group, share in detail["layer_shares"].items():
                    print(f"{w['name']:16s} {'share.' + group:36s} {share:>14.3f} ratio")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
