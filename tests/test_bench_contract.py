"""The benchmark's contract with the library: every name it looks up still exists.

``bench/spans.py`` wraps library functions by name and ``bench/micro.py``
calls single layers directly, so renaming or deleting one of them breaks the
benchmark without breaking any library test. These checks run the bench's
own self-tests and each microbenchmark callable once (about a second).
"""
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_bench_selftest_passes():
    out = subprocess.run(
        [sys.executable, str(BENCH / "selftest.py")],
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-4000:]


def test_every_microbenchmark_runs(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import micro

    cases = micro.cases(0)
    assert cases
    for call in cases.values():
        call()  # a failure's traceback names the case in micro.py
