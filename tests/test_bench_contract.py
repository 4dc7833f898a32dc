"""The benchmark's contract with the library: every name it looks up still exists.

``bench/spans.py`` wraps library functions by name and ``bench/micro.py``
calls single layers directly, so renaming or deleting one of them breaks the
benchmark without breaking any library test. These checks run the bench's
own self-tests and each microbenchmark callable once (about a second).
``bench/gate.py`` reads report fields by name; the gate checks push a tiny
sweep of each kind the self-test does not cover through every gate reader.
"""
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from adasde import ConstantCovariance, HyperParams, LeastSquaresProblem, QuadraticProblem, harness
from adasde.scaling import make_plan

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


def test_every_workload_builds(monkeypatch):
    # the workloads pass setup fields (coupled=True among them) that no
    # other test passes; building them checks every one
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    for workload in workloads.WORKLOADS:
        experiments = workloads.build(workload, 0)
        assert experiments and all(exp.cells for exp in experiments), workload


def _svag_experiment(workloads):
    problem = QuadraticProblem(np.diag([1.0, 0.5]))
    cov = ConstantCovariance(np.array([[1.0, 0.3], [0.3, 0.6]]))
    setup = harness.ApproximationSetup(
        problem, cov, "rmsprop", theta0=np.ones(2), u0=np.ones(2), T=0.2, seeds=16
    )
    ells = (1, 2, 4)
    return workloads.Experiment(
        "svag/rmsprop", "svag", tuple(f"svag/rmsprop/ell={ell}" for ell in ells), 16,
        lambda: harness.svag_sweep(setup, 0.2, ells, ["theta_0", "loss"], 0),
    )


def _scaling_experiment(workloads):
    data = np.random.default_rng(0)
    problem = LeastSquaresProblem(data.standard_normal((16, 2)), data.standard_normal(16))
    plan = make_plan("sqrt-rmsprop", HyperParams(eta=0.05, beta=0.99), 2)
    return workloads.Experiment(
        "scaling/sqrt-rmsprop", "scaling", ("scaling/sqrt-rmsprop",), 16,
        lambda: harness.validate_scaling(
            plan, problem, "rmsprop", ["theta_0", "loss"], base_steps=8, checkpoints=(4, 8),
            seeds=16, root_seed=0, batch_size=2,
        ),
    )


@pytest.mark.parametrize("build", [_svag_experiment, _scaling_experiment], ids=["svag", "scaling"])
def test_gate_reads_every_report_kind(build, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import gate
    import workloads

    exp = build(workloads)
    report = exp.call()
    values = gate.cell_values(exp, report)
    assert list(values) == list(exp.cells)
    for per_fn in values.values():
        assert set(per_fn) == {"theta_0", "loss"}
        assert all(v is not None and all(map(math.isfinite, v)) for v in per_fn.values())
    assert gate.check(values, gate.Reference({}), 0) == {}
    assert len(gate.digest(values)) == 64
    json.dumps(gate.verdicts(exp, report), allow_nan=False)
