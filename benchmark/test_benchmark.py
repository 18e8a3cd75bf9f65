"""Tests of the benchmark itself: ``python -m pytest benchmark``.

The smoke test runs ``run.py --smoke`` (every workload, untraced and
traced, on tiny inputs) and checks each result against the contract in
BENCHMARK.json. The others check how failures and import reports are read.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402


def test_smoke_run_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert {(r["workload"], r["trace"]) for r in results} == {
        (w["name"], t) for w in spec["workloads"] for t in (0, 1)
    }
    for r in results:
        expected = spec["per_layer"] if r["trace"] else spec["end_to_end"]
        assert r["correct"] is True
        assert r["attempted"] >= 1 and 0 <= r["failed"] <= r["attempted"]
        assert sum(r["failed_by_class"].values()) == r["failed"]
        assert set(r["metrics"]) == {m["name"] for m in expected}
        for m in expected:
            got = r["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], float)
        if not r["trace"]:
            assert all(v["value"] > 0 for v in r["metrics"].values())


def _sweep_op(cls, known_defect, outcome):
    """A small-docs sweep operation whose CLI call returns ``outcome``."""
    assert run.resolve_uqsd() is None
    import workloads

    states = np.array([[1.0, 0.6], [0.0, 0.8]], dtype=complex)
    priors = np.array([0.5, 0.5])
    check = workloads._check_sweep(states, priors, known_defect)
    return workloads.Op(cls, lambda: outcome, lambda res: workloads._check_cli(res, check))


def test_only_the_closed_form_miss_is_a_known_defect():
    wrong_pd = (0, json.dumps({"measurement": {"detection_probability": 0.3}}), "")
    right_pd = (0, json.dumps({"measurement": {"detection_probability": 0.4}}), "")
    crashed = (3, "", "certificate rejected\n")
    cases = [
        ("known-miss", True, wrong_pd, 1, 0),
        ("known-crash", True, crashed, 1, 1),
        ("known-pass", True, right_pd, 0, 0),
        ("plain-miss", False, wrong_pd, 1, 1),
    ]
    for cls, known, outcome, failed, unexpected in cases:
        tally = run.Tally()
        op = _sweep_op(cls, known, outcome)
        tally.add(op, 0.001, 0.001, run.run_op(op)[-1])
        assert (tally.failed, tally.unexpected) == (failed, unexpected), cls
        assert tally.classes[cls][1] == failed


def test_importtime_reads_zero_for_a_module_never_imported():
    report = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       120 |        950 | uqsd.ensemble\n"
        "import time:        80 |       2500 | uqsd\n"
    )
    assert tracer.importtime_ms(report, "uqsd") == 2.5
    assert tracer.importtime_ms(report, "scipy.optimize") == 0.0
    assert tracer.importtime_ms("", "uqsd") == 0.0
