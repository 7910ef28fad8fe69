"""Tests of the benchmark itself: output shape, seeded inputs, the checker
and the tracer. No test looks at a timing.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import geomfree  # noqa: E402
from geomfree import series_kernel  # noqa: E402
from perfbench import oracle, run, workloads  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload, trace):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=300, cwd=ROOT)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload,trace", [
    ("eval-narrow", 0), ("eval-wide", 0), ("verify", 0), ("eval-wide", 1), ("verify", 1)])
def test_output_names_every_declared_metric_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0


def test_every_workload_is_declared():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.EVAL_WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    first = workloads.eval_ops(workload, 11)
    assert workloads.eval_ops(workload, 11) == first
    assert workloads.eval_ops(workload, 12) != first
    assert len(first) == workloads.EVAL_OPS


def test_verify_input_is_the_seed():
    assert workloads.verify_argv(5) == workloads.verify_argv(5)
    assert workloads.verify_argv(5) != workloads.verify_argv(6)


def test_wide_inputs_stay_in_the_input_contract():
    for f, x, tol in workloads.eval_ops("eval-wide", 1):
        assert 1e-17 <= tol <= 1e-3
        assert abs(x) <= (1.0 if f == "arcsin" else 1e8)
        assert x != 0.0


def test_checker_accepts_a_certified_result():
    cv = geomfree.sin_eval(0.5, 1e-15)
    assert oracle.check("sin", 0.5, cv).ok


def test_checker_counts_a_shrunk_bound_as_a_failure():
    cv = geomfree.cos_eval(2.0, 1e-15)
    with mpmath.workprec(oracle.PREC_BITS):
        err = float(abs(mpmath.mpf(cv.value) - mpmath.cos(2)))
    assert 0.0 < err <= cv.abs_error_bound
    shrunk = series_kernel.CertifiedValue(cv.value, err / 2)
    assert not oracle.check("cos", 2.0, shrunk).ok
    _, summary = oracle.eval_accuracy([("cos", 2.0, 1e-15)] * 2, [cv, shrunk])
    assert summary["fail_count"] == 1


def test_checker_counts_a_moved_value_and_an_exception():
    cv = geomfree.sin_eval(3.0, 1e-15)
    moved = series_kernel.CertifiedValue(cv.value + 1e-12, cv.abs_error_bound)
    assert not oracle.check("sin", 3.0, moved).ok
    assert not oracle.check("sin", 3.0, ValueError("raised")).ok


def test_verify_checker_counts_failed_and_changed_checks():
    report = {"checks": [{"name": "a", "pass": True, "detail": {}},
                         {"name": "b", "pass": True, "detail": {"bound": 1.0}}]}
    text = json.dumps(report)
    ref = oracle.reference_checks(text)
    assert oracle.verify_failures(text, 0, ref) == 0
    report["checks"][0]["pass"] = False
    report["checks"][1]["detail"]["bound"] = 2.0
    assert oracle.verify_failures(json.dumps(report), 1, ref) == 2
    assert oracle.verify_failures("Traceback", 2, ref) == 2


def test_verify_pass_is_scaled_to_the_fastest_calibration():
    wl = run.VerifyWorkload(geomfree, 1)
    wl.timed = [(100, 10), (300, 20), (200, 10)]
    wl.fastest_calibration = 5
    assert wl.latencies() == [75.0]
    assert wl.raw_median_ns() == 200


def test_tracer_reads_a_missing_boundary_as_absent():
    original = series_kernel.dd_add
    with Tracer().install(["series_kernel.dd_add", "series_kernel.no_such_name",
                           "no_such_module.anything"]) as tracer:
        assert series_kernel.dd_add is not original
        geomfree.sin_eval(3.0, 1e-15)
    assert series_kernel.dd_add is original
    assert tracer.absent == ["series_kernel.no_such_name", "no_such_module.anything"]
    names = tracer.span_names()
    assert {names[i] for i in tracer.name} == {"series_kernel.dd_add"}
    assert all(e >= s for s, e in zip(tracer.start, tracer.end))
