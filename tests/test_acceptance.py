"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.
"""

import ast
import json
import pathlib
import random
import time
from fractions import Fraction

import geomfree
from geomfree.analysis import (
    arc_length,
    arcsin_derivative_check,
    arcsin_quadrature,
    ode_oracle,
    quarter_circle_area,
)
from geomfree.bench import run_bench
from geomfree.cli import exact_checks, main
from geomfree.constants import find_q, q_multiples_table
from geomfree.identities import (
    check_identity,
    check_periodicity,
    default_samples,
    registered_identities,
    solve_sine_cubic,
    special_angles,
)
from geomfree.series_kernel import cos_eval_exact, sin_eval

from oracles import (
    PI_4,
    PI_REF,
    Q_REF,
    SQRT2_OVER_2,
    SQRT3_OVER_2,
    bisect_q_oracle,
    cos_sign_oracle,
    ulps_apart,
)


def _report(number, ok, label):
    print(f"\nACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}  {label}")
    assert ok, f"criterion {number} failed: {label}"


def test_criterion_01_exact_pythagorean(tmp_path, capsys):
    out = tmp_path / "exact.json"
    t0 = time.monotonic()
    rc = main(["verify", "--suite", "exact", "--degree", "50", "--out", str(out)])
    elapsed = time.monotonic() - t0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    pyth = next(c for c in payload["checks"] if c["name"].startswith("pythagorean"))
    ok = rc == 0 and pyth["pass"] and pyth["detail"]["residual"] == "0" and elapsed < 10.0
    with capsys.disabled():
        _report(1, ok, f"sin^2+cos^2=1 exact at degree 50 (residual 0, {elapsed:.2f}s)")


def test_criterion_02_exact_sine_sum(capsys):
    t0 = time.monotonic()
    sum_check = geomfree.verify_sine_sum(41)
    split_check = geomfree.verify_sine_sum_split(20)
    elapsed = time.monotonic() - t0
    ok = (sum_check.passed and sum_check.detail["residual"] == "0"
          and split_check.passed and elapsed < 30.0)
    with capsys.disabled():
        _report(2, ok, f"sine addition exact at degree 41 + split n<=20 ({elapsed:.2f}s)")


def test_criterion_03_cos2_bound(capsys):
    partial, bound = cos_eval_exact(Fraction(2), 4)
    ok = (partial == Fraction(-19, 45)
          and bound == Fraction(2, 315)
          and partial + bound == Fraction(-131, 315))
    with capsys.disabled():
        _report(3, ok, "cos 2 <= -131/315 certified exactly from the 4-term sum")


def test_criterion_04_pi_derivation(capsys):
    tbl = find_q(1e-13)
    bracket_ok = (cos_sign_oracle(Fraction(tbl.q) - Fraction(tbl.certified_bound)) > 0
                  and cos_sign_oracle(Fraction(tbl.q) + Fraction(tbl.certified_bound)) < 0)
    oracle_q = float(bisect_q_oracle(Fraction(1, 10 ** 15)))
    ok = (abs(2.0 * tbl.q - 3.141592653589793) <= 5e-13
          and bracket_ok
          and abs(tbl.q - oracle_q) <= 1e-13)
    with capsys.disabled():
        _report(4, ok, f"pi = 2Q = {2 * tbl.q!r}, bracket sign-certified, oracle agrees")


def test_criterion_05_q_multiples(capsys):
    expected = ((0, 0, 1), (1, 1, 0), (2, 0, -1), (3, -1, 0), (4, 0, 1))
    ok = q_multiples_table() == expected
    with capsys.disabled():
        _report(5, ok, "sin/cos at 0..4Q equal (0,1),(1,0),(0,-1),(-1,0),(0,1) exactly")


def test_criterion_06_identity_suite(capsys):
    failures = []
    worst = 0.0
    for name in registered_identities():
        checks = check_identity(name, default_samples(name, 1000, seed=2024))
        assert len(checks) == 1000
        bad = [c for c in checks if not c.passed]
        if bad:
            failures.append(name)
        worst = max(worst, max(c.discrepancy for c in checks))
    ok = not failures
    with capsys.disabled():
        _report(6, ok, f"9 identities x 1000 seeded samples within bounds+4ulp "
                       f"(worst discrepancy {worst:.2e})")


def test_criterion_07_periodicity(capsys):
    per = check_periodicity(1000)
    mini = next(c for c in exact_checks(1) if c.name == "period_minimality")
    ok = per.passed and per.discrepancy <= 5e-15 and mini.kind == "exact" and mini.passed
    with capsys.disabled():
        _report(7, ok, f"sin(x+4Q)=sin x on 1000 points (max {per.discrepancy:.2e} "
                       f"<= 5e-15); 4Q the least period, exact from the lemma "
                       f"sin x >= x - x^3/6 > 0 on (0, 2]")


def test_criterion_08_special_angles(capsys):
    row = {e.label: e for e in special_angles()}
    ulps = [
        ulps_apart(row["pi/6"].sin_value, 0.5),
        ulps_apart(row["pi/6"].cos_value, SQRT3_OVER_2),
        ulps_apart(row["pi/4"].sin_value, SQRT2_OVER_2),
        ulps_apart(row["pi/4"].cos_value, SQRT2_OVER_2),
        ulps_apart(row["pi/3"].sin_value, SQRT3_OVER_2),
        ulps_apart(row["pi/3"].cos_value, 0.5),
    ]
    roots_ok = solve_sine_cubic() == [(Fraction(-1), 1), (Fraction(1, 2), 2)]
    ok = max(ulps) <= 2 and roots_ok
    with capsys.disabled():
        _report(8, ok, f"special-angle table within {max(ulps)} ulp; cubic roots "
                       "{1/2 double, -1 single} exact")


def test_criterion_09_integrals(capsys):
    qc = quarter_circle_area(1e-10)
    g_pos = arcsin_quadrature(1.0, 1e-10)
    g_neg = arcsin_quadrature(-1.0, 1e-10)
    g_half = arcsin_quadrature(SQRT2_OVER_2, 1e-10)
    ok = (abs(qc.value - PI_4) <= 1e-10
          and abs(g_pos.value - Q_REF) <= 1e-10
          and abs(g_neg.value + Q_REF) <= 1e-10
          and abs(g_pos.value - 2.0 * g_half.value) <= 2e-10)
    with capsys.disabled():
        _report(9, ok, "quarter circle = pi/4, g(+-1) = +-pi/2, g(1) = 2 g(sqrt2/2)")


def test_criterion_10_arcsin_derivative(capsys):
    grid = [-0.9 + 1.8 * i / 200 for i in range(201)]
    worst = arcsin_derivative_check(grid, 1e-5)
    ok = worst <= 1e-8
    with capsys.disabled():
        _report(10, ok, f"arcsin' matches 1/sqrt(1-x^2) on [-0.9,0.9] "
                        f"(max {worst:.2e} <= 1e-8)")


def test_criterion_11_arc_length(capsys):
    semi = arc_length(-1.0, 1.0, 1e-9)
    rng = random.Random(77)
    additive = True
    for _ in range(100):
        a, b, c = sorted(rng.uniform(-1.0, 1.0) for _ in range(3))
        whole = arc_length(a, c, 1e-9).value
        parts = arc_length(a, b, 1e-9).value + arc_length(b, c, 1e-9).value
        if abs(whole - parts) > 3e-9 + 1e-14:
            additive = False
    ok = abs(semi.value - PI_REF) <= 1e-9 and additive
    with capsys.disabled():
        _report(11, ok, f"arc length(-1,1) = pi (err {abs(semi.value - PI_REF):.2e}); "
                        "additive at 100 random triples")


def test_criterion_12_ode_converse(capsys):
    two_pi = 2.0 * geomfree.pi_value()
    tr = ode_oracle(two_pi, 1e-3)
    worst = 0.0
    for t, f, _g in tr.points:
        s = sin_eval(t, 1e-16)
        worst = max(worst, abs(f - s.value))
    ok = tr.energy_drift <= 1e-11 and worst <= 1e-10
    with capsys.disabled():
        _report(12, ok, f"RK4 over [0,2pi]: energy drift {tr.energy_drift:.2e} <= 1e-11, "
                        f"max|f - sin| {worst:.2e} <= 1e-10")


def test_criterion_13_platform_accuracy(capsys):
    pi = geomfree.pi_value()
    t0 = time.monotonic()
    records = run_bench(100000, (-pi, pi), seed=0, functions=("sin", "cos"))
    elapsed = time.monotonic() - t0
    worst = max(r.max_abs_error_vs_platform for r in records)
    ok = worst <= 1e-13 and elapsed < 60.0
    with capsys.disabled():
        _report(13, ok, f"max |self - platform| {worst:.2e} <= 1e-13 over 1e5 points "
                        f"per function; bench {elapsed:.1f}s < 60s")


def test_criterion_14_trig_free_audit(capsys):
    pkg_dir = pathlib.Path(geomfree.__file__).parent
    trig = {"sin", "cos", "tan", "asin", "acos", "atan", "atan2",
            "sinh", "cosh", "tanh", "asinh", "acosh", "atanh"}
    mods = {"math", "cmath", "numpy", "np", "mpmath", "scipy"}
    offenders = []
    for path in sorted(pkg_dir.glob("*.py")):
        if path.name == "bench.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in trig
                    and isinstance(node.value, ast.Name) and node.value.id in mods):
                offenders.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.ImportFrom) and node.module in mods:
                offenders.extend(f"{path.name}:{node.lineno}"
                                 for a in node.names if a.name in trig)
    ok = not offenders
    with capsys.disabled():
        _report(14, ok, "no module outside bench references platform trigonometry"
                        + (f" (offenders: {offenders})" if offenders else ""))
