"""CLI contract tests: exit codes, JSON schema, determinism."""

import hashlib
import json
import time
import types
from fractions import Fraction

import pytest

from geomfree import bench, cli, constants, exact_series, identities, series_kernel
from geomfree.cli import main, numeric_checks
from geomfree.identities import registered_identities
from geomfree.report import report_to_json, validate_report

from oracles import PI_6, Q_REF


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestEval:
    def test_sin_zero(self, capsys):
        rc, out, _ = run_cli(capsys, "eval", "sin", "0")
        assert rc == 0
        assert out.startswith("0 ")

    def test_cos_two_tight(self, capsys):
        rc, out, _ = run_cli(capsys, "eval", "cos", "2", "--tol", "1e-12")
        assert rc == 0
        assert out.startswith("-0.416146836547")

    def test_arcsin_half(self, capsys):
        rc, out, _ = run_cli(capsys, "eval", "arcsin", "0.5", "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert abs(payload["value"] - PI_6) <= 1e-14
        assert payload["abs_error_bound"] < 1e-12

    def test_domain_error_exit_two(self, capsys):
        rc, _, err = run_cli(capsys, "eval", "sin", "1e9")
        assert rc == 2
        assert "error" in err

    def test_bad_tolerance_exit_two(self, capsys):
        rc, _, _ = run_cli(capsys, "eval", "sin", "1", "--tol", "-1")
        assert rc == 2

    def test_usage_error_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "tan", "1"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestConstants:
    def test_digits_15(self, capsys):
        rc, out, _ = run_cli(capsys, "constants", "--digits", "15")
        assert rc == 0
        assert "1.570796326794897" in out
        assert "3.141592653589793" in out

    def test_table_rows(self, capsys):
        rc, out, _ = run_cli(capsys, "constants")
        assert rc == 0
        assert "3       -1        0" in out.replace("  ", " ").replace(" ", " ") or "-1" in out

    def test_json_round_trip(self, capsys):
        rc, out, _ = run_cli(capsys, "constants", "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert abs(payload["q"] - Q_REF) <= 1e-13
        assert payload["pi"] == 2 * payload["q"]
        assert payload["q_multiples"][3] == [3, -1, 0]

    def test_bad_digits(self, capsys):
        rc, _, err = run_cli(capsys, "constants", "--digits", "40")
        assert rc == 2

    def test_certificate_shown(self, capsys):
        rc, out, _ = run_cli(capsys, "constants")
        assert rc == 0
        assert "45 bisection steps" in out
        assert "refined radius of q_exact = 1e-50" in out
        rc, out, _ = run_cli(capsys, "constants", "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert payload["bisection_iterations"] == 45
        assert payload["refined_radius"] == 1e-50


# sha256 of report_to_json of `verify --format json` at its defaults (degree
# 41, 1,000 samples, seed 0) with the timestamp removed.  Update it only in
# a change that alters checks on purpose, and say so in CHANGES.md; a change
# meant to keep every check must leave it alone.
VERIFY_DIGEST = "0fbb4d5ad90e1eea06ad1b49f0568a0f78fe033835d4a6115a6ad90d606dea8a"


class TestVerify:
    def test_verify_report_matches_the_recorded_digest(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        del payload["timestamp"]
        assert hashlib.sha256(report_to_json(payload).encode()).hexdigest() == VERIFY_DIGEST

    def test_exact_suite(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "--suite", "exact", "--degree", "41")
        assert rc == 0
        assert "FAIL" not in out

    def test_numeric_suite(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "--suite", "numeric",
                             "--samples", "200", "--seed", "7")
        assert rc == 0

    def test_all_suite_summary_counts(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "--samples", "120", "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        validate_report(payload)
        assert payload["summary"]["total"] == len(payload["checks"])
        assert payload["summary"]["failed"] == 0

    def test_report_written_and_valid(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        rc, _, _ = run_cli(capsys, "verify", "--samples", "120", "--out", str(out_path))
        assert rc == 0
        payload = json.loads(out_path.read_text())
        validate_report(payload)

    def test_deterministic_under_seed(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(capsys, "verify", "--samples", "150", "--seed", "3", "--out", str(p1))
        run_cli(capsys, "verify", "--samples", "150", "--seed", "3", "--out", str(p2))
        a = json.loads(p1.read_text())
        b = json.loads(p2.read_text())
        assert a["checks"] == b["checks"]  # timestamp may differ; checks may not
        a["timestamp"] = b["timestamp"] = None
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_degree_cap(self, capsys):
        rc, _, err = run_cli(capsys, "verify", "--degree", "101")
        assert rc == 2

    def test_samples_cap(self, capsys):
        rc, _, _ = run_cli(capsys, "verify", "--samples", "2000000")
        assert rc == 2


class TestCoefficientRecursionCheck:
    def test_recursion_matches_the_series(self):
        result = exact_series._coefficient_recursion_check()
        assert (result.passed, result.detail, result.samples) == (True, {"residual": "0"}, 201)

    @pytest.mark.parametrize("n", [0, 3, 4, 200])
    def test_one_wrong_coefficient_is_a_mismatch(self, monkeypatch, n):
        real = series_kernel.ode_coefficients

        def wrong(count):
            c = list(real(count))
            c[n] += Fraction(1, 10 ** 70)
            return c

        monkeypatch.setattr(series_kernel, "ode_coefficients", wrong)
        result = exact_series._coefficient_recursion_check()
        assert (result.passed, result.detail, result.samples) == (False, {"residual": "mismatch"}, 201)

class TestIntegrate:
    def test_quarter_circle(self, capsys):
        rc, out, _ = run_cli(capsys, "integrate", "quarter-circle", "--tol", "1e-10")
        assert rc == 0
        assert out.startswith("0.78539816339744")

    def test_arcsin_one(self, capsys):
        rc, out, _ = run_cli(capsys, "integrate", "arcsin", "1")
        assert rc == 0
        assert out.startswith("1.57079632679")

    def test_arclength_negative_args(self, capsys):
        rc, out, _ = run_cli(capsys, "integrate", "arclength", "-1", "1")
        assert rc == 0
        assert out.startswith("3.14159265358")

    def test_domain_error(self, capsys):
        rc, _, err = run_cli(capsys, "integrate", "arcsin", "2")
        assert rc == 2

    def test_missing_args(self, capsys):
        rc, _, _ = run_cli(capsys, "integrate", "arclength", "0.5")
        assert rc == 2

    @pytest.mark.parametrize("argv", [
        ["quarter-circle", "0.5"],
        ["arcsin"],
        ["arcsin", "0.1", "0.2"],
    ])
    def test_wrong_argument_count_exits_two_with_one_line(self, capsys, argv):
        rc, out, err = run_cli(capsys, "integrate", *argv)
        assert rc == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_arcsin_json_keys(self, capsys):
        rc, out, _ = run_cli(capsys, "integrate", "arcsin", "0.5", "--format", "json")
        assert rc == 0
        assert set(json.loads(out)) == {"target", "args", "value", "est_error", "evaluations"}


class TestBench:
    def test_small_run_json(self, capsys):
        rc, out, _ = run_cli(capsys, "bench", "--n", "200", "--format", "json",
                             "--functions", "sin,cos")
        assert rc == 0
        records = json.loads(out)
        assert [r["function"] for r in records] == ["sin", "cos"]
        for r in records:
            assert r["n"] == 200
            assert r["max_abs_error_vs_platform"] <= 1e-13
            assert r["ns_per_eval_self"] > 0
            assert r["ns_per_eval_platform"] > 0

    def test_cos_error_symmetric_under_negation(self, capsys):
        rc, out, _ = run_cli(capsys, "bench", "--n", "150", "--seed", "5",
                             "--interval", "-3", "3", "--functions", "cos",
                             "--format", "json")
        assert rc == 0
        (rec,) = json.loads(out)
        import math
        from geomfree.series_kernel import cos_eval
        import random
        rng = random.Random("5:cos")
        xs = [rng.uniform(-3, 3) for _ in range(150)]
        for x in xs[:40]:
            a = abs(cos_eval(x, 1e-15).value - math.cos(x))
            b = abs(cos_eval(-x, 1e-15).value - math.cos(-x))
            assert a == b

    def test_n_too_small(self, capsys):
        rc, _, _ = run_cli(capsys, "bench", "--n", "50")
        assert rc == 2

    def test_n_past_1e6_is_the_one_line_message(self, capsys):
        # rejected before any sample is drawn, as verify --samples is
        rc, out, err = run_cli(capsys, "bench", "--n", "1000001")
        assert rc == 2
        assert out == ""
        assert err == "error: n must be between 100 and 1e6\n"

    def test_bad_interval(self, capsys):
        rc, _, _ = run_cli(capsys, "bench", "--n", "200", "--interval", "2", "1")
        assert rc == 2


    def test_an_arcsin_interval_outside_its_domain_falls_back_to_it(self):
        (rec,) = bench.run_bench(100, (2.0, 3.0), functions=("arcsin",))
        assert rec.interval == (-1.0, 1.0)
        assert rec.max_abs_error_vs_platform <= 1e-13


class TestOneErrorLine:
    """Every bad input prints one `error:` line on stderr, nothing on stdout, and exits 2."""

    @pytest.mark.parametrize("argv, fragment", [
        (["eval", "tan", "1"], "argument function: invalid choice: 'tan'"),
        (["eval", "sin"], "the following arguments are required: x"),
        (["verify", "--degree", "abc"], "argument --degree: invalid int value: 'abc'"),
    ], ids=["eval tan 1", "eval sin", "verify --degree abc"])
    def test_argparse_errors(self, capsys, argv, fragment):
        # argparse's wording varies across Python versions; the form does not
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.startswith(f"error: {fragment}") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        (["constants", "--digits", "0"], "--digits must be between 1 and 15"),
        (["verify", "--degree", "101"], "--degree must be between 0 and 100"),
        (["verify", "--samples", "0"], "--samples must be between 1 and 1e6"),
        (["integrate", "quarter-circle", "1"], "quarter-circle takes no positional arguments"),
        (["integrate", "arcsin"], "integrate arcsin needs exactly one argument X"),
        (["integrate", "arclength", "0.5"], "integrate arclength needs two arguments A B"),
        (["bench", "--n", "50"], "n must be between 100 and 1e6"),
    ])
    def test_argument_errors(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_an_unwritable_out(self, capsys, tmp_path):
        path = tmp_path / "missing" / "report.json"
        assert run_cli(capsys, "verify", "--out", str(path)) == (
            2, "", f"error: cannot write --out {path}: No such file or directory\n")


class TestNegativeExponentArguments:
    """A negative number in exponent form is a value, not an option."""

    @pytest.mark.parametrize("argv", [
        ("eval", "sin", "-1e-5"),
        ("eval", "cos", "-2.5e-3"),
        ("bench", "--n", "100", "--interval", "-1e-3", "1e-3", "--functions", "sin"),
    ])
    def test_parses_as_a_value(self, capsys, argv):
        rc, _, _ = run_cli(capsys, *argv)
        assert rc == 0

    def test_interval_past_the_domain_is_the_one_line_message(self, capsys):
        rc, out, err = run_cli(capsys, "bench", "--interval", "-1e9", "0")
        assert rc == 2
        assert out == ""
        assert err == ("error: interval [-1000000000.0, 0.0] leaves sin/cos's domain "
                       "|x| <= 1e+08\n")


class TestBenchTiming:
    def test_shared_table_is_built_before_the_first_timed_call(self, monkeypatch):
        # a cold start: no table and no bound reduction; find_q must run
        # outside the timed loop, before its first clock read
        events = []
        real_find_q = constants.find_q

        def find_q(tol):
            events.append("find_q")
            return real_find_q(tol)

        def perf_counter_ns():
            events.append("clock")
            return time.perf_counter_ns()

        monkeypatch.setattr(constants, "find_q", find_q)
        monkeypatch.setattr(series_kernel, "_reduction", None)
        monkeypatch.setattr(bench, "time", types.SimpleNamespace(perf_counter_ns=perf_counter_ns))
        constants.shared_table.cache_clear()
        try:
            bench.run_bench(100, (0.0, 1e8), functions=("sin", "cos"))
        finally:
            constants.shared_table.cache_clear()
        assert events.count("find_q") == 1
        assert events.index("find_q") < events.index("clock")


    def test_warm_up_reaches_the_table_when_the_first_sample_is_tiny(self, monkeypatch):
        # seed 0 draws sin's first x = 5.8e-9, inside the kernel's tiny row, which
        # never reads the reduction; the warm-up must still build the table untimed
        events = _cold_bench_events(monkeypatch, (0.0, 1e-8), seed=0, functions=("sin", "cos"))
        assert events.count("find_q") == 1
        assert events.index("find_q") < events.index("clock")


def _cold_bench_events(monkeypatch, interval, **kwargs):
    """The order of find_q calls and clock reads in run_bench from a cold start:
    no shared table and no bound reduction."""
    events = []
    real_find_q = constants.find_q

    def find_q(tol):
        events.append("find_q")
        return real_find_q(tol)

    def perf_counter_ns():
        events.append("clock")
        return time.perf_counter_ns()

    monkeypatch.setattr(constants, "find_q", find_q)
    monkeypatch.setattr(series_kernel, "_reduction", None)
    monkeypatch.setattr(bench, "time", types.SimpleNamespace(perf_counter_ns=perf_counter_ns))
    constants.shared_table.cache_clear()
    try:
        bench.run_bench(100, interval, **kwargs)
    finally:
        constants.shared_table.cache_clear()
    return events

class TestNumericCheckDetail:
    def test_detail_keys_of_each_check(self):
        checks = {c.name: c for c in numeric_checks(100, 0)}
        keys = {name: set(c.detail) for name, c in checks.items()}
        identity = {"max_discrepancy", "bound", "worst_sample"}
        assert keys == {
            **{f"identity_{name}": identity for name in registered_identities()},
            "periodicity_4q": {"max_discrepancy", "bound"},
            "special_angles_table": {"max_discrepancy", "bound"},
            "sin_q_equals_one": {"max_discrepancy", "bound"},
        }
        assert all(c.kind == "numeric" and c.passed for c in checks.values())
        assert checks["periodicity_4q"].samples == 100
        assert checks["identity_cosine_sum"].samples == 100


class TestLeastPeriodProof:
    def test_the_lemma_check_passes(self):
        chk = constants._sin_positive_check()
        assert chk.name == "sin_positive_on_0_2" and chk.kind == "exact" and chk.passed
        assert chk.name in {c.name for c in cli.exact_checks(1)}

    def test_the_lemma_decision_fails_past_sqrt_6(self):
        # x - x^3/6 > 0 needs x^2 < 6: 2.4^2 = 5.76 passes, 2.45^2 = 6.0025
        # and (5/2)^2 = 6.25 do not
        assert constants._sin_lower_bound_holds(Fraction(2))
        assert constants._sin_lower_bound_holds(Fraction(12, 5))
        assert not constants._sin_lower_bound_holds(Fraction(49, 20))
        assert not constants._sin_lower_bound_holds(Fraction(5, 2))

    def test_a_verify_pass_makes_at_most_3201_kernel_calls(self, capsys, monkeypatch):
        constants.shared_table()
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(identities, "sin_eval", counted(identities.sin_eval))
        monkeypatch.setattr(identities, "cos_eval", counted(identities.cos_eval))
        rc, _, _ = run_cli(capsys, "verify", "--suite", "all", "--degree", "100",
                           "--samples", "100", "--seed", "1", "--format", "json")
        assert rc == 0
        assert 0 < len(calls) <= 3201

    def test_period_minimality_is_the_last_exact_check(self, capsys):
        checks = cli.exact_checks(1)
        proof = checks[-1]
        assert proof.name == "period_minimality" and proof.kind == "exact" and proof.passed
        assert proof.detail == {"least_period": "4Q"}
        assert all(c.name != "period_minimality" for c in numeric_checks(1, 0))
        rc, out, _ = run_cli(capsys, "verify", "--suite", "exact", "--degree", "41")
        assert rc == 0 and out.splitlines()[-2:] == ["PASS  period_minimality",
                                                     "8/8 checks passed"]
        rc, out, _ = run_cli(capsys, "verify", "--samples", "100", "--format", "json")
        names = [c["name"] for c in json.loads(out)["checks"]]
        assert rc == 0 and len(names) == 20 and names[7] == "period_minimality"

    def test_period_minimality_fails_if_cos_2q_were_one(self, monkeypatch):
        rows = ((0, 0, 1), (1, 1, 0), (2, 0, 1), (3, -1, 0), (4, 0, 1))
        monkeypatch.setattr(constants, "q_multiples_table", lambda: rows)
        chk = constants._period_minimality_check(constants._sin_positive_check(),
                                                 constants._cos2_certificate())
        assert chk.kind == "exact" and not chk.passed
        assert chk.detail == {"failed": "q_multiples"}

    def test_period_minimality_fails_with_a_failed_premise(self):
        sin_positive = constants._sin_positive_check()._replace(passed=False)
        chk = constants._period_minimality_check(sin_positive, constants._cos2_certificate())
        assert not chk.passed and chk.detail == {"failed": "sin_positive_on_0_2"}
