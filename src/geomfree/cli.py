"""Command-line surface: eval, constants, verify, integrate, bench.

Exit codes: 0 success / all checks pass, 1 verification failure,
2 usage or domain error.  JSON (--format json) is the machine interface;
schema_version "1" is documented in report.py and the README.
"""

import argparse
import contextlib
import math
import operator
import os
import re
import sys
from fractions import Fraction
from itertools import accumulate

from . import analysis, bench, constants, exact_series, identities, report, series_kernel
from .errors import GeomfreeError


def _color_enabled():
    return sys.stdout.isatty() and not os.environ.get("GEOMFREE_NO_COLOR")


def _mark(passed):
    word = "PASS" if passed else "FAIL"
    if _color_enabled():
        code = "32" if passed else "31"
        return f"\x1b[{code}m{word}\x1b[0m"
    return word


# --- eval ---------------------------------------------------------------

def cmd_eval(args):
    fns = {
        "sin": series_kernel.sin_eval,
        "cos": series_kernel.cos_eval,
        "arcsin": analysis.arcsin_newton,
    }
    cv = fns[args.function](args.x, args.tol)
    if args.format == "json":
        print(report.report_to_json({
            "function": args.function,
            "x": args.x,
            "value": cv.value,
            "abs_error_bound": cv.abs_error_bound,
        }))
    else:
        print(f"{cv.value:.17g} ± {cv.abs_error_bound:.1e}")
    return 0


# --- constants ----------------------------------------------------------

def cmd_constants(args):
    if not (1 <= args.digits <= 15):
        print("error: --digits must be between 1 and 15", file=sys.stderr)
        return 2
    tbl = constants.shared_table()
    if args.format == "json":
        print(report.report_to_json({
            "q": tbl.q,
            "pi": tbl.pi,
            "bracket_radius": tbl.certified_bound,
            "refined_radius": tbl.refined_radius,
            "bisection_iterations": tbl.bisection_iterations,
            "q_multiples": [list(row) for row in tbl.q_multiples],
        }))
        return 0
    d = args.digits
    print(f"Q  = {tbl.q:.{d}f}")
    print(f"pi = {tbl.pi:.{d}f}")
    print(f"certified bracket radius = {tbl.certified_bound:.3g}"
          f" ({tbl.bisection_iterations} bisection steps)")
    print(f"refined radius of q_exact = {tbl.refined_radius:.3g}")
    print("k   sin kQ   cos kQ")
    for k, s, c in tbl.q_multiples:
        print(f"{k}   {s:6d}   {c:6d}")
    return 0


# --- verify -------------------------------------------------------------

def _cos2_certificate():
    """Exact certification that cos 2 <= -131/315 from a 4-term partial sum."""
    partial, bound = series_kernel.cos_eval_exact(Fraction(2), 4)
    ok = (partial == Fraction(-19, 45)
          and bound == Fraction(2, 315)
          and partial + bound <= Fraction(-131, 315))
    return report.CheckResult(
        name="cos2_certified_negative",
        kind="exact",
        passed=ok,
        detail={"partial_sum": str(partial), "bound": str(bound),
                "certified_upper": str(partial + bound)},
        samples=1,
    )


def _sin_lower_bound_holds(x_max):
    """Whether sin x >= x - x^3/6 > 0 for every 0 < x <= x_max, decided on
    the integers of x_max = p/q.

    In pairs, sin x = (x - x^3/3!) + the sum over k >= 1 of
    x^(4k+1)/(4k+1)! (1 - x^2/((4k+2)(4k+3))).  The first pair is positive
    when x^2 < 6; each later pair is non-negative when x^2 <= (4k+2)(4k+3),
    a limit that grows with k from 42 at k = 1.  Both conditions, met at
    x_max, hold on all of (0, x_max].
    """
    p2, q2 = x_max.numerator ** 2, x_max.denominator ** 2
    return p2 < 6 * q2 and p2 <= 42 * q2


def _sin_positive_check():
    """sin > 0 on (0, 2], so cos decreases strictly on [0, 2]: with cos 0 = 1
    and cos 2 < 0 (_cos2_certificate), the zero that find_q brackets is the
    only one in (0, 2), the least positive zero Q."""
    x_max = Fraction(2)
    return report.CheckResult(
        name="sin_positive_on_0_2",
        kind="exact",
        passed=_sin_lower_bound_holds(x_max),
        detail={"x_max": str(x_max), "x_max_squared": str(x_max ** 2),
                "first_pair_limit": "6", "later_pair_limit": "42"},
        samples=1,
    )


def _period_minimality_check(sin_positive, cos2):
    """4Q is the least period of sin and cos, decided exactly.

    sin > 0 on (0, Q] (`sin_positive`, the _sin_positive_check result, with
    Q < 2 by `cos2`, the _cos2_certificate result).  The table's sin 2Q = 0
    and cos 2Q = -1 give sin(2Q - x) = sin x and sin(x + 2Q) = -sin x, so
    on (0, 4Q) sin vanishes only at 2Q, where cos 2Q = -1.  A period R has
    sin R = sin 0 = 0 and cos R = cos 0 = 1, so none lies in (0, 4Q);
    sin 4Q = 0 and cos 4Q = 1 make 4Q one.  No float is evaluated.
    """
    rows = {k: (s, c) for k, s, c in constants.q_multiples_table()}
    premises = {
        sin_positive.name: sin_positive.passed,
        cos2.name: cos2.passed,
        "q_multiples": rows[2] == (0, -1) and rows[4] == (0, 1),
    }
    failed = [name for name, held in premises.items() if not held]
    return report.CheckResult(
        name="period_minimality",
        kind="exact",
        passed=not failed,
        detail={"failed": ", ".join(failed)} if failed else {"least_period": "4Q"},
        samples=1,
    )


def _coefficient_recursion_check():
    """Recursion-generated coefficients match the series coefficients up to degree 200."""
    coeffs = series_kernel.ode_coefficients(201)
    series = exact_series.truncated_sin(200)
    num, den = series.num, series.den  # coefficient n is num[n] / (den n!)
    facts = accumulate(range(1, 201), operator.mul, initial=1)  # n!, as a running product
    ok = all(c.numerator * den * f == num.get((n,), 0) * c.denominator
             for n, (c, f) in enumerate(zip(coeffs, facts)))
    return report.CheckResult(
        name="coefficient_recursion_n_le_200",
        kind="exact",
        passed=ok,
        detail={"residual": "0"} if ok else {"residual": "mismatch"},
        samples=201,
    )


def _special_angle_check():
    """Float table values agree with the exact radicals to <= 2 ulp and
    satisfy sin^2 + cos^2 = 1 to the same precision."""
    table = identities.special_angles()
    refs = {
        "0": (0.0, 1.0),
        "pi/6": (0.5, math.sqrt(0.75)),
        "pi/4": (math.sqrt(0.5),) * 2,
        "pi/3": (math.sqrt(0.75), 0.5),
        "pi/2": (1.0, 0.0),
    }
    worst = 0.0
    for e in table:
        rs, rc = refs[e.label]
        worst = max(worst, abs(e.sin_value - rs), abs(e.cos_value - rc),
                    abs(e.sin_value ** 2 + e.cos_value ** 2 - 1.0) / 2.0)
    bound = 4.0 * series_kernel._U  # 2 ulp(1)
    ok = worst <= bound
    return report.CheckResult(
        name="special_angles_table",
        kind="numeric",
        passed=ok,
        detail={"max_discrepancy": worst, "bound": bound},
        samples=len(table),
    )


def _q_multiples_check():
    expected = ((0, 0, 1), (1, 1, 0), (2, 0, -1), (3, -1, 0), (4, 0, 1))
    got = constants.q_multiples_table()
    return report.CheckResult(
        name="q_multiples_table",
        kind="exact",
        passed=got == expected,
        detail={"residual": "0"} if got == expected else {"got": str(got)},
        samples=5,
    )


def _sin_q_check():
    tbl = constants.shared_table()
    cv = series_kernel.sin_eval(tbl.q, 1e-15)
    bound = cv.abs_error_bound + tbl.q_float_err
    disc = abs(cv.value - 1.0)
    return report.CheckResult(
        name="sin_q_equals_one",
        kind="numeric",
        passed=disc <= bound,
        detail={"max_discrepancy": disc, "bound": bound},
        samples=1,
    )


def exact_checks(degree):
    split_n = max(0, min(20, (degree - 1) // 2))
    cos2, sin_positive = _cos2_certificate(), _sin_positive_check()
    return [
        exact_series.verify_pythagorean(degree),
        exact_series.verify_sine_sum(max(degree, 1)),
        exact_series.verify_sine_sum_split(split_n),
        cos2,
        sin_positive,
        _coefficient_recursion_check(),
        _q_multiples_check(),
        _period_minimality_check(sin_positive, cos2),
    ]


def _numeric_result(name, chk, samples, **detail):
    """The CheckResult of an IdentityCheck: its verdict, `detail` and its bound."""
    return report.CheckResult(name=name, kind="numeric", passed=chk.passed,
                              detail={**detail, "bound": chk.combined_bound}, samples=samples)


def numeric_checks(samples, seed):
    checks = []
    for name in identities.registered_identities():
        results = identities.check_identity(
            name, identities.default_samples(name, samples, seed))
        worst = identities.worst_of(results)
        checks.append(_numeric_result(f"identity_{name}", worst, len(results),
                                      max_discrepancy=worst.discrepancy,
                                      worst_sample=worst.sample_points))
    per = identities.check_periodicity(samples)
    checks.append(_numeric_result("periodicity_4q", per, samples,
                                  max_discrepancy=per.discrepancy))
    checks.append(_special_angle_check())
    checks.append(_sin_q_check())
    return checks


def cmd_verify(args):
    if not 0 <= args.degree <= 100:
        print("error: --degree must be between 0 and 100", file=sys.stderr)
        return 2
    if not 1 <= args.samples <= 1_000_000:
        print("error: --samples must be between 1 and 1e6", file=sys.stderr)
        return 2
    # open --out before the suites run, so a bad path costs no work
    try:
        out = open(args.out, "w", encoding="utf-8") if args.out else contextlib.nullcontext()
    except OSError as exc:
        print(f"error: cannot write --out {args.out}: {exc.strerror}", file=sys.stderr)
        return 2
    with out as fh:
        checks = []
        if args.suite in ("exact", "all"):
            checks.extend(exact_checks(args.degree))
        if args.suite in ("numeric", "all"):
            checks.extend(numeric_checks(args.samples, args.seed))
        rep = report.build_report(checks)
        report.validate_report(rep)
        if fh:
            fh.write(report.report_to_json(rep))
            fh.write("\n")
    if args.format == "json":
        print(report.report_to_json(rep))
    else:
        for c in checks:
            print(f"{_mark(c.passed)}  {c.name}")
        s = rep["summary"]
        print(f"{s['passed']}/{s['total']} checks passed")
    return 0 if rep["summary"]["failed"] == 0 else 1


# --- integrate ----------------------------------------------------------

def cmd_integrate(args):
    target = args.target
    vals = args.args
    if target == "quarter-circle":
        if vals:
            print("error: quarter-circle takes no positional arguments", file=sys.stderr)
            return 2
        res = analysis.quarter_circle_area(args.tol)
    elif target == "arcsin":
        if len(vals) != 1:
            print("error: integrate arcsin needs exactly one argument X", file=sys.stderr)
            return 2
        res = analysis.arcsin_quadrature(vals[0], args.tol)
    else:  # arclength
        if len(vals) != 2:
            print("error: integrate arclength needs two arguments A B", file=sys.stderr)
            return 2
        res = analysis.arc_length(vals[0], vals[1], args.tol)
    if args.format == "json":
        print(report.report_to_json({
            "target": target,
            "args": vals,
            "value": res.value,
            "est_error": res.est_error,
            "evaluations": res.evaluations,
        }))
    else:
        print(f"{res.value:.17g}  (est err {res.est_error:.1e}, {res.evaluations} evals)")
    return 0


# --- bench --------------------------------------------------------------

def cmd_bench(args):
    functions = tuple(f.strip() for f in args.functions.split(",") if f.strip())
    try:
        records = bench.run_bench(args.n, args.interval, args.seed, functions)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(report.report_to_json([r._asdict() for r in records]))
    else:
        for r in records:
            print(f"{r.function:6s} on [{r.interval[0]:.6g}, {r.interval[1]:.6g}] "
                  f"n={r.n}  max|err|={r.max_abs_error_vs_platform:.2e}  "
                  f"self {r.ns_per_eval_self:.0f} ns/eval, "
                  f"platform {r.ns_per_eval_platform:.0f} ns/eval")
    return 0


# --- parser -------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads a negative number in exponent form,
    such as -1e-5, as a value.

    argparse's own negative-number pattern has no exponent, so it takes
    -1e-5 for an option.  No option of this CLI looks like a number.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser():
    p = _Parser(
        prog="geomfree",
        description="Self-contained certified trigonometric kernel "
                    "(series-built sin/cos/pi/arcsin, no platform trig).",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate a function with a certified bound")
    pe.add_argument("function", choices=["sin", "cos", "arcsin"])
    pe.add_argument("x", type=float)
    pe.add_argument("--tol", type=float, default=1e-15)
    pe.add_argument("--format", choices=["text", "json"], default="text")
    pe.set_defaults(func=cmd_eval)

    pc = sub.add_parser("constants", help="print Q, pi, and the Q-multiples table")
    pc.add_argument("--digits", type=int, default=15)
    pc.add_argument("--format", choices=["text", "json"], default="text")
    pc.set_defaults(func=cmd_constants)

    pv = sub.add_parser("verify", help="run the identity/theorem check suites")
    pv.add_argument("--suite", choices=["exact", "numeric", "all"], default="all")
    pv.add_argument("--degree", type=int, default=41)
    pv.add_argument("--samples", type=int, default=1000)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--out", type=str, default=None)
    pv.add_argument("--format", choices=["text", "json"], default="text")
    pv.set_defaults(func=cmd_verify)

    pi = sub.add_parser("integrate", help="circle integrals and arc length")
    pi.add_argument("target", choices=["quarter-circle", "arcsin", "arclength"])
    pi.add_argument("args", type=float, nargs="*")
    pi.add_argument("--tol", type=float, default=1e-10)
    pi.add_argument("--format", choices=["text", "json"], default="text")
    pi.set_defaults(func=cmd_integrate)

    pb = sub.add_parser("bench", help="accuracy/speed vs the platform libm")
    pb.add_argument("--n", type=int, default=10000)
    pb.add_argument("--interval", type=float, nargs=2, default=None)
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--functions", type=str, default="sin,cos,arcsin")
    pb.add_argument("--format", choices=["text", "json"], default="text")
    pb.set_defaults(func=cmd_bench)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GeomfreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
