"""Command-line surface: eval, constants, verify, integrate, bench.

It holds no mathematics: each verify check lives in the module it checks.
Exit codes: 0 success / all checks pass, 1 verification failure,
2 usage or domain error.  JSON (--format json) is the machine interface;
schema_version "1" is documented in report.py and the README.
"""

import argparse
import contextlib
import os
import re
import sys

from . import analysis, bench, constants, exact_series, identities, report, series_kernel
from .errors import GeomfreeError


class _UsageError(GeomfreeError):
    """A bad argument value, printed by main as its one `error:` line (exit 2)."""


def _color_enabled():
    return sys.stdout.isatty() and not os.environ.get("GEOMFREE_NO_COLOR")


def _mark(passed):
    word = "PASS" if passed else "FAIL"
    if _color_enabled():
        code = "32" if passed else "31"
        return f"\x1b[{code}m{word}\x1b[0m"
    return word


def _emit(args, payload, lines):
    """Print payload as JSON under --format json, and the text lines otherwise."""
    if args.format == "json":
        print(report.report_to_json(payload))
    else:
        print(*lines, sep="\n")


# --- eval ---------------------------------------------------------------

def cmd_eval(args):
    fns = {
        "sin": series_kernel.sin_eval,
        "cos": series_kernel.cos_eval,
        "arcsin": analysis.arcsin_newton,
    }
    cv = fns[args.function](args.x, args.tol)
    _emit(args, {
        "function": args.function,
        "x": args.x,
        "value": cv.value,
        "abs_error_bound": cv.abs_error_bound,
    }, [f"{cv.value:.17g} ± {cv.abs_error_bound:.1e}"])
    return 0


# --- constants ----------------------------------------------------------

def cmd_constants(args):
    if not (1 <= args.digits <= 15):
        raise _UsageError("--digits must be between 1 and 15")
    tbl = constants.shared_table()
    d = args.digits
    _emit(args, {
        "q": tbl.q,
        "pi": tbl.pi,
        "bracket_radius": tbl.certified_bound,
        "refined_radius": tbl.refined_radius,
        "bisection_iterations": tbl.bisection_iterations,
        "q_multiples": [list(row) for row in tbl.q_multiples],
    }, [
        f"Q  = {tbl.q:.{d}f}",
        f"pi = {tbl.pi:.{d}f}",
        f"certified bracket radius = {tbl.certified_bound:.3g}"
        f" ({tbl.bisection_iterations} bisection steps)",
        f"refined radius of q_exact = {tbl.refined_radius:.3g}",
        "k   sin kQ   cos kQ",
        *(f"{k}   {s:6d}   {c:6d}" for k, s, c in tbl.q_multiples),
    ])
    return 0


# --- verify -------------------------------------------------------------

def exact_checks(degree):
    split_n = max(0, min(20, (degree - 1) // 2))
    cos2, sin_positive = constants._cos2_certificate(), constants._sin_positive_check()
    return [
        exact_series.verify_pythagorean(degree),
        exact_series.verify_sine_sum(max(degree, 1)),
        exact_series.verify_sine_sum_split(split_n),
        cos2,
        sin_positive,
        exact_series._coefficient_recursion_check(),
        constants._q_multiples_check(),
        constants._period_minimality_check(sin_positive, cos2),
    ]


def numeric_checks(samples, seed):
    checks = []
    for name in identities.registered_identities():
        results = identities.check_identity(
            name, identities.default_samples(name, samples, seed))
        worst = identities.worst_of(results)
        checks.append(report._numeric_check(f"identity_{name}", worst.passed, worst.discrepancy,
                                            worst.combined_bound, len(results),
                                            worst_sample=worst.sample_points))
    per = identities.check_periodicity(samples)
    checks.append(report._numeric_check("periodicity_4q", per.passed, per.discrepancy,
                                        per.combined_bound, samples))
    checks.append(identities._special_angle_check())
    checks.append(identities._sin_q_check())
    return checks


_SUITES = {  # name -> the suite's checks for the parsed arguments, in report order
    "exact": lambda args: exact_checks(args.degree),
    "numeric": lambda args: numeric_checks(args.samples, args.seed),
}


def cmd_verify(args):
    if not 0 <= args.degree <= 100:
        raise _UsageError("--degree must be between 0 and 100")
    if not 1 <= args.samples <= 1_000_000:
        raise _UsageError("--samples must be between 1 and 1e6")
    # open --out before the suites run, so a bad path costs no work
    try:
        out = open(args.out, "w", encoding="utf-8") if args.out else contextlib.nullcontext()
    except OSError as exc:
        raise _UsageError(f"cannot write --out {args.out}: {exc.strerror}") from None
    with out as fh:
        checks = [c for name in _SUITES if args.suite in (name, "all") for c in _SUITES[name](args)]
        rep = report.build_report(checks)
        report.validate_report(rep)
        if fh:
            fh.write(report.report_to_json(rep))
            fh.write("\n")
    s = rep["summary"]
    _emit(args, rep, [*(f"{_mark(c.passed)}  {c.name}" for c in checks),
                      f"{s['passed']}/{s['total']} checks passed"])
    return 0 if s["failed"] == 0 else 1


# --- integrate ----------------------------------------------------------

_TARGETS = {  # target -> (argument count, usage message, function of (*args, tol))
    "quarter-circle": (0, "quarter-circle takes no positional arguments",
                       analysis.quarter_circle_area),
    "arcsin": (1, "integrate arcsin needs exactly one argument X", analysis.arcsin_quadrature),
    "arclength": (2, "integrate arclength needs two arguments A B", analysis.arc_length),
}


def cmd_integrate(args):
    count, usage, fn = _TARGETS[args.target]
    if len(args.args) != count:
        raise _UsageError(usage)
    res = fn(*args.args, args.tol)
    _emit(args, {
        "target": args.target,
        "args": args.args,
        "value": res.value,
        "est_error": res.est_error,
        "evaluations": res.evaluations,
    }, [f"{res.value:.17g}  (est err {res.est_error:.1e}, {res.evaluations} evals)"])
    return 0


# --- bench --------------------------------------------------------------

def cmd_bench(args):
    functions = tuple(f.strip() for f in args.functions.split(",") if f.strip())
    try:
        records = bench.run_bench(args.n, args.interval, args.seed, functions)
    except ValueError as exc:
        raise _UsageError(exc) from None
    _emit(args, [r._asdict() for r in records], [
        f"{r.function:6s} on [{r.interval[0]:.6g}, {r.interval[1]:.6g}] "
        f"n={r.n}  max|err|={r.max_abs_error_vs_platform:.2e}  "
        f"self {r.ns_per_eval_self:.0f} ns/eval, "
        f"platform {r.ns_per_eval_platform:.0f} ns/eval" for r in records])
    return 0


# --- parser -------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads a negative number in exponent form,
    such as -1e-5, as a value.

    argparse's own negative-number pattern has no exponent, so it takes
    -1e-5 for an option.  No option of this CLI looks like a number.
    Its usage errors are one `error:` line, as main prints every other.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


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
    pv.add_argument("--suite", choices=[*_SUITES, "all"], default="all")
    pv.add_argument("--degree", type=int, default=41)
    pv.add_argument("--samples", type=int, default=1000)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--out", type=str, default=None)
    pv.add_argument("--format", choices=["text", "json"], default="text")
    pv.set_defaults(func=cmd_verify)

    pi = sub.add_parser("integrate", help="circle integrals and arc length")
    pi.add_argument("target", choices=list(_TARGETS))
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
