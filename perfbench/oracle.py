"""Independent check of certified results against mpmath.

The library never imports mpmath; the benchmark uses it as a reference
that shares no code with the kernel. A result fails when the call raised
or when |value - truth| > abs_error_bound, with the difference taken at
PREC_BITS bits, far below any bound the kernel can report.
"""

import json
import math
from typing import NamedTuple

import mpmath

from perfbench.workloads import TIGHT_TOL

PREC_BITS = 300
_TRUTH = {"sin": mpmath.sin, "cos": mpmath.cos, "arcsin": mpmath.asin}


class Verdict(NamedTuple):
    ok: bool
    err_ulp: float    # |value - truth| in ulps of the true value
    bound_ulp: float  # abs_error_bound in ulps of the true value


def check(function, x, result):
    """Verdict on one certified result; `result` may be the exception raised."""
    if isinstance(result, Exception):
        return Verdict(False, math.nan, math.nan)
    with mpmath.workprec(PREC_BITS):
        truth = _TRUTH[function](mpmath.mpf(x))
        err = abs(mpmath.mpf(result.value) - truth)
        ok = err <= mpmath.mpf(result.abs_error_bound)
        ulp = mpmath.mpf(math.ulp(float(truth)))
        return Verdict(bool(ok), float(err / ulp), float(mpmath.mpf(result.abs_error_bound) / ulp))


def eval_accuracy(ops, results):
    """Verdicts for an eval workload plus the accuracy summary.

    bound_p50_ulp and err_max_ulp are taken over the calls at
    tol <= 1e-15, where the kernel is asked for full precision.
    """
    verdicts = [check(f, x, r) for (f, x, _), r in zip(ops, results)]
    tight = [v for v, (_, _, tol) in zip(verdicts, ops)
             if tol <= TIGHT_TOL and not math.isnan(v.err_ulp)]
    bounds = sorted(v.bound_ulp for v in tight)
    summary = {
        "fail_count": sum(1 for v in verdicts if not v.ok),
        "bound_p50_ulp": bounds[len(bounds) // 2] if bounds else math.nan,
        "err_max_ulp": max((v.err_ulp for v in tight), default=math.nan),
    }
    return verdicts, summary


def verify_failures(stdout, exit_code, reference_checks):
    """Checks of one verify pass that fail, counted against the reference.

    A check fails when it does not pass or when it is not byte-identical
    to the same check of the first pass with this seed. A pass that did
    not produce a report fails every reference check.
    """
    try:
        checks = json.loads(stdout)["checks"]
    except (ValueError, KeyError, TypeError):
        return len(reference_checks)
    if exit_code not in (0, 1) or len(checks) != len(reference_checks):
        return len(reference_checks)
    return sum(1 for c, ref in zip(checks, reference_checks)
               if not c["pass"] or _canonical(c) != ref)


def reference_checks(stdout):
    """Canonical text of each check of a verify pass."""
    return [_canonical(c) for c in json.loads(stdout)["checks"]]


def _canonical(check_entry):
    return json.dumps(check_entry, sort_keys=True)
