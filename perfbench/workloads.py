"""Seeded inputs for the benchmark workloads.

An eval workload is a list of operations `(function, x, tol)` with
function one of "sin", "cos", "arcsin". The same workload name and seed
always give the same list. Only these values reach the library; the
verify workload's only input is the seed it passes to `geomfree verify`.
"""

import math
import random
import sys
from fractions import Fraction

EVAL_WORKLOADS = ("eval-narrow", "eval-wide")
WORKLOADS = EVAL_WORKLOADS + ("verify",)
EVAL_OPS = 20000  # distinct inputs per eval workload; a timed pass runs them all

# pi to 80 digits, so float(k * _Q) is the double nearest k*Q for every k used
_PI = Fraction("3.1415926535897932384626433832795028841971693993751058209749445923078164062862090")
_Q = _PI / 2
_MAX_ARG = 1.0e8                      # the kernel's documented input limit
_K_MAX = int(_MAX_ARG / float(_Q)) - 1  # keeps every near-zero point below _MAX_ARG
_LOG2_MIN = -1074.0                   # smallest positive subnormal
_LOG2_MAX = math.log2(_MAX_ARG)
_SQRT_HALF = 0.7071067811865476       # arcsin_newton reflects above this
TIGHT_TOL = 1e-15


def verify_argv(seed):
    """The CLI arguments of one verify pass."""
    return ["verify", "--suite", "all", "--degree", "100", "--samples", "100",
            "--seed", str(seed), "--format", "json"]


def eval_ops(workload, seed, n=EVAL_OPS):
    """The seeded operation list of an eval workload."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "eval-narrow":
        return [("sin" if i % 2 == 0 else "cos", rng.uniform(-math.pi, math.pi), TIGHT_TOL)
                for i in range(n)]
    if workload == "eval-wide":
        ops = []
        while len(ops) < n:
            # the mix is exact in every block of 20 calls, so seeds differ
            # only in the values drawn, not in how much of each kind they hold
            kinds = ["arcsin"] + ["near_zero"] * 5 + ["log_uniform"] * 14
            tight = [True] * 10 + [False] * 10
            rng.shuffle(kinds)
            rng.shuffle(tight)
            ops.extend(_wide_op(rng, k, t) for k, t in zip(kinds, tight))
        return ops[:n]
    raise ValueError(f"not an eval workload: {workload!r}")


def _wide_op(rng, kind, tight):
    tol = TIGHT_TOL if tight else 10.0 ** rng.uniform(-17.0, -3.0)
    if kind == "arcsin":
        return "arcsin", rng.uniform(-1.0, 1.0), tol
    sign = rng.choice((-1.0, 1.0))
    if kind == "near_zero":
        # a double next to a zero of the function: cos vanishes at odd k*Q,
        # sin at even k*Q
        k = round(2.0 ** rng.uniform(0.0, math.log2(_K_MAX)))
        x = float(k * _Q)
        step = rng.randint(-3, 3)
        for _ in range(abs(step)):
            x = math.nextafter(x, math.copysign(math.inf, step))
        return ("cos" if k % 2 else "sin"), sign * x, tol
    x = min(2.0 ** rng.uniform(_LOG2_MIN, _LOG2_MAX), _MAX_ARG)
    return rng.choice(("sin", "cos")), sign * x, tol


def properties(ops):
    """Shares of the inputs with the properties a kernel change may depend on.

    reduced_share: sin/cos inputs whose reduction multiple k is >= 1,
    i.e. |x| >= pi. subnormal_share: inputs below the smallest normal
    double. reflected_share: arcsin inputs on the reflected branch.
    tight_tol_share: inputs at tol <= 1e-15; the rest are looser.
    """
    evals = [x for f, x, _ in ops if f != "arcsin"]
    arcs = [x for f, x, _ in ops if f == "arcsin"]
    return {
        "inputs": len(ops),
        "reduced_share": _share(evals, lambda x: abs(x) >= math.pi),
        "subnormal_share": _share([x for _, x, _ in ops],
                                  lambda x: 0.0 < abs(x) < sys.float_info.min),
        "arcsin_share": len(arcs) / len(ops),
        "reflected_share": _share(arcs, lambda x: abs(x) > _SQRT_HALF),
        "tight_tol_share": _share([t for _, _, t in ops], lambda t: t <= TIGHT_TOL),
    }


def _share(values, pred):
    return sum(1 for v in values if pred(v)) / len(values) if values else 0.0
