"""Accuracy/throughput benchmark against the platform's math functions.

This is the single module in the package allowed to call platform
trigonometry (math.sin, math.cos, math.asin); it exists purely as a
comparison baseline, which keeps the trig-free claim of every other
module auditable.
"""

import math
import random
import time
from collections import namedtuple

from .analysis import arcsin_newton
from .constants import pi_value
from .series_kernel import _MAX_ARG, _real, cos_eval, sin_eval

_SELF_EVAL = {
    "sin": lambda x: sin_eval(x, 1e-15).value,
    "cos": lambda x: cos_eval(x, 1e-15).value,
    "arcsin": lambda x: arcsin_newton(x, 1e-14).value,
}

_PLATFORM_EVAL = {
    "sin": math.sin,
    "cos": math.cos,
    "arcsin": math.asin,
}


BenchRecord = namedtuple("BenchRecord", "function interval n max_abs_error_vs_platform"
                                        " ns_per_eval_self ns_per_eval_platform")


def run_bench(n, interval, seed=0, functions=tuple(_SELF_EVAL)):
    """Max |self - platform| and per-eval timings over n uniform points.

    interval None means [-pi, pi]; sin and cos need it within |x| <= 1e8,
    and arcsin samples are drawn from it clipped to [-1, 1].  The arguments
    are checked before any work, the certified pi included.
    """
    if not 100 <= n <= 1_000_000:  # the samples are all drawn before any is timed
        raise ValueError("n must be between 100 and 1e6")
    if not functions:
        raise ValueError("no function to bench")
    for fn in functions:
        if fn not in _SELF_EVAL:
            raise ValueError(f"unknown function {fn!r}")
    if interval is None:
        interval = (-pi_value(), pi_value())
    lo, hi = _real(interval[0], "interval[0]")[0], _real(interval[1], "interval[1]")[0]
    if not (lo < hi) or not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"bad interval [{lo!r}, {hi!r}]")
    if max(-lo, hi) > _MAX_ARG and {"sin", "cos"} & set(functions):
        raise ValueError(f"interval [{lo!r}, {hi!r}] leaves sin/cos's domain |x| <= {_MAX_ARG:g}")
    records = []
    for fn in functions:
        flo, fhi = (max(lo, -1.0), min(hi, 1.0)) if fn == "arcsin" else (lo, hi)
        if not flo < fhi:
            flo, fhi = -1.0, 1.0
        rng = random.Random(f"{seed}:{fn}")
        xs = [rng.uniform(flo, fhi) for _ in range(n)]
        mine = _SELF_EVAL[fn]
        theirs = _PLATFORM_EVAL[fn]

        # untimed, at the largest |x|: builds the shared table and binds the reduction
        # on first use, unless no sample needs them (a tiny one skips the reduction)
        mine(max(xs, key=abs))
        t0 = time.perf_counter_ns()
        self_vals = [mine(x) for x in xs]
        t1 = time.perf_counter_ns()
        plat_vals = [theirs(x) for x in xs]
        t2 = time.perf_counter_ns()

        err = max(abs(a - b) for a, b in zip(self_vals, plat_vals))
        records.append(BenchRecord(
            function=fn,
            interval=(flo, fhi),
            n=n,
            max_abs_error_vs_platform=err,
            ns_per_eval_self=(t1 - t0) / n,
            ns_per_eval_platform=max((t2 - t1) / n, 0.001),
        ))
    return records
