"""Per-layer metrics: isolated timings on public names, and span analysis.

Every metric here is named `<module>.<metric>` after the geomfree module
whose work it measures. A metric whose public name or trace boundary is
gone from the code is left out and reported as absent.
"""

import importlib
import statistics
import timeit
from collections import Counter, defaultdict

_DD = ("series_kernel.dd_add", "series_kernel.dd_mul", "series_kernel.two_prod")
_ANALYSIS_KERNEL = ("analysis.sin_eval", "analysis.cos_eval")
_IDENTITY_KERNEL = ("identities.sin_eval", "identities.cos_eval")
_SETUP_EXACT = ("constants.cos_eval_exact", "constants.sin_eval_exact")
_KERNEL = (("series_kernel", "sin_eval"), ("series_kernel", "cos_eval"))

# metric, unit, module, attribute, arguments; a unit of ns or us marks a
# fast call timed in batches, ms a slow one timed call by call
ISOLATED = (
    ("doubledouble.dd_add_ns", "ns", "doubledouble", "dd_add", ((1.1, 1e-17), (2.2, -3e-17))),
    ("doubledouble.dd_mul_ns", "ns", "doubledouble", "dd_mul", ((1.1, 1e-17), (2.2, -3e-17))),
    ("doubledouble.two_prod_ns", "ns", "doubledouble", "two_prod", (1.1, 2.2)),
    ("series_kernel.certified_mul_ns", "ns", "series_kernel", "CertifiedValue", None),
    ("series_kernel.sin_eval_small_us", "us", "series_kernel", "sin_eval", (0.5, 1e-15)),
    ("series_kernel.sin_eval_edge_us", "us", "series_kernel", "sin_eval", (3.0, 1e-15)),
    ("series_kernel.sin_eval_large_us", "us", "series_kernel", "sin_eval", (1e6, 1e-15)),
    ("series_kernel.cos_eval_us", "us", "series_kernel", "cos_eval", (2.0, 1e-15)),
    ("analysis.arcsin_direct_us", "us", "analysis", "arcsin_newton", (0.3, 1e-15)),
    ("analysis.arcsin_reflected_us", "us", "analysis", "arcsin_newton", (0.9, 1e-15)),
    ("constants.find_q_ms", "ms", "constants", "find_q", (1e-13,)),
    ("exact_series.pythagorean_ms", "ms", "exact_series", "verify_pythagorean", (100,)),
    ("exact_series.sine_sum_ms", "ms", "exact_series", "verify_sine_sum", (100,)),
    ("exact_series.sine_sum_split_ms", "ms", "exact_series", "verify_sine_sum_split", (20,)),
)
_SCALE = {"ns": 1e9, "us": 1e6, "ms": 1e3}
_BATCH_S = 0.02   # target length of one batch of fast calls
_REPEATS = 7      # batches (fast calls) or calls (slow ones); the median is kept


def isolated_timings(package="geomfree"):
    """Median per-call time of each ISOLATED entry whose name exists."""
    out = {}
    for metric, unit, module_name, attr, args in ISOLATED:
        try:
            fn = getattr(importlib.import_module(f"{package}.{module_name}"), attr)
        except (ImportError, AttributeError):
            continue
        if args is None:  # CertifiedValue * CertifiedValue
            timer = timeit.Timer("a * b", globals={"a": fn(0.5, 1e-17), "b": fn(0.25, 2e-17)})
        else:
            stmt = "fn(" + ", ".join(f"a{i}" for i in range(len(args))) + ")"
            env = {"fn": fn, **{f"a{i}": a for i, a in enumerate(args)}}
            timer = timeit.Timer(stmt, globals=env)
        number = 1
        if unit != "ms":
            single = min(timer.repeat(repeat=3, number=1))
            number = max(1, int(_BATCH_S / max(single, 1e-9)))
        runs = timer.repeat(repeat=_REPEATS, number=number)
        out[metric] = statistics.median(runs) / number * _SCALE[unit]
    return out


class SpanStats:
    """Counts, total and self time per span name, and per owner module."""

    def __init__(self, tracer):
        names = tracer.span_names()
        start, end, parent, name = tracer.start, tracer.end, tracer.parent, tracer.name
        n = len(start)
        dur = [end[i] - start[i] for i in range(n)]
        child = [0] * n
        two_prod_ids = {nid for nid, nm in names.items() if nm == "series_kernel.two_prod"}
        reduced = bytearray(n)  # span has a two_prod child: its input had k >= 1
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
                if name[i] in two_prod_ids:
                    reduced[p] = 1
        self.count = Counter()
        self.total = defaultdict(int)
        self.self_time = defaultdict(int)
        self.owner_self = defaultdict(int)
        self.root_count = 0
        self.root_time = 0
        self.root_functions = Counter()
        self.kernel_count = 0
        self.kernel_reduced = 0
        self.installed = set(names.values())
        kernel_ids = {nid for nid in names if tracer.names[nid] in _KERNEL}
        for i in range(n):
            nm = names[name[i]]
            own = dur[i] - child[i]
            self.count[nm] += 1
            self.total[nm] += dur[i]
            self.self_time[nm] += own
            self.owner_self[tracer.names[name[i]][0]] += own
            if parent[i] < 0:
                self.root_count += 1
                self.root_time += dur[i]
                self.root_functions[tracer.names[name[i]][1]] += 1
            if name[i] in kernel_ids:
                self.kernel_count += 1
                self.kernel_reduced += reduced[i]

    def sum_count(self, names):
        return sum(self.count[n] for n in names)

    def any_installed(self, names):
        return any(n in self.installed for n in names)


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(work, setup, reflected_share, overhead_ratio, isolated):
    """Per-layer metrics of a traced workload pass.

    work: SpanStats of one traced pass over the workload's operations;
    setup: SpanStats of one traced cold find_q; reflected_share: the share
    of that pass's arcsin inputs on the reflected branch. Per-op figures
    divide by the pass's operations; per-arcsin ones are 0 when the pass
    made no arcsin call.
    """
    ops = work.root_count
    n_arcsin = work.root_functions["arcsin_newton"]
    m = dict(isolated)
    if work.any_installed(_DD):
        m["doubledouble.calls_per_eval"] = _ratio(work.sum_count(_DD), work.kernel_count)
        m["doubledouble.self_share"] = _ratio(work.owner_self["doubledouble"], work.root_time)
    m["series_kernel.self_us_per_eval"] = _ratio(work.owner_self["series_kernel"],
                                                 work.kernel_count) / 1e3
    if work.any_installed(("series_kernel.two_prod",)):
        m["series_kernel.reduced_share"] = _ratio(work.kernel_reduced, work.kernel_count)
    if setup.any_installed(_SETUP_EXACT):
        m["series_kernel.exact_sum_calls"] = setup.sum_count(_SETUP_EXACT)
        m["series_kernel.exact_sum_ms"] = sum(setup.total[n] for n in _SETUP_EXACT) / 1e6
    if setup.any_installed(("constants.cos_eval_exact",)):
        m["constants.exact_sign_calls"] = setup.count["constants.cos_eval_exact"]
    if work.any_installed(_ANALYSIS_KERNEL):
        m["analysis.kernel_calls_per_arcsin"] = _ratio(work.sum_count(_ANALYSIS_KERNEL), n_arcsin)
    m["analysis.self_us_per_arcsin"] = _ratio(work.owner_self["analysis"], n_arcsin) / 1e3
    m["analysis.reflected_share"] = reflected_share
    if work.any_installed(("exact_series.cauchy_product",)):
        m["exact_series.cauchy_product_calls"] = _ratio(
            work.count["exact_series.cauchy_product"], ops)
        m["exact_series.cauchy_product_self_ms"] = _ratio(
            work.self_time["exact_series.cauchy_product"], ops) / 1e6
    m["identities.self_ms"] = _ratio(work.owner_self["identities"], ops) / 1e6
    if work.any_installed(_IDENTITY_KERNEL):
        m["identities.kernel_calls"] = _ratio(work.sum_count(_IDENTITY_KERNEL), ops)
    m["cli.self_ms"] = _ratio(work.owner_self["cli"], ops) / 1e6
    m["report.self_ms"] = _ratio(work.owner_self["report"], ops) / 1e6
    m["trace.overhead_ratio"] = overhead_ratio
    return m
