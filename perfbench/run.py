#!/usr/bin/env python3
"""Benchmark of geomfree: one workload, one seed, one process, one thread.

Run from the repository root:

    python3 perfbench/run.py --workload eval-narrow --seed 1 --seconds 10 --trace 0

The caller is a closed loop: it issues the next call only after the
previous one has returned. With --trace 0 the run is untraced and yields
the end-to-end metrics; with --trace 1 a separate traced run yields the
per-layer metrics. Every output is checked (see oracle.py). A readable
report comes first; the last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. The metric names and units
are those declared in BENCHMARK.json.
"""

import argparse
import contextlib
import functools
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_RUNS = 12  # fresh interpreters timed per run, spread over the run
CALIBRATIONS = 12  # calibration loops timed before, and again after, each verify pass

sys.path.insert(0, str(ROOT))
from perfbench import layers, workloads  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402

# time from before `import geomfree` until the first shared_table() returns
_SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import geomfree
geomfree.shared_table()
print(time.perf_counter() - t0)
"""


def allowed_cpus():
    """The CPUs this process may run on, or [None] where that is unknown."""
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:
        return [None]


@contextlib.contextmanager
def pinned(cpu):
    """Run the block, and any child it starts, on one CPU only."""
    if cpu is None:
        yield
        return
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)


def setup_command():
    """A fresh interpreter that prints its set-up time.

    One untimed interpreter runs first, so every timed one finds the
    bytecode cache written, as an installed package does.
    """
    cmd = [sys.executable, "-I", "-c", _SETUP_CHILD, str(SRC)]
    subprocess.run(cmd, capture_output=True, check=True, timeout=120)
    return cmd


def time_setup(cmd):
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


def import_geomfree():
    sys.path.insert(0, str(SRC))
    import geomfree
    return geomfree


def _eval_pass(calls):
    clock = time.perf_counter_ns
    lat, out = [], []
    for fn, x, tol in calls:
        t0 = clock()
        try:
            r = fn(x, tol)
        except Exception as exc:  # a failed operation; the checker counts it
            r = exc
        lat.append(clock() - t0)
        out.append(r)
    return lat, out


def _calibration():
    """Fixed pure-Python work that does not touch geomfree: a rational sum
    and a float loop, the mix of a verify pass. About 0.3 ms."""
    x, s = Fraction(0), 0.0
    for k in range(1, 40):
        x += Fraction(1, k * k)
    for i in range(3000):
        s += i * 0.5 * 1.0001
    return x, s


def _time_calibrations(n):
    clock = time.perf_counter_ns
    out = []
    for _ in range(n):
        t0 = clock()
        _calibration()
        out.append(clock() - t0)
    return out


def _verify_pass(main, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter_ns()
        code = main(argv)
        t1 = time.perf_counter_ns()
    return [t1 - t0], (code, buf.getvalue())


class EvalWorkload:
    """Certified sin/cos/arcsin calls over the workload's seeded inputs."""

    def __init__(self, geomfree, name, seed):
        self.ops = workloads.eval_ops(name, seed)
        self.functions = {"sin": geomfree.sin_eval, "cos": geomfree.cos_eval,
                          "arcsin": geomfree.arcsin_newton}
        self.reference = None  # results of the untimed first pass
        self.lowest = None

    def make_pass(self, wrap=None):
        fns = {k: wrap(f, f"geomfree.{f.__name__}") if wrap else f
               for k, f in self.functions.items()}
        return functools.partial(_eval_pass, [(fns[f], x, tol) for f, x, tol in self.ops])

    def warm_up(self):
        self.reference = self.make_pass()()[1]

    def measure(self, run_pass):
        """Run one timed pass; keep each operation's lowest latency."""
        lat, out = run_pass()
        self.lowest = lat if self.lowest is None else list(map(min, self.lowest, lat))
        return out

    def latencies(self):
        return self.lowest

    def keep(self, out):
        """Indices whose result differs from the first pass."""
        return {i for i, (a, b) in enumerate(zip(out, self.reference)) if a != b}

    def verdict(self, kept):
        from perfbench import oracle  # mpmath, loaded after the peak RSS is read
        verdicts, acc = oracle.eval_accuracy(self.ops, self.reference)
        bad = {i for i, v in enumerate(verdicts) if not v.ok}
        failed = sum(len(bad | differs) for differs in kept)
        return len(kept) * len(self.ops), failed, acc


class VerifyWorkload:
    """In-process `geomfree verify` passes with a fixed seed."""

    def __init__(self, geomfree, seed):
        from geomfree import cli
        self.main = cli.main
        self.argv = workloads.verify_argv(seed)
        self.reference = None
        self.timed = []  # (pass ns, median calibration ns around the pass)
        self.fastest_calibration = math.inf

    def make_pass(self, wrap=None):
        main = wrap(self.main, "geomfree.cli.main") if wrap else self.main
        return functools.partial(_verify_pass, main, self.argv)

    def warm_up(self):
        self.reference = self.make_pass()()[1]

    def measure(self, run_pass):
        """Run one timed pass between two sets of calibration loops."""
        before = _time_calibrations(CALIBRATIONS)
        lat, out = run_pass()
        after = _time_calibrations(CALIBRATIONS)
        self.timed.append((lat[0], statistics.median(before + after)))
        self.fastest_calibration = min(self.fastest_calibration, *before, *after)
        return out

    def latencies(self):
        """A pass's time scaled to the fastest calibration of the run.

        A pass takes 0.2 s, and the shared machine's speed changes by up to
        a factor of two over such spans, so no pass runs at full speed
        throughout. The calibration loops around a pass measure the speed
        the machine gave it; the fastest calibration of the run measures
        full speed. The median of the scaled passes is reported.
        """
        return [statistics.median(t * self.fastest_calibration / c for t, c in self.timed)]

    def raw_median_ns(self):
        return statistics.median(t for t, _ in self.timed)

    def keep(self, out):
        return out

    def verdict(self, kept):
        from perfbench import oracle
        ref = oracle.reference_checks(self.reference[1])
        failed = sum(oracle.verify_failures(text, code, ref) for code, text in kept)
        return len(kept) * len(ref), failed, {}


def _percentile(values, q):
    s = sorted(values)
    return s[min(len(s) - 1, max(0, math.ceil(q / 100 * len(s)) - 1))]


def timed_run(args, geomfree, wl):
    cpus = allowed_cpus()
    setup_cmd = setup_command()
    wl.warm_up()
    run_pass = wl.make_pass()
    # Each pass runs every operation once, on the CPUs in turn. The machine
    # is shared: other work slows every call by up to a half, for seconds
    # at a time. On eval-* an operation's latency is its lowest over the
    # passes, which such bursts cannot lower; a verify pass is scaled by
    # calibration loops instead (VerifyWorkload.latencies). The set-up runs
    # are spread over the whole run for the same reason; their median is
    # reported.
    kept, setups = [], []
    setup_every = args.seconds / SETUP_RUNS
    start = time.perf_counter()
    while True:
        with pinned(cpus[len(kept) % len(cpus)]):
            setup_due = start + len(setups) * setup_every
            if len(setups) < SETUP_RUNS and time.perf_counter() >= setup_due:
                setups.append(time_setup(setup_cmd))
            out = wl.measure(run_pass)
        kept.append(wl.keep(out))
        del out
        if (time.perf_counter() >= start + args.seconds and len(kept) >= 4 * len(cpus)
                and len(setups) == SETUP_RUNS):
            break
    setup_s = statistics.median(setups)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed, acc = wl.verdict(kept)

    lat = wl.latencies()
    rate = len(lat) / (sum(lat) / 1e9)
    p50 = _percentile(lat, 50) / 1e3
    p99 = _percentile(lat, 99) / 1e3
    metrics = {
        "ops_per_s": rate,
        "op_p50_us": p50,
        "op_p99_us": p99,
        "peak_rss_mib": peak_rss_mib,
        "setup_s": setup_s,
    }
    if isinstance(wl, EvalWorkload):
        lines = [
            f"  samples          {len(kept)} passes x {len(lat)} operations, "
            f"alternating over CPUs {cpus}; each operation's lowest latency",
            f"  evals_per_s      {rate:.1f} 1/s",
            f"  eval_p50_us      {p50:.3f} us",
            f"  eval_p99_us      {p99:.3f} us  (over {len(lat)} inputs)",
            f"  bound_p50_ulp    {acc['bound_p50_ulp']:.4g} ulp  (tol <= 1e-15)",
            f"  err_max_ulp      {acc['err_max_ulp']:.4g} ulp  (tol <= 1e-15)",
        ]
    else:
        lines = [
            f"  samples          {len(kept)} passes, alternating over CPUs {cpus}; "
            f"median pass scaled to the fastest of {2 * CALIBRATIONS * len(kept)} "
            f"calibration loops ({wl.fastest_calibration / 1e3:.1f} us)",
            f"  verify_s         {p50 / 1e6:.4f} s  (unscaled median "
            f"{wl.raw_median_ns() / 1e9:.4f} s)",
        ]
    lines += [
        f"  fail_ratio       {failed / attempted:.6g} ratio  ({failed} of {attempted})",
        f"  peak_rss_mib     {peak_rss_mib:.2f} MiB",
        f"  setup_s          {setup_s:.4f} s  (median of {SETUP_RUNS} fresh interpreters)",
    ]
    return attempted, failed, metrics, lines


def traced_run(args, geomfree, wl):
    wl.warm_up()
    isolated = layers.isolated_timings()
    with Tracer().install() as setup_tracer:
        setup_tracer.wrap(geomfree.find_q, "geomfree.find_q")(1e-13)

    plain = wl.make_pass()
    first, ratios, kept = None, [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        t0 = time.perf_counter_ns()
        plain()
        t_plain = time.perf_counter_ns() - t0
        with Tracer().install() as tracer:
            traced = wl.make_pass(tracer.wrap)
            t0 = time.perf_counter_ns()
            out = traced()[1]
            t_traced = time.perf_counter_ns() - t0
        kept.append(wl.keep(out))
        del out
        ratios.append(t_traced / t_plain)
        first = first or tracer
        if time.perf_counter() >= deadline:
            break
    attempted, failed, _ = wl.verdict(kept)

    props = workloads.properties(wl.ops) if isinstance(wl, EvalWorkload) else {}
    metrics = layers.per_layer(layers.SpanStats(first), layers.SpanStats(setup_tracer),
                               props.get("reflected_share", 0.0),
                               statistics.median(ratios), isolated)
    stem = f"{args.workload}-seed{args.seed}"
    first.write(OUT_DIR / f"spans-{stem}.json.gz")
    setup_tracer.write(OUT_DIR / f"spans-{stem}-find_q.json.gz")
    lines = [f"  traced passes    {len(ratios)}; spans in {OUT_DIR.name}/spans-{stem}*.json.gz",
             f"  absent boundaries {first.absent or 'none'}"]
    return attempted, failed, metrics, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "geomfree" / "__init__.py").is_file():
        sys.exit(f"perfbench: geomfree sources not found under {SRC}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    geomfree = import_geomfree()
    if args.workload == "verify":
        wl = VerifyWorkload(geomfree, args.seed)
    else:
        wl = EvalWorkload(geomfree, args.workload, args.seed)
    run = traced_run if args.trace else timed_run
    attempted, failed, values, lines = run(args, geomfree, wl)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in values}
    absent = [m["name"] for m in declared if m["name"] not in values]
    print(f"geomfree benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    if isinstance(wl, EvalWorkload):
        print("  inputs           " + ", ".join(
            f"{k}={v:.4g}" for k, v in workloads.properties(wl.ops).items()))
    else:
        print(f"  inputs           geomfree {' '.join(wl.argv)}")
    for line in lines:
        print(line)
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:.6g} {m['unit']}")
    if absent:
        print(f"  absent metrics   {absent}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
