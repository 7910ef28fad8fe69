"""Span tracer installed from outside the package.

Each boundary is a module attribute that a caller inside geomfree looks up
at call time, such as `series_kernel.dd_add`, the name series_kernel uses
for the double-double addition. Replacing that attribute with a wrapper
records every call made through it, and nothing else. A boundary that the
code no longer has is listed in `absent`; installing it does not fail.

Spans live in flat arrays in memory (name, parent, start, end) and are
written out only after the run. A span belongs to the module that
defines the wrapped function, so self times follow code that moves.
"""

import functools
import gzip
import importlib
import json
import time
from array import array

# module.attribute, as looked up by the calling module
BOUNDARIES = (
    # double-double arithmetic, as the series kernel calls it
    "series_kernel.dd_add", "series_kernel.dd_mul", "series_kernel.two_prod",
    # certified sin/cos, as each caller sees them
    "analysis.sin_eval", "analysis.cos_eval",
    "identities.sin_eval", "identities.cos_eval",
    "series_kernel.sin_eval", "series_kernel.cos_eval",
    # exact partial sums: the set-up's sign certification and the CLI
    "constants.cos_eval_exact", "constants.sin_eval_exact",
    "series_kernel.cos_eval_exact",
    # exact polynomial algebra, and the verifiers the CLI calls
    "exact_series.cauchy_product", "exact_series.substitute_sum",
    "exact_series.verify_pythagorean", "exact_series.verify_sine_sum",
    "exact_series.verify_sine_sum_split", "exact_series.truncated_sin",
    # identity checks, as the CLI calls them
    "identities.check_identity", "identities.default_samples",
    "identities.check_periodicity", "identities.check_period_minimality",
    "identities.special_angles",
    # the CLI's verify suites and its report
    "cli.exact_checks", "cli.numeric_checks",
    "report.build_report", "report.validate_report",
)


class Tracer:
    """Records spans for the calls made through installed wrappers."""

    def __init__(self):
        self.names = []   # span name -> (owner module, function name)
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._installed = []  # (module, attribute, original)
        self.absent = []

    def install(self, boundaries=BOUNDARIES, package="geomfree"):
        """Wrap each boundary that exists; list the others in `absent`."""
        for boundary in boundaries:
            module_name, attr = boundary.rsplit(".", 1)
            try:
                module = importlib.import_module(f"{package}.{module_name}")
            except ImportError:
                self.absent.append(boundary)
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(boundary)
                continue
            setattr(module, attr, self.wrap(original, boundary))
            self._installed.append((module, attr, original))
        return self

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def wrap(self, fn, name):
        """`fn` wrapped so that each call records a span called `name`."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            owner = getattr(fn, "__module__", "") or ""
            self.names.append((owner.rpartition(".")[2], getattr(fn, "__name__", name)))
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def span_names(self):
        return {nid: name for name, nid in self._ids.items()}

    def write(self, path):
        """Write the spans as gzipped JSON: one list per field."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "names": [{"id": nid, "name": name, "owner": self.names[nid][0],
                       "function": self.names[nid][1]}
                      for nid, name in sorted(self.span_names().items())],
            "absent": self.absent,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
        }
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            json.dump(doc, fh)
