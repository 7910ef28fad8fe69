"""Audit that no module except the benchmark baseline touches platform
trigonometry: a static scan of the package source plus a runtime guard."""

import ast
import math
import pathlib

import pytest

import geomfree

PKG_DIR = pathlib.Path(geomfree.__file__).parent
TRIG_NAMES = {
    "sin", "cos", "tan", "asin", "acos", "atan", "atan2",
    "sinh", "cosh", "tanh", "asinh", "acosh", "atanh",
}
MATH_MODULES = {"math", "cmath", "numpy", "np", "mpmath", "scipy"}
ALLOWED = {"bench.py"}


def _trig_references(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in TRIG_NAMES:
            base = node.value
            if isinstance(base, ast.Name) and base.id in MATH_MODULES:
                hits.append(f"{path.name}:{node.lineno} {base.id}.{node.attr}")
        if isinstance(node, ast.ImportFrom) and node.module in MATH_MODULES:
            for alias in node.names:
                if alias.name in TRIG_NAMES:
                    hits.append(f"{path.name}:{node.lineno} from {node.module} import {alias.name}")
    return hits


class TestStaticAudit:
    def test_only_bench_references_platform_trig(self):
        offenders = []
        benched = []
        for path in sorted(PKG_DIR.glob("*.py")):
            hits = _trig_references(path)
            if path.name in ALLOWED:
                benched.extend(hits)
            else:
                offenders.extend(hits)
        assert offenders == [], f"platform trig outside bench: {offenders}"
        assert benched, "bench module should reference the platform baseline"

    def test_no_wildcard_math_imports(self):
        for path in sorted(PKG_DIR.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module in MATH_MODULES:
                    assert not any(a.name == "*" for a in node.names), path.name


class TestRuntimeGuard:
    def test_kernel_paths_never_call_platform_trig(self, monkeypatch):
        def trap(name):
            def inner(*_a, **_k):
                raise AssertionError(f"platform math.{name} was called")
            return inner

        for name in ("sin", "cos", "tan", "asin", "acos", "atan", "atan2"):
            monkeypatch.setattr(math, name, trap(name))

        from geomfree import analysis, constants, identities, series_kernel
        from geomfree.cli import exact_checks, numeric_checks

        series_kernel.sin_eval(1.0, 1e-15)
        series_kernel.cos_eval(-7.5, 1e-15)
        series_kernel.sin_eval(9.9e7, 1e-14)          # full range reduction
        constants.find_q(1e-9)                        # fresh, uncached run
        analysis.arcsin_newton(0.95, 1e-13)           # reflected branch
        analysis.arcsin_quadrature(1.0, 1e-8)
        analysis.quarter_circle_area(1e-8)
        analysis.arc_length(-0.5, 0.5, 1e-8)
        analysis.unit_circle_point(0.25)
        analysis.ode_oracle(1.0, 1e-3)
        identities.special_angles()
        identities.check_identity("cosine_sum", [(0.3, 1.1)])
        identities.check_periodicity(25)
        exact_checks(21)
        numeric_checks(30, 0)

    def test_bench_does_use_platform_trig(self, monkeypatch):
        calls = []
        real_sin = math.sin

        def spy(x):
            calls.append(x)
            return real_sin(x)

        monkeypatch.setattr(math, "sin", spy)
        import importlib
        from geomfree import bench as bench_mod
        importlib.reload(bench_mod)
        try:
            bench_mod.run_bench(100, (-1.0, 1.0), seed=1, functions=("sin",))
            assert calls, "bench should have exercised the platform baseline"
        finally:
            monkeypatch.undo()
            importlib.reload(bench_mod)
