"""The input contract: one tolerance rule everywhere, non-finite arguments
rejected, CLI usage errors that end in exit code 2 with a one-line message
(bench's before any set-up), a public namespace whose every name resolves,
the CertifiedValue result type, the modules a fresh import loads, and a CLI
that holds no mathematics."""

import argparse
import ast
import inspect
import json
import math
import pickle
import re
import struct
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

import geomfree
from geomfree import bench, cli, constants, series_kernel
from geomfree.analysis import (
    arc_length,
    arcsin_derivative_check,
    arcsin_newton,
    arcsin_quadrature,
    ode_oracle,
    quarter_circle_area,
    unit_circle_point,
)
from geomfree.cli import main
from geomfree.constants import find_q
from geomfree.errors import DomainError, InvalidTolerance
from geomfree.identities import check_identity
from geomfree.series_kernel import CertifiedValue, _check_tol, cos_eval, sin_eval

ENTRY_POINTS = {
    "sin_eval": lambda tol: sin_eval(0.5, tol),
    "cos_eval": lambda tol: cos_eval(0.5, tol),
    "arcsin_newton": lambda tol: arcsin_newton(0.5, tol),
    "arcsin_quadrature": lambda tol: arcsin_quadrature(0.5, tol),
    "quarter_circle_area": quarter_circle_area,
    "find_q": find_q,
}


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-10])
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_every_tolerance_is_positive_and_finite(name, tol):
    with pytest.raises(InvalidTolerance):
        ENTRY_POINTS[name](tol)


# the kernel and arcsin_newton write _check_tol's test out inline; these pin the two to
# one rule at a tiny, an unreduced and a reduced x, and the tolerance error ahead of the
# domain's, with _check_tol's own error for a tol that is not a number
KERNEL_POINTS = [1e-30, 5e-324, -0.0, 0.5, 1e6]


@pytest.mark.parametrize("tol", [0.0, -0.0, -1e-300, math.nan, math.inf, -math.inf,
                                 "0.5", None, 1j, [1.0]], ids=repr)
@pytest.mark.parametrize("f", [sin_eval, cos_eval, arcsin_newton], ids=lambda f: f.__name__)
def test_the_kernel_rejects_each_tolerance_the_one_rule_rejects(f, tol):
    expected = InvalidTolerance if tol.__class__ is float else TypeError
    with pytest.raises(expected) as rule:
        _check_tol(tol)
    for x in KERNEL_POINTS + [math.nan, math.inf, -math.inf]:
        with pytest.raises(rule.type, match=f"^{re.escape(str(rule.value))}$"):
            f(x, tol)


@pytest.mark.parametrize("tol", [5e-324, 1e-15, 1e308], ids=repr)
@pytest.mark.parametrize("f", [sin_eval, cos_eval], ids=lambda f: f.__name__)
def test_the_kernel_accepts_each_tolerance_the_one_rule_accepts(f, tol):
    _check_tol(tol)
    for x in KERNEL_POINTS:
        assert f(x, tol) == f(x, 1e-15)  # the bound does not depend on tol


@pytest.mark.parametrize("argv", [
    ["verify", "--degree", "-1"],
    ["verify", "--suite", "numeric", "--samples", "0"],
    ["verify", "--samples", "-5"],
])
def test_bad_verify_arguments_exit_two_with_one_line(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("integrate", [
    lambda tol: arcsin_quadrature(0.9, tol),
    quarter_circle_area,
    lambda tol: arc_length(-0.5, 0.5, 2.0 * tol),  # tol/2 at each end
], ids=("arcsin_quadrature", "quarter_circle_area", "arc_length"))
def test_quadrature_rejects_tolerances_below_its_rounding(integrate):
    with pytest.raises(InvalidTolerance):
        integrate(1e-16)
    assert integrate(1e-15).est_error > 0.0


NON_FINITE_ENTRY_POINTS = {
    "sin_eval": lambda x: sin_eval(x, 1e-15),
    "cos_eval": lambda x: cos_eval(x, 1e-15),
    "arcsin_newton": lambda x: arcsin_newton(x, 1e-15),
    "arcsin_quadrature": arcsin_quadrature,
    "unit_circle_point": unit_circle_point,
    "arc_length_from": lambda x: arc_length(x, 0.5),
    "arc_length_to": lambda x: arc_length(-0.5, x),
}


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", sorted(NON_FINITE_ENTRY_POINTS))
def test_every_argument_is_finite(name, x):
    with pytest.raises(DomainError):
        NON_FINITE_ENTRY_POINTS[name](x)


@pytest.mark.parametrize("argv", [
    ["eval", "arcsin", "nan"],
    ["integrate", "arcsin", "inf"],
])
def test_non_finite_cli_arguments_exit_two_with_one_line(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_every_exported_name_resolves_once():
    assert len(geomfree.__all__) == len(set(geomfree.__all__))
    for name in geomfree.__all__:
        assert hasattr(geomfree, name), name


# every name in geomfree.__all__ with its signature; an exception class has
# none and is recorded by its bare name.  Update it only in a change that
# alters the public API on purpose, and list what changed in CHANGES.md; a
# change meant to keep the API must leave it alone.
PUBLIC_SURFACE = """\
BiPoly(degree_cap, coeffs=None)
CertifiedValue(value, abs_error_bound)
CheckResult(name, kind, passed, detail=None, samples=1)
ConstantsTable(q, pi, q_multiples, certified_bound, q_exact_num, refined_radius, q_float_err, four_q_dd, four_q_err, bisection_iterations)
DomainError
GeomfreeError
IdentityCheck(name, lhs, rhs, combined_bound, passed, sample_points=())
InvalidTolerance
OdeTrajectory(step, points=(), energy_drift=0.0)
QuadratureResult(value, est_error, evaluations)
StepTooLarge
ToleranceTooTight
UniPoly(degree_cap, coeffs=None)
UnknownIdentity
arc_length(a, b, tol=1e-10)
arcsin_derivative_check(grid, h)
arcsin_newton(x, tol)
arcsin_quadrature(x, tol=1e-10)
build_report(checks)
cauchy_product(p, q, D)
check_identity(name, samples)
check_periodicity(n_samples)
cos_eval(x, tol)
cos_eval_exact(x, terms)
default_samples(name, n, seed=0)
find_q(tol)
ode_coefficients(count)
ode_oracle(t_end, step)
pi_value()
q_multiples_table()
quarter_circle_area(tol=1e-10)
registered_identities()
report_to_json(report)
shared_table()
sin_eval(x, tol)
sin_eval_exact(x, terms)
sine_sum_split(n)
solve_sine_cubic()
special_angles()
substitute_sum(s, D)
truncated_cos(D)
truncated_sin(D)
uni_to_bi(p, var, degree_cap)
unit_circle_point(a)
validate_report(report)
verify_pythagorean(D)
verify_sine_sum(D)
verify_sine_sum_split(n_max)
"""


def test_public_surface_is_the_recorded_list():
    lines = []
    for name in geomfree.__all__:
        obj = getattr(geomfree, name)
        if isinstance(obj, type) and issubclass(obj, BaseException):
            lines.append(name)
        else:
            lines.append(f"{name}{inspect.signature(obj)}")
    assert lines == PUBLIC_SURFACE.splitlines()


@pytest.mark.parametrize("name,word", [("sin_eval", "sine"), ("cos_eval", "cosine")])
def test_the_kernel_functions_keep_their_public_face(name, word):
    # both are built by one factory; each must still read as the module-level
    # function it names, to help(), to inspect and to pickle
    f = getattr(series_kernel, name)
    assert getattr(geomfree, name) is f
    assert f.__name__ == f.__qualname__ == name
    assert f.__module__ == "geomfree.series_kernel"
    assert f.__doc__.startswith(f"Certified {word}")
    assert str(inspect.signature(f)) == "(x, tol)"
    assert pickle.loads(pickle.dumps(f)) is f


def test_every_tiny_cosine_is_one_shared_result():
    one = cos_eval(2.0 ** -27, 1e-15)
    assert cos_eval(-1e-300, 1e-3) is cos_eval(5e-324, 1e-17) is one
    assert type(one) is CertifiedValue
    assert one == (1.0, series_kernel._COS_TINY)


@pytest.mark.parametrize("argv", [
    ["bench", "--n", "50"],
    ["bench", "--n", "100", "--functions", "sin,tan"],
    ["bench", "--n", "100", "--functions", ","],
])
def test_bad_bench_arguments_exit_two_before_any_set_up(capsys, monkeypatch, argv):
    def no_table():
        raise AssertionError("the shared table was built for a rejected command")

    monkeypatch.setattr(constants, "shared_table", no_table)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv,interval", [
    (["bench", "--interval", "0", "1e9"], "[0.0, 1000000000.0]"),
    (["bench", "--interval", "-1000000000", "0", "--functions", "arcsin,cos"], "[-1000000000.0, 0.0]"),
])
def test_bench_interval_past_the_kernel_domain_exits_two_before_any_call(
        capsys, monkeypatch, argv, interval):
    def no_call(*args):
        raise AssertionError("the kernel ran for a rejected interval")

    for name in ("sin_eval", "cos_eval", "arcsin_newton"):
        monkeypatch.setattr(bench, name, no_call)
    monkeypatch.setattr(constants, "shared_table", no_call)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: interval " + interval)
    assert err.count("\n") == 1


def test_bench_clips_an_arcsin_only_interval_past_the_kernel_domain():
    (record,) = bench.run_bench(100, (0.0, 1e9), functions=("arcsin",))
    assert record.interval == (0.0, 1.0)


# --- the result type --------------------------------------------------

RESULTS = {
    "sin_eval_zero": lambda: sin_eval(0.0, 1e-15),
    "sin_eval": lambda: sin_eval(0.5, 1e-15),
    "cos_eval_reduced": lambda: cos_eval(1e6, 1e-15),
    "arcsin_newton_zero": lambda: arcsin_newton(0.0, 1e-15),
    "arcsin_newton": lambda: arcsin_newton(-0.3, 1e-15),
    "arcsin_newton_reflected": lambda: arcsin_newton(0.9, 1e-15),
}


@pytest.mark.parametrize("name", sorted(RESULTS))
def test_results_are_exactly_certified_values(name):
    cv = RESULTS[name]()
    assert type(cv) is CertifiedValue
    assert CertifiedValue(cv.value, cv.abs_error_bound) == cv  # the checked constructor agrees


def test_certified_value_is_immutable():
    cv = sin_eval(0.5, 1e-15)
    with pytest.raises(AttributeError):
        cv.value = 0.0
    with pytest.raises(AttributeError):
        cv.abs_error_bound = 0.0
    with pytest.raises(AttributeError):
        cv.extra = 1
    with pytest.raises(ValueError):
        cv._replace(abs_error_bound=-1.0)


def test_certified_value_compares_hashes_and_prints_as_a_pair():
    a = CertifiedValue(0.5, 1e-17)
    assert a == CertifiedValue(0.5, 1e-17)
    assert a != CertifiedValue(0.5, 2e-17)
    assert a != CertifiedValue(0.25, 1e-17)
    assert hash(a) == hash(CertifiedValue(0.5, 1e-17)) == hash((0.5, 1e-17))
    assert len({a, CertifiedValue(0.5, 1e-17)}) == 1
    assert repr(a) == "CertifiedValue(value=0.5, abs_error_bound=1e-17)"
    value, bound = a
    assert (value, bound) == (a.value, a.abs_error_bound) == (0.5, 1e-17)


@pytest.mark.parametrize("op", ["add", "mul"])
def test_certified_arithmetic_rejects_an_overflowed_bound(op):
    a = CertifiedValue(1e308, 0.0)
    with pytest.raises(ValueError):
        a + a if op == "add" else a * a


DEFERRED_MODULES = ("analysis", "exact_series", "identities", "report")


def test_import_leaves_dataclasses_and_inspect_unloaded():
    # and the modules that evaluating sin, cos and Q does not need, until first use
    src = Path(geomfree.__file__).resolve().parent.parent
    unloaded = {"dataclasses", "inspect", *(f"geomfree.{m}" for m in DEFERRED_MODULES)}
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            f"sys.path.insert(0, {str(src)!r})\n"
            "import geomfree\n"
            "geomfree.shared_table()\n"
            f"print(sorted({unloaded!r} & (set(sys.modules) - before)))\n")
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "[]"


# (module, name) for each deferred public name, and (module, None) for the module itself
DEFERRED = [(m, None) for m in DEFERRED_MODULES] + sorted(
    (module, name) for name in geomfree.__all__
    if (module := getattr(geomfree, name).__module__.rpartition(".")[2]) in DEFERRED_MODULES)


def test_a_deferred_name_resolves_on_first_access():
    # on a bare `import geomfree` in a fresh interpreter, each DEFERRED entry is
    # geomfree.<module>.<name> and is in dir(geomfree); in a second fresh interpreter,
    # `from geomfree import *` binds every name in __all__ to the package's object
    src = Path(geomfree.__file__).resolve().parent.parent
    code = ("import json, sys\n"
            f"sys.path.insert(0, {str(src)!r})\n"
            "import geomfree\n"
            "listed = set(dir(geomfree))\n"
            "found = {}\n"
            f"for module, name in {DEFERRED!r}:\n"
            "    value = getattr(geomfree, name or module)\n"
            "    owner = sys.modules[f'geomfree.{module}']\n"
            "    found[name or module] = [value is (getattr(owner, name) if name else owner),\n"
            "                             (name or module) in listed]\n"
            "print(json.dumps(found))\n")
    star = ("import sys\n"
            f"sys.path.insert(0, {str(src)!r})\n"
            "from geomfree import *\n"
            "import geomfree\n"
            "print(sorted(n for n in geomfree.__all__\n"
            "             if globals().get(n, geomfree) is not getattr(geomfree, n)))\n")
    found, unbound = (subprocess.run([sys.executable, "-I", "-c", c], capture_output=True,
                                     text=True, check=True, timeout=120).stdout
                      for c in (code, star))
    assert json.loads(found) == {name or module: [True, True] for module, name in DEFERRED}
    assert ast.literal_eval(unbound) == []


def test_the_cold_path_to_the_first_evals_loads_no_fractions():
    # set-up and the evaluators run on ints; only a call that returns a Fraction loads it
    src = Path(geomfree.__file__).resolve().parent.parent
    code = ("import sys\n"
            f"sys.path.insert(0, {str(src)!r})\n"
            "import geomfree\n"
            "geomfree.shared_table()\n"
            "geomfree.sin_eval(5.0, 1e-15)\n"
            "geomfree.cos_eval(2.0, 1e-15)\n"
            "geomfree.arcsin_newton(0.9, 1e-15)\n"
            "print(sorted({'fractions', 'decimal', 'numbers'} & set(sys.modules)))\n"
            "print(repr(geomfree.ode_coefficients(4)))\n"
            "print(repr(geomfree.shared_table().q_exact))\n")
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True,
                         check=True, timeout=120)
    with mpmath.workprec(400):
        nearest = int(mpmath.nint(mpmath.pi / 2 * mpmath.mpf(2) ** 200))
    assert out.stdout.splitlines() == [
        "[]", repr((Fraction(0), Fraction(1), Fraction(0), Fraction(-1, 6))),
        repr(Fraction(nearest, 2 ** 200))]


NOT_A_NUMBER = ["1.5", True, False, None, 1j, Fraction(3, 2), [1.0]]


@pytest.mark.parametrize("other", NOT_A_NUMBER, ids=repr)
@pytest.mark.parametrize("op", ["+", "-", "*"])
def test_certified_arithmetic_takes_only_numbers(op, other):
    cv = CertifiedValue(1.0, 0.0)
    for lhs, rhs in ((cv, other), (other, cv)):
        with pytest.raises(TypeError):
            eval(f"lhs {op} rhs", {"lhs": lhs, "rhs": rhs})


def test_certified_arithmetic_reads_ints_and_floats_as_exact():
    cv = CertifiedValue(1.0, 0.0)
    up = 1.0 + 2.0 ** -51  # a sum's bound is rounded up
    assert cv + 2 == 2 + cv == CertifiedValue(3.0, 3.0 * 2.0 ** -53 * up)
    assert 3 - cv == CertifiedValue(2.0, 2.0 * 2.0 ** -53 * up)
    assert (cv * 0.5).value == 0.5


# every site that reads a number from a caller: (the call with x there, the name it gives x)
READERS = {
    "sin_eval": (lambda x: sin_eval(x, 1e-15), "x"),
    "cos_eval": (lambda x: cos_eval(x, 1e-15), "x"),
    "arcsin_newton": (lambda x: arcsin_newton(x, 1e-15), "x"),
    "arcsin_quadrature": (arcsin_quadrature, "x"),
    "arc_length_from": (lambda x: arc_length(x, 0.5), "a"),
    "arc_length_to": (lambda x: arc_length(-0.5, x), "b"),
    "unit_circle_point": (unit_circle_point, "a"),
    "ode_oracle_t_end": (lambda x: ode_oracle(x, 0.01), "t_end"),
    "ode_oracle_step": (lambda x: ode_oracle(1.0, x), "step"),
    "arcsin_derivative_check": (lambda x: arcsin_derivative_check([0.0], x), "h"),
    "arcsin_derivative_check_grid": (lambda x: arcsin_derivative_check([x], 1e-3),
                                     "a grid point"),
    "check_identity": (lambda x: check_identity("sine_double_angle", [x]),
                       "a sample of sine_double_angle"),
    "check_identity_pair": (lambda x: check_identity("cosine_sum", [(0.25, x)]),
                            "a sample of cosine_sum"),
    "run_bench_lo": (lambda x: bench.run_bench(100, (x, 1.0), functions=("sin",)), "interval[0]"),
    "run_bench_hi": (lambda x: bench.run_bench(100, (-1.0, x), functions=("sin",)), "interval[1]"),
    "find_q_tol": (find_q, "tol"),
    "arcsin_quadrature_tol": (lambda x: arcsin_quadrature(0.5, x), "tol"),
    "quarter_circle_area_tol": (quarter_circle_area, "tol"),
    "arc_length_tol": (lambda x: arc_length(-0.5, 0.5, x), "tol"),
    "CertifiedValue_value": (lambda x: CertifiedValue(x, 0.0), "value"),
    "CertifiedValue_bound": (lambda x: CertifiedValue(0.5, x), "abs_error_bound"),
}


# a decimal that is not a double is refused, not rounded: arcsin of 0.99999999999999999
# is 4.47e-9 from arcsin(1.0), far past the bound of 1.7e-16 that 1.0 would get
@pytest.mark.parametrize("x", [True, False, "0.5", None, Decimal("0.5"), Fraction(1, 2),
                               Decimal("0.99999999999999999")], ids=repr)
@pytest.mark.parametrize("name", sorted(READERS))
def test_every_reader_takes_only_an_int_or_a_float_and_names_its_argument(name, x):
    call, arg = READERS[name]
    with pytest.raises(TypeError, match=f"^{re.escape(arg)} must be an int or a float, "
                                        f"got {re.escape(repr(x))}$"):
        call(x)


@pytest.mark.parametrize("n", [10 ** 400, -10 ** 400], ids=["1e400", "-1e400"])
@pytest.mark.parametrize("name", sorted(set(READERS) - {"CertifiedValue_bound"}))
def test_an_int_beyond_the_float_range_is_an_overflow_that_names_its_argument(name, n):
    call, arg = READERS[name]
    with pytest.raises(OverflowError,
                       match=f"^{re.escape(arg)} is an int too large to convert to float$"):
        call(n)


# +, - and * with a plain operand, each way round: (the operation with n there, the name it gives n)
OPERATIONS = {
    "__add__": (lambda n: CertifiedValue(1.0, 0.0) + n, "operand of +"),
    "__radd__": (lambda n: n + CertifiedValue(1.0, 0.0), "operand of +"),
    "__sub__": (lambda n: CertifiedValue(1.0, 0.0) - n, "operand of -"),
    "__rsub__": (lambda n: n - CertifiedValue(1.0, 0.0), "operand of -"),
    "__mul__": (lambda n: CertifiedValue(1.0, 0.0) * n, "operand of *"),
    "__rmul__": (lambda n: n * CertifiedValue(1.0, 0.0), "operand of *"),
}


@pytest.mark.parametrize("name", sorted(OPERATIONS))
def test_an_operand_beyond_the_float_range_is_an_overflow_that_names_it(name):
    operate, operand = OPERATIONS[name]
    with pytest.raises(OverflowError,
                       match=f"^{re.escape(operand)} is an int too large to convert to float$"):
        operate(10 ** 400)


@pytest.mark.parametrize("n", [10 ** 400, -10 ** 400, 2 ** 1024],
                         ids=["1e400", "-1e400", "2**1024"])
def test_an_int_bound_beyond_the_float_range_is_infinite(n):
    for make in (lambda: CertifiedValue(1.0, n),
                 lambda: CertifiedValue(1.0, 0.0)._replace(abs_error_bound=n)):
        with pytest.raises(ValueError, match=r"^abs_error_bound must be finite and >= 0$"):
            make()


def _bits(result):
    return struct.pack("<dd", *result)


@pytest.mark.parametrize("f", [sin_eval, cos_eval, arcsin_newton])
def test_an_int_or_a_numpy_float_gives_the_floats_bits(f):
    np = pytest.importorskip("numpy")
    for x in ([-1, 0, 1] + ([] if f is arcsin_newton else [2, 7, -100, 10 ** 8])):
        assert _bits(f(x, 1e-15)) == _bits(f(float(x), 1e-15)), x
    for x in (0.3, -0.7, 0.72, 1e-9, -1.0) + (() if f is arcsin_newton else (3.0, 1e8)):
        assert _bits(f(np.float64(x), 1e-15)) == _bits(f(x, 1e-15)), x


def test_the_other_readers_take_an_int_or_a_numpy_float_as_the_float():
    np = pytest.importorskip("numpy")
    half = np.float64(0.5)
    assert arcsin_quadrature(1) == arcsin_quadrature(1.0)
    assert arcsin_quadrature(half) == arcsin_quadrature(0.5)
    assert arc_length(0, 1) == arc_length(0.0, 1.0)
    assert arc_length(-half, half) == arc_length(-0.5, 0.5)
    assert unit_circle_point(0) == unit_circle_point(0.0)
    assert unit_circle_point(half) == unit_circle_point(0.5)
    assert ode_oracle(1, np.float64(0.01)) == ode_oracle(1.0, 0.01)
    assert quarter_circle_area(np.float64(1e-6)) == quarter_circle_area(1e-6)
    assert find_q(1) == find_q(1.0) and type(find_q(1).certified_bound) is float
    assert arcsin_derivative_check([0.0], np.float64(1e-3)) == arcsin_derivative_check([0.0], 1e-3)
    for samples in ([1], [half], [(2, half)]):
        name = "cosine_sum" if isinstance(samples[0], tuple) else "sine_double_angle"
        floats = [tuple(map(float, s)) if isinstance(s, tuple) else float(s) for s in samples]
        checks = check_identity(name, samples)
        assert checks == check_identity(name, floats)
        assert all(type(p) is float for c in checks for p in c.sample_points)
    cv = CertifiedValue(half, np.float64(1e-3))
    assert cv == (0.5, 1e-3) and type(cv.value) is type(cv.abs_error_bound) is float


def test_cli_holds_no_mathematics():
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module)
    assert imported <= {"argparse", "contextlib", "os", "re", "sys"}
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert not {name for name in defined if name.startswith("_") and (
        name.endswith(("_check", "_certificate")) or name == "_sin_lower_bound_holds")}
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    suite = next(a for a in subparsers.choices["verify"]._actions if a.dest == "suite")
    assert suite.choices == [*cli._SUITES, "all"]
