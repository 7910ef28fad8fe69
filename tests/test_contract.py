"""The input contract: one tolerance rule everywhere, non-finite arguments
rejected, CLI usage errors that end in exit code 2 with a one-line message,
and a public namespace whose every name resolves."""

import math

import pytest

import geomfree
from geomfree.analysis import (
    arc_length,
    arcsin_newton,
    arcsin_quadrature,
    quarter_circle_area,
    unit_circle_point,
)
from geomfree.cli import main
from geomfree.constants import find_q
from geomfree.errors import DomainError, InvalidTolerance
from geomfree.series_kernel import cos_eval, sin_eval

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
