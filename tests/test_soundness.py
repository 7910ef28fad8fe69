"""Soundness of the certified kernel against an independent oracle.

mpmath at 300 bits gives the truth; the package never imports it.  Every
certified result must satisfy |value - truth| <= abs_error_bound over the
whole input contract: subnormals, |x| up to 1e8, the doubles nearest the
multiples of Q (where sin or cos is nearly zero), and tolerances from
1e-17 to 1e-1.  arcsin_newton and unit_circle_point are held to the same
rule over [-1, 1], both arcsin branches and the sqrt(2)/2 boundary
between them.
"""

import hashlib
import math
import random
import statistics
import struct
from fractions import Fraction

import mpmath
import pytest
from oracles import adversary

from geomfree import analysis, series_kernel
from geomfree.analysis import arcsin_newton, arcsin_quadrature, unit_circle_point
from geomfree.constants import shared_table
from geomfree.doubledouble import two_prod, two_sum
from geomfree.series_kernel import CertifiedValue, cos_eval, sin_eval

PREC_BITS = 300
MAX_ARG = 1.0e8
K_MAX = int(MAX_ARG / 1.5707963267948966)
FUNCTIONS = ((sin_eval, mpmath.sin), (cos_eval, mpmath.cos))


def _truth(fn, x):
    with mpmath.workprec(PREC_BITS):
        return fn(mpmath.mpf(x))


def _excess(evaluate, truth_fn, x, tol):
    """|value - truth| - abs_error_bound (<= 0 when the certificate holds)."""
    cv = evaluate(x, tol)
    with mpmath.workprec(PREC_BITS):
        err = abs(mpmath.mpf(cv.value) - truth_fn(mpmath.mpf(x)))
        return err - mpmath.mpf(cv.abs_error_bound)


def _near_multiple_of_q(k, steps):
    """The double `steps` ulps away from the double nearest k*Q."""
    with mpmath.workprec(PREC_BITS):
        x = float(k * mpmath.pi / 2)
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


def _tol(rng):
    return 10.0 ** rng.uniform(-17.0, -1.0)


def _cases():
    rng = random.Random(20261017)
    cases = []
    # log-uniform magnitudes from the smallest subnormal to 1e8, both signs
    for _ in range(2000):
        x = min(2.0 ** rng.uniform(-1074.0, math.log2(MAX_ARG)), MAX_ARG)
        cases.append((rng.choice((-1.0, 1.0)) * x, _tol(rng)))
    # subnormals and the edges of the normal range
    for x in (5e-324, 1e-320, 2.0 ** -1030, 2.2250738585072009e-308,
              2.2250738585072014e-308, 1e-300):
        cases.append((x, 1e-15))
        cases.append((-x, _tol(rng)))
    # the doubles nearest k*Q, +-3 ulps, k log-uniform up to 1e8/Q
    for _ in range(2000):
        k = round(2.0 ** rng.uniform(0.0, math.log2(K_MAX)))
        x = _near_multiple_of_q(k, rng.randint(-3, 3))
        cases.append((x, rng.choice((1e-15, _tol(rng)))))
    for k in (1, 2, 3, 4, K_MAX):
        for steps in range(-3, 4):
            cases.append((_near_multiple_of_q(k, steps), 1e-15))
    # around Q/2, where reduction starts
    for steps in range(-3, 4):
        cases.append((_near_multiple_of_q(0.5, steps), 1e-15))
    # the largest argument and the loosest and tightest tolerances
    cases += [(MAX_ARG, 1e-15), (-MAX_ARG, 1e-17), (3.0, 1e-1), (3.0, 1e-17)]
    return cases


CASES = _cases()


@pytest.mark.parametrize("evaluate,truth_fn", FUNCTIONS, ids=("sin", "cos"))
def test_bound_holds_over_the_input_contract(evaluate, truth_fn):
    violations = [(x, tol) for x, tol in CASES if _excess(evaluate, truth_fn, x, tol) > 0]
    assert violations == []


@pytest.mark.parametrize("evaluate,truth_fn", FUNCTIONS, ids=("sin", "cos"))
def test_tight_results_within_one_ulp_and_bound_within_two(evaluate, truth_fn):
    rng = random.Random(7)
    for _ in range(1000):
        x = rng.uniform(-math.pi, math.pi)
        cv = evaluate(x, 1e-15)
        truth = _truth(truth_fn, x)
        ulp = math.ulp(float(truth))
        with mpmath.workprec(PREC_BITS):
            assert abs(mpmath.mpf(cv.value) - truth) <= ulp
        assert cv.abs_error_bound <= 2.0 * ulp


def test_sin_of_small_argument_is_relatively_accurate():
    # one term of the series would give 1e-5 itself, 1.7e-11 off in
    # relative terms, yet within an absolute tol of 1e-15
    cv = sin_eval(1e-5, 1e-15)
    truth = _truth(mpmath.sin, 1e-5)
    with mpmath.workprec(PREC_BITS):
        assert abs(mpmath.mpf(cv.value) - truth) <= math.ulp(float(truth))
    assert cv.abs_error_bound <= 2.0 * math.ulp(float(truth))


def test_cos_next_to_its_zero_is_relatively_accurate():
    with mpmath.workprec(PREC_BITS):
        fl_q = float(mpmath.pi / 2)
    cv = cos_eval(fl_q, 1e-15)
    truth = _truth(mpmath.cos, fl_q)
    with mpmath.workprec(PREC_BITS):
        assert abs(mpmath.mpf(cv.value) - truth) <= math.ulp(float(truth))
    # the bound is k times the certified radius of Q (1e-30) and more, so
    # only relative to the result, not in ulps
    assert cv.abs_error_bound <= 1e-13 * abs(float(truth))


def test_bound_next_to_the_zero_of_cos_is_within_two_ulp():
    # the bound there is the split of Q plus its certified radius (1e-50),
    # both far below the 6.1e-17 result's ulp
    with mpmath.workprec(PREC_BITS):
        fl_q = float(mpmath.pi / 2)
    cv = cos_eval(fl_q, 1e-15)
    truth = _truth(mpmath.cos, fl_q)
    assert cv.abs_error_bound <= 2.0 * math.ulp(float(truth))
    with mpmath.workprec(PREC_BITS):
        assert abs(mpmath.mpf(cv.value) - truth) <= mpmath.mpf(cv.abs_error_bound)


def test_product_that_underflows_keeps_a_bound():
    p = CertifiedValue(1e-200, 0.0) * CertifiedValue(1e-200, 0.0)
    assert p.value == 0.0
    # the true product, 1e-400, must lie within the bound
    assert p.abs_error_bound > 0.0
    with mpmath.workprec(PREC_BITS):
        assert mpmath.mpf("1e-400") <= mpmath.mpf(p.abs_error_bound)


def _row_edge_cases():
    """Each row edge of the float kernel's degree tables, +-3 ulps: the
    arguments whose r**2 meets a leading-part-only row's largest z, as they
    are and reduced from next to Q, 2Q and 3Q; and the full rows' largest z,
    reached next to Q/2, 3Q/2 and 5Q/2."""
    xs = []
    for table in (series_kernel._SIN_TABLE, series_kernel._COS_TABLE):
        r = math.sqrt(table[0][0])
        for steps in range(-3, 4):
            xs.append(_steps(r, steps))
        for k in (1, 2, 3):
            with mpmath.workprec(PREC_BITS):
                x = float(k * mpmath.pi / 2 + r)
            xs += [_steps(x, steps) for steps in range(-3, 4)]
    for k in (0.5, 1.5, 2.5):
        xs += [_near_multiple_of_q(k, steps) for steps in range(-3, 4)]
    return [(sign * x, tol) for x in xs for sign in (1.0, -1.0) for tol in (1e-15, 1e-17, 1e-3)]


@pytest.mark.parametrize("evaluate,truth_fn", FUNCTIONS, ids=("sin", "cos"))
def test_bound_holds_at_the_degree_table_edges(evaluate, truth_fn):
    cases = _row_edge_cases()
    violations = [(x, tol) for x, tol in cases if _excess(evaluate, truth_fn, x, tol) > 0]
    assert violations == []
    for x, tol in cases:
        if abs(x) < 0.78:  # unreduced: within an ulp, the bound within two
            cv = evaluate(x, tol)
            truth = _truth(truth_fn, x)
            _, err_ulp = _ulp_error(cv.value, truth)
            assert err_ulp <= 1.0 and cv.abs_error_bound <= 2.0 * math.ulp(float(truth)), x


@pytest.mark.parametrize("evaluate,truth_fn", FUNCTIONS, ids=("sin", "cos"))
def test_top_of_the_unreduced_range_is_unbiased(evaluate, truth_fn):
    """2,000 seeded x on [0.70, 0.785], below Q/2, where z is largest and the
    Horner's last coefficient weighs most: every error within 0.8 ulp and the
    mean signed error within 0.08 ulp.  The bound's u|value| term hides a
    dropped s_8 (mean -0.14 ulp, max 0.97); these two do not."""
    rng = random.Random(f"top-of-range:{evaluate.__name__}")
    errs = []
    for _ in range(2000):
        x = rng.uniform(0.70, 0.785)
        truth = _truth(truth_fn, x)
        with mpmath.workprec(PREC_BITS):
            err = mpmath.mpf(evaluate(x, 1e-15).value) - truth
        errs.append(float(err) / math.ulp(float(truth)))
    assert max(map(abs, errs)) <= 0.8
    assert abs(statistics.fmean(errs)) <= 0.08


# --- cosine's constant row ----------------------------------------------

def _reduced(x, shift):
    """(r, r_lo, red_err, quadrant) of x, restated from the kernel's general
    reduction: k from int and float, its Cody-Waite products and two_sum."""
    sk = series_kernel
    half_q, _, _, _, (inv_q, q1, q2, q3, k_err, quadrants) = sk._reduction or sk._bind_reduction()
    ax = abs(x)
    if ax <= half_q:
        return ax, 0.0, 0.0, quadrants[shift]
    ki = int(ax * inv_q + 0.5)
    k = float(ki)
    s, e = two_sum(ax - k * q1, -(k * q2))
    p = k * q3
    r, r_lo = two_sum(s, e - p)
    return r, r_lo, k * k_err + sk._U * (abs(p) + abs(e - p)), quadrants[(ki + shift) & 3]


def _cosine_row_zero(x, shift):
    """(value, bound, r_lo, z) of row 0 of the cosine series at x, restated
    from the kernel's parts: its reduction, two_prod, Fast2Sum and _COS_K0."""
    sk = series_kernel
    r, r_lo, red_err, (use_cos, _) = _reduced(x, shift)
    assert use_cos  # the cosine series
    z, zl = two_prod(r, r)
    h = 0.5 * z
    lead = 1.0 - h
    val = lead + (((1.0 - lead) - h - 0.5 * zl) - r_lo * r)
    bound = (sk._COS_K0 * z * z + 0.081 * abs(r_lo) + red_err + sk._U * abs(val)
             + sk._UNDERFLOW) * sk._ROUND_UP
    return val, bound, r_lo, z


def _constant_row_cases():
    """(evaluate, truth, shift, x) for x within 3 ulps of cosine's constant-row
    edge r = 2**-27, as it is (cos_eval) and next to k*Q + r and k*Q - r, odd k
    for sin_eval and even k >= 2 for cos_eval; each x at both signs."""
    edge_r = math.sqrt(series_kernel._COS_Z_ONE)
    xs = [(cos_eval, mpmath.cos, 1, _steps(edge_r, steps)) for steps in range(-3, 4)]
    for evaluate, truth_fn, shift, ks in ((sin_eval, mpmath.sin, 0, (1, 3, 5)),
                                          (cos_eval, mpmath.cos, 1, (2, 4, 6))):
        for k in ks:
            for r in (edge_r, -edge_r):
                with mpmath.workprec(PREC_BITS):
                    x = float(k * mpmath.pi / 2 + r)
                xs += [(evaluate, truth_fn, shift, _steps(x, steps)) for steps in range(-3, 4)]
    return [(e, t, shift, sign * x) for e, t, shift, x in xs for sign in (1.0, -1.0)]


def test_cosine_constant_row_gives_row_zeros_value_and_bound():
    cases = _constant_row_cases()
    taken = 0
    for evaluate, truth_fn, shift, x in cases:
        cv = evaluate(x, 1e-15)
        val, bound, r_lo, z = _cosine_row_zero(x, shift)
        assert abs(cv.value) == 1.0 == val, x
        assert cv.abs_error_bound == bound, x
        assert _excess(evaluate, truth_fn, x, 1e-15) <= 0, x
        assert r_lo != 0.0 or abs(x) < 1.0, x  # reduced points carry a low part
        taken += z <= series_kernel._COS_Z_ONE
    assert 0 < taken < len(cases)  # the points lie on both sides of the edge


def _cosine_row_zero_cases():
    """(evaluate, shift, x) for about 500 seeded x = k*Q + r, k log-uniform
    up to 6.3e7 (odd for sin_eval, even for cos_eval, so the cosine series
    runs), |r| log-uniform in (2**-27, 1e-4] so that z lies in cosine's row 0
    above its constant row, and both signs of r and of x."""
    rng = random.Random(20261019)
    q = shared_table().q_exact
    cases = []
    for evaluate, shift, parity in ((sin_eval, 0, 1), (cos_eval, 1, 0)):
        for _ in range(125):
            k = int(math.exp(rng.uniform(0.0, math.log(6.3e7))))
            k += (k - parity) % 2
            r = math.copysign(math.exp(rng.uniform(math.log(2.0 ** -27), math.log(1e-4))),
                              rng.choice((1.0, -1.0)))
            x = float(k * q + Fraction(r))
            cases += [(evaluate, shift, x), (evaluate, shift, -x)]
    return cases


def _reduced_constant_row_cases():
    """(evaluate, truth, shift, x) for about 1,000 seeded x = k*Q + r, k
    log-uniform up to 6.3e7 (odd for sin_eval, even for cos_eval, so the
    cosine series runs), |r| log-uniform in [2**-60, 2**-27] at either sign,
    so that z mostly lies in cosine's constant row, and both signs of x."""
    rng = random.Random(20261020)
    q = shared_table().q_exact
    cases = []
    for evaluate, truth_fn, shift, parity in ((sin_eval, mpmath.sin, 0, 1),
                                              (cos_eval, mpmath.cos, 1, 0)):
        for _ in range(250):
            k = int(math.exp(rng.uniform(0.0, math.log(6.3e7))))
            k += (k - parity) % 2
            r = math.copysign(2.0 ** rng.uniform(-60.0, -27.0), rng.choice((1.0, -1.0)))
            x = float(k * q + Fraction(r))
            cases += [(evaluate, truth_fn, shift, x), (evaluate, truth_fn, shift, -x)]
    return cases


def test_reduced_constant_row_matches_the_restated_kernel():
    # _restated_eval keeps cosine's constant row, z <= 2**-54 giving (1, row 0's
    # bound) before two_prod, as the reference for the reduced path at every k
    cases = _reduced_constant_row_cases()
    taken = 0
    for evaluate, truth_fn, shift, x in cases:
        cv = evaluate(x, 1e-15)
        assert (cv.value, cv.abs_error_bound) == _restated_eval(x, shift), x
        assert abs(cv.value) == 1.0, x
        assert _excess(evaluate, truth_fn, x, 1e-15) <= 0, x
        r = _reduced(x, shift)[0]
        taken += r * r <= series_kernel._COS_Z_ONE
    assert taken >= 0.9 * len(cases)  # most points reach the constant row


def test_inline_two_sum_matches_the_library_two_sum_bit_for_bit():
    # the kernel writes Knuth's TwoSum out; _cosine_row_zero restates the reduction
    # with doubledouble.two_sum, so equal values and bounds pin r, r_lo and
    # red_err across the whole range of k.  With |r| this small, t - w is
    # exact, so the first TwoSum's error term is 0 here; the mpmath bound
    # tests above see a wrong one at large |r|
    cases = _cosine_row_zero_cases()
    above = 0
    for evaluate, shift, x in cases:
        cv = evaluate(x, 1e-15)
        val, bound, _, z = _cosine_row_zero(x, shift)
        assert abs(cv.value) == val, x
        assert cv.abs_error_bound == bound, x
        assert z <= series_kernel._COS_Z0, x
        above += z > series_kernel._COS_Z_ONE
    assert above >= 0.9 * len(cases)  # most points are past the constant row


# --- k = 1 and 2 from the reduction's table --------------------------------

def _nearest_k(ax):
    """The nearest-k formula of the kernel's general path, int(|x| * inv_q + 0.5)."""
    sk = series_kernel
    inv_q = (sk._reduction or sk._bind_reduction())[4][0]
    return int(ax * inv_q + 0.5)


def test_table_edges_are_where_the_nearest_k_formula_switches():
    half_q, edge2, edge3, _, _ = series_kernel._reduction or series_kernel._bind_reduction()
    assert _nearest_k(math.nextafter(half_q, math.inf)) == 1
    for k, edge in ((2, edge2), (3, edge3)):
        assert _nearest_k(edge) == k
        assert _nearest_k(math.nextafter(edge, 0.0)) == k - 1


_SIN_COEFFS = [(-1) ** n / math.factorial(2 * n + 1) for n in range(1, 9)]
_COS_COEFFS = [(-1) ** n / math.factorial(2 * n) for n in range(2, 9)]


def _horner(coeffs, z):
    """c_0 + z (c_1 + ... + z c_n), rounded in the kernel's written-out order."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = c + z * acc
    return acc


def _restated_eval(x, shift):
    """(value, bound) of sin_eval (shift 0) or cos_eval (shift 1) at x,
    restated from the kernel's parts on _reduced's general reduction."""
    sk = series_kernel
    r, r_lo, red_err, (use_cos, sign) = _reduced(x, shift)
    z = r * r
    if use_cos:
        if z <= sk._COS_Z_ONE:
            val, k = 1.0, sk._COS_K0
        else:
            z, zl = two_prod(r, r)
            h = 0.5 * z
            lead = 1.0 - h
            low = ((1.0 - lead) - h - 0.5 * zl) - r_lo * r
            if z <= sk._COS_Z0:
                val, k = lead + low, sk._COS_K0
            else:
                val, k = lead + (low + z * z * _horner(_COS_COEFFS, z)), sk._COS_K
        m, c_lo = z, 0.081
    else:
        if z <= sk._SIN_Z0:
            val, k = r, sk._SIN_K0
        else:
            val = r + (r * z * _horner(_SIN_COEFFS, z) + r_lo * (1.0 - 0.5 * z))
            k = sk._SIN_K
        m, c_lo = abs(r), 0.016
    bound = (k * m * z + c_lo * abs(r_lo) + red_err + sk._U * abs(val)
             + sk._UNDERFLOW) * sk._ROUND_UP
    if shift == 0 and x < 0.0:
        sign = -sign
    return val if sign > 0 else -val, bound


def _table_edge_points():
    """Every double within 64 ulps of Q/2's edge, edge2 and edge3, at both signs."""
    half_q, edge2, edge3, _, _ = series_kernel._reduction or series_kernel._bind_reduction()
    return [sign * _steps(edge, steps) for edge in (half_q, edge2, edge3)
            for steps in range(-64, 65) for sign in (1.0, -1.0)]


def test_table_reduction_matches_the_general_reduction_bit_for_bit():
    rng = random.Random(20261020)
    q = shared_table().q
    xs = _table_edge_points()
    xs += [sign * rng.uniform(q / 2, 2.5 * q) for _ in range(2000) for sign in (1.0, -1.0)]
    for x in xs:
        for evaluate, shift in ((sin_eval, 0), (cos_eval, 1)):
            cv = evaluate(x, 1e-15)
            assert (cv.value, cv.abs_error_bound) == _restated_eval(x, shift), x
    assert {_nearest_k(abs(x)) for x in xs} == {0, 1, 2, 3}


@pytest.mark.parametrize("evaluate,truth_fn", FUNCTIONS, ids=("sin", "cos"))
def test_bound_holds_at_the_table_edges(evaluate, truth_fn):
    violations = [x for x in _table_edge_points() if _excess(evaluate, truth_fn, x, 1e-15) > 0]
    assert violations == []


# --- the tiny row: sin x = x and cos x = 1 before the reduction -----------

def _sine_row_zero(x):
    """(value, bound, z) of row 0 of the sine series at an unreduced x, restated
    from the kernel's parts: r = |x| with no low part and no reduction error,
    _SIN_K0, and the sign of x."""
    sk = series_kernel
    half_q, *_, (*_, quadrants) = sk._reduction or sk._bind_reduction()
    r, r_lo, red_err = abs(x), 0.0, 0.0
    assert r <= half_q and quadrants[0] == (False, 1)  # the sine series, unreduced
    z = r * r
    bound = (sk._SIN_K0 * r * z + 0.016 * abs(r_lo) + red_err + sk._U * r
             + sk._UNDERFLOW) * sk._ROUND_UP
    return math.copysign(r, x), bound, z


def _tiny_row_points():
    """Nonzero x at both signs: 3 ulps either side of the row's edge, the
    smallest subnormal and normal, and 2**(e/4) across [2**-1074, 2**-20]."""
    edge = series_kernel._ROW0_EDGE
    xs = [_steps(edge, steps) for steps in range(-3, 4)]
    xs += [5e-324, 2.2250738585072014e-308] + [2.0 ** (e / 4) for e in range(-4296, -79)]
    return [sign * x for x in xs for sign in (1.0, -1.0)]


def test_tiny_row_gives_row_zeros_value_and_bound():
    taken = {0: 0, 1: 0}
    for x in _tiny_row_points():
        cv = sin_eval(x, 1e-15)
        val, bound, z = _sine_row_zero(x)
        if z <= series_kernel._SIN_Z0:  # past it sine leaves row 0 for the Horner row
            assert (cv.value, cv.abs_error_bound) == (val, bound), x
            assert math.copysign(1.0, cv.value) == math.copysign(1.0, x), x
        assert series_kernel._sin_value(abs(x)) == sin_eval(abs(x), 1e-15).value, x
        cv = cos_eval(x, 1e-15)
        val, bound, _, z = _cosine_row_zero(x, 1)
        assert (cv.value, cv.abs_error_bound) == (val, bound), x
        for evaluate, truth_fn in FUNCTIONS:
            assert _excess(evaluate, truth_fn, x, 1e-15) <= 0, x
        taken[abs(x) <= series_kernel._ROW0_EDGE] += 1
    assert taken[0] > 0 and taken[1] > 0  # the points lie on both sides of the edge


@pytest.mark.parametrize("x", [0.0, -0.0])
def test_tiny_row_keeps_zero_exact(x):
    for evaluate, truth_fn, value in ((sin_eval, mpmath.sin, x), (cos_eval, mpmath.cos, 1.0)):
        cv = evaluate(x, 1e-15)
        assert (cv.value, cv.abs_error_bound) == (value, 0.0)
        assert math.copysign(1.0, cv.value) == math.copysign(1.0, value)
        assert _excess(evaluate, truth_fn, x, 1e-15) <= 0


def test_tiny_row_edge_is_the_last_x_whose_square_reaches_cosines_constant_row():
    edge, z_one = series_kernel._ROW0_EDGE, series_kernel._COS_Z_ONE
    assert edge == 2.0 ** -27
    assert edge * edge <= z_one < math.nextafter(edge, 1.0) ** 2
    assert z_one < series_kernel._SIN_Z0  # so sine's row 0 holds across the row too


def test_tiny_row_reads_no_reduction(monkeypatch, capsys):
    from geomfree import constants
    from geomfree.cli import main

    class Bound(Exception):
        pass

    def bind():
        raise Bound

    monkeypatch.setattr(series_kernel, "_reduction", None)
    monkeypatch.setattr(series_kernel, "_bind_reduction", bind)
    monkeypatch.setattr(constants, "shared_table", bind)
    assert sin_eval(1e-10, 1e-15).value == 1e-10
    assert cos_eval(-2.0 ** -27, 1e-15).value == 1.0
    assert main(["eval", "sin", "1e-10"]) == 0
    assert capsys.readouterr().out.startswith("1e-10 ")
    with pytest.raises(Bound):
        sin_eval(math.nextafter(2.0 ** -27, 1.0), 1e-15)


# --- arcsin_newton and unit_circle_point --------------------------------

SQRT_HALF = 0.7071067811865476


def _steps(x, steps):
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


def _arcsin_cases():
    rng = random.Random(20261018)
    cases = [(rng.uniform(-1.0, 1.0), _tol(rng)) for _ in range(4000)]
    # +-3 ulps around +-sqrt(2)/2, where the reflected branch begins
    for sign in (-1.0, 1.0):
        for steps in range(-3, 4):
            cases.append((sign * _steps(SQRT_HALF, steps), _tol(rng)))
    for x in (1.0, -1.0, 0.0, 5e-324, -5e-324, 1e-320, 2.2250738585072014e-308,
              1e-300, -1e-300):
        cases.append((x, 1e-15))
        cases.append((x, _tol(rng)))
    cases += [(0.5, 1e-17), (0.5, 1e-1), (0.9, 1e-17), (0.9, 1e-1)]
    # +-3 ulps around a reflected x that was 2.25 ulps off while Q was
    # subtracted as one float
    cases += [(_steps(-0.7111387726465555, steps), 1e-15) for steps in range(-3, 4)]
    return cases


ARCSIN_CASES = _arcsin_cases()


def _ulp_error(value, truth):
    with mpmath.workprec(PREC_BITS):
        err = abs(mpmath.mpf(value) - truth)
    return err, float(err) / math.ulp(float(truth))


def test_arcsin_bound_holds_and_stays_within_ulps():
    violations, worst, bounds = [], 0.0, []
    for x, tol in ARCSIN_CASES:
        cv = arcsin_newton(x, tol)
        truth = _truth(mpmath.asin, x)
        err, err_ulp = _ulp_error(cv.value, truth)
        if err > cv.abs_error_bound:
            violations.append((x, tol))
        worst = max(worst, err_ulp)
        if truth != 0:
            bounds.append(cv.abs_error_bound / math.ulp(float(truth)))
    assert violations == []
    assert worst <= 2.0
    assert statistics.median(bounds) <= 1.1


def test_unit_circle_point_reproduces_the_point():
    q_err = shared_table().q_float_err
    for a, _ in ARCSIN_CASES:
        cs, sn, s = unit_circle_point(a)
        inv = arcsin_newton(a, 1e-14)
        s_err = inv.abs_error_bound + q_err + 2.0 ** -53 * abs(s)
        with mpmath.workprec(PREC_BITS):
            ma = mpmath.mpf(a)
            assert abs(mpmath.mpf(s) - mpmath.acos(ma)) <= s_err
            # cos and sin are 1-Lipschitz; each kernel bound is <= 4u here
            assert abs(mpmath.mpf(cs) - ma) <= s_err + 2.0 ** -51
            assert abs(mpmath.mpf(sn) - mpmath.sqrt(1 - ma * ma)) <= s_err + 2.0 ** -51


def test_arcsin_makes_one_certified_sine_call(monkeypatch):
    calls = []

    def counting(name, fn):
        def wrapped(*args):
            calls.append(name)
            return fn(*args)
        return wrapped

    monkeypatch.setattr(analysis, "sin_eval", counting("sin", sin_eval))
    monkeypatch.setattr(analysis, "cos_eval", counting("cos", cos_eval))
    for x in (0.1, 0.3, -0.5, 0.7, 0.9, -0.99):  # both branches
        calls.clear()
        arcsin_newton(x, 1e-15)
        assert calls == ["sin"], x


# --- adversarial upstream values: a bound built on a certified value must hold
# for every value in that value's interval, not only for the kernel's own


def _exact(fn):
    """x -> fn(x) at PREC_BITS as an exact rational, for oracles.adversary."""
    def truth(x):
        with mpmath.workprec(PREC_BITS):
            t = fn(mpmath.mpf(x))
            m, e = abs(t).man_exp
        return (-1 if t < 0 else 1) * Fraction(m) * Fraction(2) ** e
    return truth


def _adversary_xs():
    """Seeded x: uniform on [-1, 1], next to the sqrt(2)/2 split, and on the
    reflected branch, each with both signs."""
    rng = random.Random(20261021)
    xs = [rng.uniform(-1.0, 1.0) for _ in range(1000)]
    xs += [rng.choice((-1.0, 1.0)) * rng.uniform(0.69, 0.73) for _ in range(1000)]
    xs += [rng.choice((-1.0, 1.0)) * rng.uniform(SQRT_HALF, 1.0) for _ in range(1500)]
    return xs


ADVERSARY_XS = _adversary_xs()


@pytest.mark.parametrize("side", [1, -1])
def test_arcsin_bound_holds_for_every_sine_the_kernel_certifies(monkeypatch, side):
    monkeypatch.setattr(analysis, "sin_eval", adversary(sin_eval, _exact(mpmath.sin), side))
    violations = []
    for x in ADVERSARY_XS:
        cv = arcsin_newton(x, 1e-15)
        with mpmath.workprec(PREC_BITS):
            if abs(mpmath.mpf(cv.value) - mpmath.asin(mpmath.mpf(x))) > cv.abs_error_bound:
                violations.append(x)
    assert violations == []


@pytest.mark.parametrize("arcsin_side, kernel_side", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
def test_unit_circle_point_holds_for_every_value_its_inputs_certify(
        monkeypatch, arcsin_side, kernel_side):
    # arcsin is pushed to the edge of its bound, and so are the sine and
    # cosine of the arc length and the sine inside arcsin itself
    tbl = shared_table()
    pushed_arcsin = adversary(arcsin_newton, _exact(mpmath.asin), arcsin_side)
    monkeypatch.setattr(analysis, "arcsin_newton", pushed_arcsin)
    monkeypatch.setattr(analysis, "sin_eval", adversary(sin_eval, _exact(mpmath.sin), kernel_side))
    monkeypatch.setattr(analysis, "cos_eval", adversary(cos_eval, _exact(mpmath.cos), kernel_side))
    for a in ADVERSARY_XS[::7]:
        cs, sn, s = unit_circle_point(a)  # raises AssertionError if a check fails
        arc, s_err = CertifiedValue(tbl.q, tbl.q_float_err) - pushed_arcsin(a, 1e-14)
        assert arc == s
        with mpmath.workprec(PREC_BITS):
            ma = mpmath.mpf(a)
            assert abs(mpmath.mpf(s) - mpmath.acos(ma)) <= s_err
            assert abs(mpmath.mpf(cs) - ma) <= s_err + 2.0 ** -51
            assert abs(mpmath.mpf(sn) - mpmath.sqrt(1 - ma * ma)) <= s_err + 2.0 ** -51


def test_quadrature_estimate_covers_its_true_error():
    res = arcsin_quadrature(0.9, 1e-15)
    truth = _truth(mpmath.asin, 0.9)
    with mpmath.workprec(PREC_BITS):
        assert abs(mpmath.mpf(res.value) - truth) <= mpmath.mpf(res.est_error)


# --- bit identity: every result against a recorded digest ------------------

# sha256 of the packed struct '<dd' (value, bound) pairs that _kernel_digest
# reads, for sin_eval and cos_eval (KERNEL_DIGEST) and for arcsin_newton
# (ARCSIN_DIGEST).  Update one only in a change that alters those results on
# purpose, and say so in CHANGES.md; a change meant to keep them must leave
# it alone.
KERNEL_DIGEST = "101bf78e934d43fb55b5d44c95e93a2152dc55f410469fe9fa6162adf6a59b81"
ARCSIN_DIGEST = "22b84974af5d3bb431ec67c1c90b83b1d98ab5776a4782b396ed650d58a58edd"


def _kernel_digest_points():
    """(function, x, tol): about 40k seeded calls of sin_eval and cos_eval at
    each of x uniform on [-pi, pi], |x| log-uniform from 2**-1074 to 1e8 with
    both signs, and the doubles within 3 ulps of k*Q, plus arcsin_newton at x
    uniform on [-1, 1]; tol is 10**uniform(-17, -3) throughout."""
    rng = random.Random(20261020)
    q = shared_table().q_exact
    xs = [0.0, -0.0]
    xs += [rng.uniform(-math.pi, math.pi) for _ in range(6500)]
    lo, hi = math.log(2.0 ** -1074), math.log(MAX_ARG)
    xs += [rng.choice((1.0, -1.0)) * min(math.exp(rng.uniform(lo, hi)), MAX_ARG)
           for _ in range(6500)]
    for _ in range(800):
        x = float(rng.randint(1, K_MAX) * q)
        for _ in range(3):
            x = math.nextafter(x, -math.inf)
        for _ in range(7):
            xs.append(x)
            x = math.nextafter(x, math.inf)
    calls = [(f, x, 10.0 ** rng.uniform(-17.0, -3.0)) for x in xs for f in (sin_eval, cos_eval)]
    calls += [(arcsin_newton, rng.uniform(-1.0, 1.0), 10.0 ** rng.uniform(-17.0, -3.0))
              for _ in range(4000)]
    return calls


def _kernel_digest(calls):
    pack = struct.Struct("<dd").pack
    return hashlib.sha256(b"".join(pack(*f(x, tol)) for f, x, tol in calls)).hexdigest()


def test_kernel_outputs_match_the_recorded_digest():
    calls = [call for call in _kernel_digest_points() if call[0] is not arcsin_newton]
    assert len(calls) >= 36000
    assert _kernel_digest(calls) == KERNEL_DIGEST


def test_arcsin_outputs_match_the_recorded_digest():
    calls = [call for call in _kernel_digest_points() if call[0] is arcsin_newton]
    assert len(calls) == 4000
    assert _kernel_digest(calls) == ARCSIN_DIGEST
