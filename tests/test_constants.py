"""Tests for the certified derivation of Q and pi."""

import math
import random
from fractions import Fraction

import mpmath
import pytest

from geomfree import constants, series_kernel
from geomfree.constants import (
    _certified_bisection,
    _certified_sign,
    find_q,
    pi_value,
    q_multiples_table,
    shared_table,
)
from geomfree.errors import InvalidTolerance
from geomfree.series_kernel import cos_eval, sin_eval

from oracles import PI_REF, Q_REF, bisect_q_oracle, cos_enclosure, cos_sign_oracle


class TestFindQ:
    def test_q_matches_oracle(self):
        tbl = find_q(1e-13)
        assert abs(tbl.q - Q_REF) <= 1e-13
        assert abs(2.0 * tbl.q - PI_REF) <= 5e-13

    def test_independent_bisection_oracle_agrees(self):
        mine = find_q(1e-13)
        oracle = bisect_q_oracle(Fraction(1, 10 ** 15))
        assert abs(mine.q - float(oracle)) <= 1e-13

    def test_initial_bracket_signs(self):
        assert _certified_sign(Fraction(0)) > 0
        assert _certified_sign(Fraction(2)) < 0

    def test_q_strictly_inside(self):
        tbl = find_q(1e-10)
        assert 0.0 < tbl.q < 2.0

    def test_pi_is_exactly_twice_q(self):
        tbl = find_q(1e-12)
        assert tbl.pi == 2.0 * tbl.q

    def test_certified_bound(self):
        tbl = find_q(1e-13)
        assert 0.0 < tbl.certified_bound <= 5e-14
        # cos really does change sign across [q - bound, q + bound]
        lo = Fraction(tbl.q) - Fraction(tbl.certified_bound)
        hi = Fraction(tbl.q) + Fraction(tbl.certified_bound)
        assert cos_sign_oracle(lo) > 0
        assert cos_sign_oracle(hi) < 0

    def test_tolerance_floor(self):
        with pytest.raises(InvalidTolerance):
            find_q(1e-16)
        with pytest.raises(InvalidTolerance):
            find_q(0.0)

    def test_sin_q_within_bounds(self):
        tbl = find_q(1e-13)
        cv = sin_eval(tbl.q, 1e-15)
        assert abs(cv.value - 1.0) <= cv.abs_error_bound + tbl.q_float_err


class TestPolishedQ:
    @pytest.mark.parametrize("tol", [1e-15, 1e-13, 1e-10, 1e-5])
    def test_q_exact_is_the_nearest_2_pow_minus_200_dyadic(self, tol):
        with mpmath.workprec(400):
            nearest = int(mpmath.nint(mpmath.pi / 2 * mpmath.mpf(2) ** 200))
        assert find_q(tol).q_exact == Fraction(nearest, 2 ** 200)

    @pytest.mark.parametrize("tol", [0.1, 1.0, 3.0, 100.0])
    def test_both_radii_bracket_q_at_loose_tolerances(self, tol):
        tbl = find_q(tol)
        for radius in (tbl.refined_radius, tbl.certified_bound):
            r = Fraction(radius)
            assert cos_sign_oracle(tbl.q_exact - r) > 0
            assert cos_sign_oracle(tbl.q_exact + r) < 0


def fraction_polish(tol):
    """find_q's Newton polish in plain Fractions, on the oracle's cosine sum:
    (q_exact, steps) from the midpoint of the oracle's bisection at tol."""
    width = Fraction(2)
    while width > Fraction(tol):
        width /= 2
    unit = Fraction(1, 2 ** 200)
    steps, e = 1, width / 2
    while e ** 3 / 6 > unit:
        steps, e = steps + 1, e ** 3 / 6 + unit
    y = bisect_q_oracle(tol)
    for _ in range(steps):
        c, _ = cos_enclosure(y, 40)
        y = Fraction(round((y + c) * 2 ** 200), 2 ** 200)
    return y, steps


class TestTablePinned:
    """The table, field for field, so that a drift fails here rather than
    shifting the kernel's bounds."""

    @pytest.mark.parametrize("tol", [0.1, 1, 3, 100])
    def test_q_exact_is_the_fraction_polish_at_loose_tolerances(self, tol):
        # at these tolerances the polish stops short of the nearest dyadic
        assert find_q(tol).q_exact == fraction_polish(tol)[0]

    def test_float_fields_of_the_shared_tolerance(self):
        tbl = find_q(1e-13)
        assert (tbl.q, tbl.pi, tbl.certified_bound, tbl.refined_radius, tbl.q_float_err,
                tbl.four_q_dd, tbl.four_q_err, tbl.bisection_iterations) == (
            1.5707963267948966, 3.141592653589793, 5e-14, 1e-50, 6.12323400186e-17,
            (6.283185307179586, 2.4492935982947064e-16), 5.98953962542622e-33, 45)

    def test_reduction_constants(self):
        quadrants = ((False, 1), (True, 1), (False, -1), (True, -1))
        k1 = (1.570796325802803, -9.920935739593517e-10, 5.721188726109832e-18,
              5.721188726109832e-18, 4.335905065061899e-35)
        k2 = (3.141592651605606, -1.9841871479187034e-09, 1.1442377452219664e-17,
              1.1442377452219664e-17, 8.671810130123798e-35)
        assert series_kernel._bind_reduction() == (
            0.7853981633974482, 2.356194490192345, 3.9269908169872414,
            ((quadrants[0], k1 + (quadrants[1],), k2 + (quadrants[2],)),
             (quadrants[1], k1 + (quadrants[2],), k2 + (quadrants[3],))),
            (0.6366197723675814, 1.570796325802803, 9.920935739593517e-10,
             5.721188726109832e-18, 4.335905065061899e-35, quadrants))


class TestCertificatePoints:
    def test_sign_calls_polish_calls_and_the_dyadic_certificate(self, monkeypatch):
        signs, core_calls, cos_calls = [], [], []
        real_sign, real_core, real_cos = (
            constants._certified_sign, constants._series_sum, constants.cos_eval_exact)

        def sign(x, or_zero=False):
            signs.append((x, real_sign(x, or_zero)))
            return signs[-1][1]

        def core(*args):
            core_calls.append(args)
            return real_core(*args)

        def cos(*args, **kwargs):
            cos_calls.append(args)
            return real_cos(*args, **kwargs)

        monkeypatch.setattr(constants, "_certified_sign", sign)
        monkeypatch.setattr(constants, "_series_sum", core)
        monkeypatch.setattr(constants, "cos_eval_exact", cos)
        tbl = find_q(1e-13)
        # 2 initial bracket signs, 45 bisection steps, 2 certificate points
        assert len(signs) == 2 + 45 + 2
        (below, s_below), (above, s_above) = signs[-2:]
        rho = tbl.q_exact - below
        assert above - tbl.q_exact == rho
        assert rho.numerator == 1 and rho.denominator & (rho.denominator - 1) == 0
        assert rho <= Fraction(tbl.refined_radius)
        assert (s_below, s_above) == (cos_sign_oracle(below), cos_sign_oracle(above)) == (1, -1)
        # the polish runs on the integer core only: every cos_eval_exact is a sign
        assert len(core_calls) == fraction_polish(1e-13)[1] == 2
        assert len(cos_calls) == len(signs)


class TestBisectionInvariants:
    def test_bracket_signs_every_step(self, monkeypatch):
        signs = []
        real_sign = constants._certified_sign

        def sign(x, or_zero=False):
            signs.append((x, real_sign(x, or_zero)))
            return signs[-1][1]

        monkeypatch.setattr(constants, "_certified_sign", sign)
        lo, hi, iterations = _certified_bisection(1e-6)
        assert signs[:2] == [(0, 1), (2, -1)]
        assert len(signs) == 2 + iterations
        # one midpoint per step, certified as the oracle signs it; replaying
        # the signs halves the bracket and ends at (lo, hi)
        a, b = Fraction(0), Fraction(2)
        for x, s in signs[2:]:
            assert x == (a + b) / 2
            assert s == cos_sign_oracle(x)
            a, b = (x, b) if s > 0 else (a, x)
        assert (a, b) == (lo, hi)
        assert hi - lo <= 1e-6

    def test_iteration_count_bound(self):
        for tol in (1e-6, 1e-10, 1e-13):
            _, _, iterations = _certified_bisection(tol)
            assert iterations <= math.ceil(math.log2(2.0 / tol))


class TestQMultiples:
    def test_exact_table(self):
        assert q_multiples_table() == (
            (0, 0, 1),
            (1, 1, 0),
            (2, 0, -1),
            (3, -1, 0),
            (4, 0, 1),
        )

    def test_entries_are_ints(self):
        for k, s, c in q_multiples_table():
            assert isinstance(s, int) and isinstance(c, int)

    def test_float_evaluation_agrees(self):
        tbl = shared_table()
        for k, s, c in tbl.q_multiples:
            sv = sin_eval(k * tbl.q, 1e-15)
            cvv = cos_eval(k * tbl.q, 1e-15)
            arg_slack = k * tbl.q_float_err + 4e-16
            assert abs(sv.value - s) <= sv.abs_error_bound + arg_slack
            assert abs(cvv.value - c) <= cvv.abs_error_bound + arg_slack


class TestPiValue:
    def test_value(self):
        assert abs(pi_value() - PI_REF) <= 2e-13

    def test_cos_pi_is_minus_one(self):
        cv = cos_eval(pi_value(), 1e-12)
        assert abs(cv.value - (-1.0)) <= cv.abs_error_bound + 1e-13

    def test_shared_table_is_cached(self):
        assert shared_table() is shared_table()


class TestRangeReductionConstants:
    def test_four_q_double_double(self):
        tbl = shared_table()
        hi, lo = tbl.four_q_dd
        # hi + lo reproduces 4*q_exact to well past double precision
        err = abs(Fraction(hi) + Fraction(lo) - 4 * tbl.q_exact)
        assert float(err) <= tbl.four_q_err
        assert tbl.four_q_err < 1e-28

    def test_refined_radius_certified(self):
        tbl = shared_table()
        r = Fraction(tbl.refined_radius)
        assert cos_sign_oracle(tbl.q_exact - r) > 0
        assert cos_sign_oracle(tbl.q_exact + r) < 0


class TestIncrementalSign:
    def test_agrees_with_the_fixed_order_oracle(self):
        rng = random.Random(31)
        for _ in range(200):
            x = Fraction(rng.randrange(1, 2 ** 40), 2 ** 39)  # in (0, 2)
            if abs(x - Fraction(Q_REF)) > Fraction(1, 10 ** 6):
                assert _certified_sign(x) == cos_sign_oracle(x)

    def test_undecidable_point_gives_zero_when_asked(self, monkeypatch):
        from geomfree import constants as constants_mod
        monkeypatch.setattr(constants_mod, "_MAX_TERMS", 8)
        assert _certified_sign(shared_table().q, or_zero=True) == 0
