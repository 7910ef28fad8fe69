"""Tests for the certified sine/cosine kernel and the exact evaluators."""

import math
import operator
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from geomfree import series_kernel
from geomfree.constants import shared_table
from geomfree.errors import DomainError, InvalidTolerance
from geomfree.series_kernel import (
    CertifiedValue,
    _agree,
    _sin_value,
    cos_eval,
    cos_eval_exact,
    ode_coefficients,
    sin_eval,
    sin_eval_exact,
)

from oracles import (COS_2, SIN_1, cos_enclosure, cos_oracle, degree_table_oracle,
                     series_enclosures, sin_enclosure, sin_oracle)


class TestOdeCoefficients:
    def test_first_four(self):
        c = ode_coefficients(4)
        assert list(c) == [0, 1, 0, Fraction(-1, 6)]

    def test_c5_and_c7(self):
        c = ode_coefficients(8)
        assert c[5] == Fraction(1, 120)
        assert c[7] == Fraction(-1, 5040)

    def test_initial_conditions_only(self):
        assert list(ode_coefficients(2)) == [0, 1]

    def test_integer_recursion_gives_the_closed_form(self):
        c = ode_coefficients(201)
        assert type(c) is tuple
        assert all(type(v) is Fraction for v in c)
        assert list(c) == [Fraction((-1) ** (n // 2), math.factorial(n)) if n % 2 else 0
                           for n in range(201)]

    def test_recursion_invariant(self):
        c = ode_coefficients(60)
        for n in range(58):
            assert (n + 2) * (n + 1) * c[n + 2] + c[n] == 0

    def test_closed_form(self):
        c = ode_coefficients(41)
        for n in range(20):
            assert c[2 * n] == 0
            assert c[2 * n + 1] == Fraction((-1) ** n, math.factorial(2 * n + 1))

    def test_count_too_small(self):
        with pytest.raises(ValueError):
            ode_coefficients(1)


class TestSinEval:
    def test_zero(self):
        cv = sin_eval(0.0, 1e-15)
        assert cv.value == 0.0
        assert cv.abs_error_bound <= 1e-15

    def test_sin_one(self):
        cv = sin_eval(1.0, 1e-15)
        assert cv.value == SIN_1
        assert cv.abs_error_bound <= 1e-15

    def test_sin_q_is_one(self):
        tbl = shared_table()
        cv = sin_eval(tbl.q, 1e-15)
        assert abs(cv.value - 1.0) <= cv.abs_error_bound + tbl.q_float_err

    def test_domain_error(self):
        with pytest.raises(DomainError):
            sin_eval(1.0000001e8, 1e-15)
        with pytest.raises(DomainError):
            sin_eval(float("nan"), 1e-15)

    def test_invalid_tolerance(self):
        with pytest.raises(InvalidTolerance):
            sin_eval(1.0, 0.0)
        with pytest.raises(InvalidTolerance):
            sin_eval(1.0, -1e-10)


class TestCosEval:
    def test_zero(self):
        cv = cos_eval(0.0, 1e-15)
        assert cv.value == 1.0
        assert cv.abs_error_bound == 0.0

    def test_cos_two(self):
        cv = cos_eval(2.0, 1e-15)
        assert cv.value == COS_2
        assert cv.abs_error_bound <= 1e-15

    def test_cos_two_certified_below_critical_bound(self):
        cv = cos_eval(2.0, 1e-12)
        assert cv.value <= float(Fraction(-131, 315)) + cv.abs_error_bound


class TestInvariantsAndProperties:
    def test_bounded_by_one_plus_bound(self):
        rng = random.Random(11)
        for _ in range(400):
            x = rng.uniform(-10.0, 10.0)
            s = sin_eval(x, 1e-15)
            c = cos_eval(x, 1e-15)
            assert abs(s.value) <= 1.0 + s.abs_error_bound
            assert abs(c.value) <= 1.0 + c.abs_error_bound

    def test_odd_even_bit_exact(self):
        rng = random.Random(12)
        xs = [rng.uniform(-50.0, 50.0) for _ in range(200)] + [0.0, -0.0, 1e-300, 7.25]
        for x in xs:
            assert sin_eval(-x, 1e-15).value == -sin_eval(x, 1e-15).value
            assert cos_eval(-x, 1e-15).value == cos_eval(x, 1e-15).value

    def test_derivative_cycle_order_four(self):
        # one central-difference step per stage of the cycle
        # sin -> cos -> -sin -> -cos -> sin
        tbl = shared_table()
        h = 1e-5
        tol = 1e-15
        stages = [
            (lambda x: sin_eval(x, tol).value, lambda x: cos_eval(x, tol).value),
            (lambda x: cos_eval(x, tol).value, lambda x: -sin_eval(x, tol).value),
            (lambda x: -sin_eval(x, tol).value, lambda x: -cos_eval(x, tol).value),
            (lambda x: -cos_eval(x, tol).value, lambda x: sin_eval(x, tol).value),
        ]
        two_pi = 2.0 * tbl.pi
        n = 1000
        for f, fprime in stages:
            worst = 0.0
            for i in range(n):
                x = -two_pi + 2.0 * two_pi * i / (n - 1)
                diff = (f(x + h) - f(x - h)) / (2.0 * h)
                worst = max(worst, abs(diff - fprime(x)))
            # h^2/6 truncation + series bounds amplified by 1/(2h)
            assert worst <= h * h / 6.0 + 2e-15 / (2.0 * h) + 1e-11

    def test_exact_float_agreement(self):
        rng = random.Random(13)
        for _ in range(100):
            x = rng.uniform(-4.0, 4.0)  # a dyadic rational, exactly convertible
            xr = Fraction(x)
            fv = sin_eval(x, 1e-15)
            ev, eb = sin_eval_exact(xr, 12)
            assert abs(fv.value - float(ev)) <= fv.abs_error_bound + float(eb) + 1e-15

    def test_reduction_consistency_large_arguments(self):
        # sin(x) must agree with sin evaluated at the rational remainder of a
        # high-precision period subtraction
        tbl = shared_table()
        four_q = 4 * tbl.q_exact
        rng = random.Random(14)
        for _ in range(25):
            x = rng.uniform(10.0, 1e8)
            k = round(Fraction(x) / four_q)
            r = Fraction(x) - k * four_q
            direct = sin_eval(x, 1e-15)
            via_oracle = sin_oracle(r, 30)
            tol = direct.abs_error_bound + 4 * float(tbl.refined_radius) * k + 1e-15
            assert abs(direct.value - float(via_oracle)) <= tol


class TestExactEvaluators:
    def test_sin_zero_one_term(self):
        value, bound = sin_eval_exact(0, 1)
        assert value == 0 and bound == 0

    def test_cos_two_four_terms(self):
        value, bound = cos_eval_exact(2, 4)
        assert value == Fraction(-19, 45)
        assert bound == Fraction(2, 315)

    def test_sin_one_five_terms(self):
        value, bound = sin_eval_exact(1, 5)
        assert value == Fraction(305353, 362880)
        assert bound == Fraction(1, 39916800)

    def test_enclosure_is_valid(self):
        # the (value, bound) pair must enclose a much higher-order oracle sum
        for x in (Fraction(1, 3), Fraction(2), Fraction(-7, 2), Fraction(4)):
            for terms in (1, 2, 3, 6):
                v, b = sin_eval_exact(x, terms)
                ref = sin_oracle(x, 40)
                assert abs(ref - v) <= b
                v, b = cos_eval_exact(x, terms)
                ref = cos_oracle(x, 40)
                assert abs(ref - v) <= b

    def test_domain_error(self):
        with pytest.raises(DomainError):
            sin_eval_exact(Fraction(9, 2), 3)
        for f in (sin_eval_exact, cos_eval_exact):
            for x in (math.nan, math.inf, -math.inf):  # the same error as a finite |x| > 4
                with pytest.raises(DomainError, match=r"^exact series evaluation requires"):
                    f(x, 2)

    def test_terms_must_be_positive(self):
        with pytest.raises(ValueError):
            cos_eval_exact(1, 0)

    @pytest.mark.parametrize("terms", [2.5, "3"])
    def test_terms_must_be_an_integer(self, terms):
        for evaluate in (sin_eval_exact, cos_eval_exact):
            with pytest.raises(TypeError):
                evaluate(0.5, terms)

    @pytest.mark.parametrize("x", [True, False, "1/3", None, Decimal("0.5"), 1j], ids=repr)
    def test_x_must_be_an_int_a_float_or_a_fraction(self, x):
        for evaluate in (sin_eval_exact, cos_eval_exact):
            with pytest.raises(TypeError, match=f"^x must be an int, a float or a Fraction, "
                                                f"got {re.escape(repr(x))}$"):
                evaluate(x, 2)

    def test_an_integer_term_count_sums_as_before(self):
        assert sin_eval_exact(0.5, 3) == (Fraction(1841, 3840), Fraction(1, 645120))
        assert cos_eval_exact(0.5, 3) == (Fraction(337, 384), Fraction(1, 46080))


def _terms_used(x, terms, odd):
    """The count the exact evaluators sum: `terms`, raised until x**2 is at
    most the next term's denominator, so the omitted terms decrease."""
    o = 1 if odd else 0
    while x * x > (2 * terms + o + 1) * (2 * terms + o + 2):
        terms += 1
    return terms


def _first_decisive(x, terms, odd, oracle):
    """The oracle's count for a sign-only sum: the first valid truncation
    whose |sum| exceeds its bound, else the full request."""
    m = _terms_used(x, 1, odd)
    while m < terms and not abs(oracle(x, m)[0]) > oracle(x, m)[1]:
        m = _terms_used(x, m + 1, odd)
    return m


class TestExactEvaluatorsAgainstOracle:
    """The integer partial sums equal the oracle's per-term Fraction sums."""

    def test_value_and_bound_equal_the_oracle(self):
        rng = random.Random(2026)
        xs = [Fraction(0), Fraction(4), Fraction(-4), Fraction(1, 3), Fraction(-7, 2)]
        for _ in range(40):
            xs.append(Fraction(rng.randint(-400, 400), rng.randint(1, 100)))
            xs.append(Fraction(rng.randint(-(4 << 200), 4 << 200), 1 << 200))
            xs.append(Fraction(rng.uniform(-4.0, 4.0)))
        for x in (x for x in xs if abs(x) <= 4):
            counts = (1, 2, rng.randint(3, 20), rng.randint(21, 60), 60)
            for exact, odd in ((sin_eval_exact, True), (cos_eval_exact, False)):
                used = [_terms_used(x, terms, odd) for terms in counts]
                sums = series_enclosures(x, max(used), odd)  # once per x, indexed by count
                for terms, m in zip(counts, used):
                    value, bound = exact(x, terms)
                    assert type(value) is Fraction and type(bound) is Fraction
                    assert (value, bound) == sums[m]

    def test_auto_extension_matches_the_oracle(self):
        # one cosine term at x = 4 would omit x**2/2 while the next ratio,
        # 16/(3*4), exceeds 1; the evaluator sums 2 terms (16 <= 5*6).
        # Sine's first ratio is at most 16/(4*5), so it never extends here.
        assert _terms_used(Fraction(4), 1, odd=False) == 2
        assert _terms_used(Fraction(4), 1, odd=True) == 1
        for x in (Fraction(4), Fraction(-4), Fraction(7, 2)):
            assert cos_eval_exact(x, 1) == cos_enclosure(x, 2)
            assert cos_eval_exact(x, 1) != cos_enclosure(x, 1)

    def test_until_sign_stops_at_the_first_decisive_sum(self):
        # sign_only sums until the sign is decided: the first valid truncation
        # whose |sum| exceeds its bound, else the full request; points next to
        # pi/2 and pi need many terms.  It returns no denominator
        rng = random.Random(7)
        xs = [Fraction(0), Fraction(4), Fraction(-4), Fraction(355, 226), Fraction(355, 113)]
        xs += [Fraction(rng.randint(-(4 << 60), 4 << 60), 1 << 60) for _ in range(40)]
        for x in xs:
            for oracle, odd in ((sin_enclosure, True), (cos_enclosure, False)):
                for terms in (1, 3, 30):
                    m = _first_decisive(x, terms, odd, oracle)
                    s, b = oracle(x, m)
                    num, den, used, decided = series_kernel._series_sum(
                        x.numerator, x.denominator, terms, odd, sign_only=True)
                    assert den is None
                    # at x = 0 the odd loop tests sum/x, decided at m = 1
                    # while the sum is exactly 0
                    if x or not odd:
                        assert (used, decided) == (m, abs(s) > b)
                    assert (num > 0) - (num < 0) == (s > 0) - (s < 0)


class _Float(float):
    """A float subclass: the constructor reads it through _pair, as it reads an int."""


class TestCertifiedValue:
    def test_invariant_rejects_negative_bound(self):
        with pytest.raises(ValueError):
            CertifiedValue(1.0, -1e-30)
        with pytest.raises(ValueError):
            CertifiedValue(1.0, float("nan"))

    def test_invariant_rejects_infinite_and_negative_bounds(self):
        for bound in (math.inf, -math.inf, -1e-300, -1, -(2 ** 60 + 1)):  # an int rounds up
            with pytest.raises(ValueError):
                CertifiedValue(1.0, bound)
        with pytest.raises(ValueError):  # the bound of the product overflows
            CertifiedValue(1e200, 1e200) * CertifiedValue(1e200, 0.0)

    def test_invariant_accepts_zero_and_the_smallest_subnormal(self):
        for bound in (0.0, -0.0, 5e-324):
            assert CertifiedValue(1.0, bound).abs_error_bound == bound

    @pytest.mark.parametrize("value",
                             [math.inf, -math.inf, math.nan, _Float("nan"), _Float("-inf")])
    def test_invariant_rejects_a_value_that_is_not_finite(self, value):
        for bound in (0.0, 1.0):
            with pytest.raises(ValueError, match="^value must be finite"):
                CertifiedValue(value, bound)
        with pytest.raises(ValueError, match="^value must be finite"):
            CertifiedValue(1.0, 0.0)._replace(value=value)

    @pytest.mark.parametrize("make", [
        lambda cv: cv + math.nan,
        lambda cv: cv - math.nan,
        lambda cv: math.nan - cv,
        lambda cv: cv * math.inf,
        lambda cv: math.inf * cv,
    ], ids=["cv + nan", "cv - nan", "nan - cv", "cv * inf", "inf * cv"])
    def test_an_operation_on_a_value_that_is_not_finite_names_the_value(self, make):
        # the result's bound is nan as well; the message names the value, its cause
        with pytest.raises(ValueError, match="^value must be finite, got (nan|inf)$"):
            make(CertifiedValue(1.0, 0.0))

    @pytest.mark.parametrize("value", [True, False, "a", None, Fraction(1, 3), 1j])
    def test_invariant_rejects_a_value_that_is_not_an_int_or_a_float(self, value):
        with pytest.raises(TypeError, match="^value must be an int or a float"):
            CertifiedValue(value, 0.0)
        with pytest.raises(TypeError, match="^value must be an int or a float"):
            CertifiedValue(1.0, 0.0)._replace(value=value)

    @pytest.mark.parametrize("bound", [True, False, "a", None, Fraction(1, 3), 1j])
    def test_invariant_rejects_a_bound_that_is_not_an_int_or_a_float(self, bound):
        with pytest.raises(TypeError, match="^abs_error_bound must be an int or a float"):
            CertifiedValue(1.0, bound)
        with pytest.raises(TypeError, match="^abs_error_bound must be an int or a float"):
            CertifiedValue(1.0, 0.0)._replace(abs_error_bound=bound)

    @pytest.mark.parametrize("bound", [0, 3, 2 ** 53, 2 ** 53 + 1, 2 ** 60 + 1, 2 ** 70 - 1,
                                       _Float(0.5)])
    def test_an_int_or_a_float_subclass_bound_is_read_as_a_float_at_or_above_it(self, bound):
        for cv in (CertifiedValue(1.0, bound), CertifiedValue(1.0, 0.0)._replace(
                abs_error_bound=bound)):
            b = cv.abs_error_bound
            assert type(b) is float
            assert Fraction(bound) <= Fraction(b) and math.nextafter(b, -math.inf) < bound

    def test_arithmetic_propagation_encloses_truth(self):
        rng = random.Random(15)
        for _ in range(200):
            a_true = rng.uniform(-2, 2)
            b_true = rng.uniform(-2, 2)
            ea = rng.uniform(0, 1e-12)
            eb = rng.uniform(0, 1e-12)
            a = CertifiedValue(a_true + rng.uniform(-ea, ea), ea)
            b = CertifiedValue(b_true + rng.uniform(-eb, eb), eb)
            s = a + b
            assert abs(s.value - (a_true + b_true)) <= s.abs_error_bound * (1 + 1e-12)
            p = a * b
            assert abs(p.value - a_true * b_true) <= p.abs_error_bound * (1 + 1e-12)
            d = a - b
            assert abs(d.value - (a_true - b_true)) <= d.abs_error_bound * (1 + 1e-12)

    def test_product_bound_holds_at_the_corners_of_wide_intervals(self):
        # errors as large as the values, so the product of the two errors
        # counts; eighths in [-2, 2] keep every product and sum exact
        rng = random.Random(28)
        for _ in range(500):
            a, b = (CertifiedValue(rng.randint(-16, 16) / 8, rng.randint(1, 16) / 8)
                    for _ in range(2))
            p = a * b
            for ta in (a.value - a.abs_error_bound, a.value + a.abs_error_bound):
                for tb in (b.value - b.abs_error_bound, b.value + b.abs_error_bound):
                    assert abs(p.value - ta * tb) <= p.abs_error_bound


class TestAgree:
    """_agree decides |lv - rv| <= lb + rb on floats, with nothing added."""

    @pytest.mark.parametrize("lv, rv, share", [(1.0, 1.0 + 2.0 ** -29, 0.5), (0.3, 0.31, 0.25),
                                               (-2.5, -2.4999999, 0.0), (1e-300, 1.5e-300, 1.0)])
    def test_a_gap_equal_to_the_bounds_agrees_and_the_next_float_does_not(self, lv, rv, share):
        gap = rv - lv  # exact: the values are within a factor 2 (Sterbenz)
        lb = gap * share
        rb = gap - lb
        assert Fraction(rv) - Fraction(lv) == Fraction(lb) + Fraction(rb) == Fraction(lb + rb)
        assert _agree((lv, lb), (rv, rb)) and _agree((rv, rb), (lv, lb))
        past = math.nextafter(rv, math.inf)
        assert not _agree((lv, lb), (past, rb)) and not _agree((past, rb), (lv, lb))

    def test_takes_certified_values_and_plain_pairs(self):
        assert _agree(CertifiedValue(1.0, 0.5), (2.0, 0.5))
        assert not _agree(CertifiedValue(1.0, 0.5), CertifiedValue(2.0, 0.25))


class TestBoundsRoundedUp:
    """Each operation's bound holds at every corner of its operands' intervals,
    in exact rationals, with no allowance: values and errors are random
    doubles, so the intervals are not dyadic and the bound sums round."""

    @staticmethod
    def _pairs(seed, scale, count):
        rng = random.Random(seed)
        for _ in range(count):
            yield tuple(CertifiedValue(rng.uniform(-2.0, 2.0), rng.uniform(0.0, 2.0) * scale)
                        for _ in range(2))

    @staticmethod
    def _corners(cv):
        v, e = Fraction(cv.value), Fraction(cv.abs_error_bound)
        return v - e, v + e

    @pytest.mark.parametrize("scale", [1.0, 1e-8])
    def test_sums_differences_and_products_hold_at_the_corners(self, scale):
        misses = []
        for a, b in self._pairs(31, scale, 1000):
            results = [(a + b, operator.add), (a - b, operator.sub), (a * b, operator.mul)]
            for r, op in results:
                v, e = Fraction(r.value), Fraction(r.abs_error_bound)
                for ta in self._corners(a):
                    for tb in self._corners(b):
                        if abs(v - op(ta, tb)) > e:
                            misses.append((a, b, op.__name__))
        assert misses == []

    def test_a_plain_number_on_either_side_holds_at_the_corners(self):
        rng = random.Random(32)
        for a, _ in self._pairs(33, 1.0, 500):
            w = rng.uniform(-2.0, 2.0)
            for r, truth in ((a + w, lambda t: t + Fraction(w)), (w - a, lambda t: Fraction(w) - t),
                             (a * w, lambda t: t * Fraction(w))):
                for t in self._corners(a):
                    assert abs(Fraction(r.value) - truth(t)) <= Fraction(r.abs_error_bound)

    def test_a_product_below_the_normal_range_holds_at_the_corners(self):
        # each of the four products rounds to 0, losing just under _TINY / 2
        x = 2.0 ** -538 * math.sqrt(2.0) * (1.0 - 2.0 ** -40)  # x * x just below 2**-1075
        a = CertifiedValue(x, x)
        p = a * a
        assert 0 < Fraction(x) ** 2 < Fraction(1, 2 ** 1075) and p.value == 0.0
        assert abs(Fraction(p.value) - (2 * Fraction(x)) ** 2) <= Fraction(p.abs_error_bound)


class TestLargeInts:
    """An int that float() does not hold exactly carries its conversion
    error, half an ulp of float(n), as an operand and as a constructor value."""

    @staticmethod
    def _encloses(r, truth):
        return abs(Fraction(r.value) - truth) <= Fraction(r.abs_error_bound)

    def test_operands_and_values_beyond_2_53_enclose_the_truth(self):
        rng = random.Random(28)
        for _ in range(10_000):
            n = rng.getrandbits(rng.randint(54, 70)) | 1 << 53
            n = n if rng.random() < 0.5 else -n
            e = rng.choice((0.0, rng.uniform(0, 1e-12)))
            cv = CertifiedValue(rng.uniform(-2, 2), e)
            t = Fraction(cv.value) + Fraction(rng.uniform(-e, e))  # within e of cv.value
            assert self._encloses(cv + n, t + n)
            assert self._encloses(n + cv, t + n)
            assert self._encloses(cv - n, t - n)
            assert self._encloses(n - cv, n - t)
            assert self._encloses(cv * n, t * n)
            assert self._encloses(n * cv, t * n)
            big = CertifiedValue(n, e)
            assert self._encloses(big, n)
            assert self._encloses(big - cv.value, n - Fraction(cv.value))

    @pytest.mark.parametrize("op, a, n", [
        ("-", 1.2273876683416012, 18014398509481991),
        ("*", 1.7563669634938592, 1152921504606847403),
        ("rev-", 1.2273876683416012, 18014398509481991),
    ])
    def test_the_recorded_misses_hold(self, op, a, n):
        if op == "-":
            r, truth = CertifiedValue(a, 0.0) - n, Fraction(a) - n
        elif op == "*":
            r, truth = CertifiedValue(a, 0.0) * n, Fraction(a) * n
        else:
            r, truth = CertifiedValue(n, 0.0) - a, n - Fraction(a)
        assert self._encloses(r, truth)

    def test_an_int_float_holds_is_read_as_that_float(self):
        for n in (0, 3, -(2 ** 53), 2 ** 53, 2 ** 60, -(2 ** 70)):
            assert CertifiedValue(n, 0.0) == (float(n), 0.0)
            assert type(CertifiedValue(n, 0.0).value) is float
            assert CertifiedValue(1.0, 0.0) * n == CertifiedValue(1.0, 0.0) * float(n)
        # the conversion error, 1.0, added to the bound and rounded up
        assert CertifiedValue(2 ** 53 + 1, 0.0) == (2.0 ** 53, 1.0 + 2.0 ** -51)

    @pytest.mark.parametrize("bound", [-1e-300, -0.5, math.nan, math.inf])
    def test_an_inexact_int_keeps_the_check_of_its_bound(self, bound):
        # the conversion error, 0.5 here, must not carry a negative bound past its check
        with pytest.raises(ValueError, match="^abs_error_bound must be finite and >= 0$"):
            CertifiedValue(2 ** 53 + 1, bound)


class TestReflectedArithmetic:
    """A plain number on the left: 0.5 + cv, 1.0 - cv and 2.0 * cv."""

    @staticmethod
    def _cases():
        rng = random.Random(16)
        for _ in range(200):
            e = rng.uniform(0, 1e-12)
            cv = CertifiedValue(rng.uniform(-2, 2), e)
            truth = Fraction(cv.value) + Fraction(rng.uniform(-e, e))  # within e of cv.value
            yield cv, truth

    @staticmethod
    def _encloses(r, truth):
        return abs(Fraction(r.value) - truth) <= Fraction(r.abs_error_bound)

    def test_enclose_the_truth(self):
        for cv, t in self._cases():
            assert self._encloses(0.5 + cv, Fraction(1, 2) + t)
            assert self._encloses(1.0 - cv, 1 - t)
            assert self._encloses(2.0 * cv, 2 * t)

    def test_equal_the_forward_forms(self):
        for cv, _ in self._cases():
            assert 0.5 + cv == cv + 0.5
            assert 1.0 - cv == CertifiedValue(1.0, 0.0) - cv == -(cv - 1.0)
            assert 2.0 * cv == cv * 2.0
            assert type(0.5 + cv) is type(1.0 - cv) is type(2.0 * cv) is CertifiedValue
        # +, - and reflected - share one sum rule; a - b rounds as a + (-b) does, and
        # negation is exact, so each difference is the sum with the negated operand,
        # bit for bit, signed zeros included
        rng = random.Random(36)

        def number():
            return rng.choice([
                0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1022,
                rng.uniform(-1.0, 1.0) * 2.0 ** -1030,  # subnormal
                math.ldexp(rng.uniform(-1.0, 1.0), rng.randint(-1074, 1000)),
                rng.choice((1, -1)) * rng.randint(2 ** 53 + 1, 2 ** 70),  # past 2**53
            ])

        def bits(r):
            return r.value.hex(), r.abs_error_bound.hex()

        for _ in range(3000):
            a, b = (CertifiedValue(number(), rng.choice((0.0, 5e-324, rng.uniform(0.0, 1e-9))))
                    for _ in range(2))
            w = number()
            assert bits(a - b) == bits(a + (-b))
            assert bits(w - a) == bits(w + (-a))
            assert bits(a - w) == bits(a + (-w))


class TestDegreeTable:
    """The float kernel's degree tables against coefficients computed here.

    A row (largest z, n, t) omits the powers w**n and up of w = r**2 and
    states t, the first omitted term at the row's largest z per unit of the
    tail's scale: |r| z for sine (power 1), z**2 for cosine (power 2).
    """

    KERNELS = {  # table, power of z in the tail's scale, |coefficient of w**n|
        "sin": (series_kernel._SIN_TABLE, 1, lambda n: Fraction(1, math.factorial(2 * n + 1))),
        "cos": (series_kernel._COS_TABLE, 2, lambda n: Fraction(1, math.factorial(2 * n))),
    }

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_each_constant_bounds_the_first_omitted_term(self, name):
        rows, power, coeff = self.KERNELS[name]
        for z_max, n, t in rows:
            z = Fraction(z_max)
            assert Fraction(t) * z ** power >= coeff(n) * z ** n
            assert coeff(n + 1) * z < coeff(n)  # the omitted terms shrink from there on

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_rows_cover_zero_to_the_square_of_half_q(self, name):
        rows, power, coeff = self.KERNELS[name]
        (z0, n0, _), (z1, n1, _) = rows
        assert 0.0 < z0 < z1 and n0 == power < n1
        assert Fraction(z1) >= (shared_table().q_exact / 2) ** 2
        # and past fl(r**2) for |r| <= 0.7854, the largest reduced argument
        assert Fraction(z1) >= Fraction(0.7854) ** 2 * (1 + Fraction(1, 2 ** 52))

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_leading_part_only_row_drops_under_half_an_ulp(self, name):
        rows, power, coeff = self.KERNELS[name]
        z0 = Fraction(rows[0][0])
        # the whole tail is at most its first term: below 2**-54 (1 - z/2) per unit of |r| or 1
        assert coeff(power) * z0 ** power <= Fraction(1, 2 ** 54) * (1 - z0 / 2)

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_rows_equal_the_fraction_derivation_bit_for_bit(self, name):
        rows, power, coeff = self.KERNELS[name]
        assert rows == degree_table_oracle([coeff(n) for n in range(10)], power,
                                           series_kernel._Z_MAX)

    def test_tiny_row_edges_equal_the_fraction_derivation_bit_for_bit(self):
        z_one = float(Fraction(1, 2 ** 55) / self.KERNELS["cos"][2](1))
        assert (series_kernel._COS_Z_ONE, series_kernel._ROW0_EDGE) == (z_one, math.sqrt(z_one))

    def test_sin_value_equals_the_kernel_value(self):
        half_q = shared_table().q / 2
        for i in range(1000):
            r = half_q * i / 1000
            assert _sin_value(r) == sin_eval(r, 1e-15).value, r

    def test_cosine_constant_row_rounds_as_row_zero_would(self):
        # at z <= edge the kernel returns 1 before two_prod; row 0 would compute
        # lead = fl(1 - h) and fl(lead + low) with h = z/2 and
        # low = -h - zl/2 - r_lo r, |zl| <= u z, |r_lo| <= u |r|, r**2 <= z / (1 - u)
        rows, power, coeff = self.KERNELS["cos"]
        edge, u = Fraction(series_kernel._COS_Z_ONE), Fraction(1, 2 ** 53)
        assert 0 < edge < Fraction(rows[0][0])
        assert coeff(1) * edge <= Fraction(1, 2 ** 55)  # |a_1| z, a_1 = -1/2
        h = edge / 2
        assert 1 - h > 1 - u / 2  # above the midpoint of 1 and its predecessor: lead = 1
        low = h + u * edge / 2 + u * (edge / (1 - u) + Fraction(2.0 ** -1074))
        assert low * (1 + u) ** 3 < u / 2  # with the roundings of low: fl(1 + low) = 1
