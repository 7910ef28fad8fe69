"""Tests for the exact truncated polynomial algebra and the
coefficient-level identity verifications."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomfree.exact_series import (
    BiPoly,
    UniPoly,
    cauchy_product,
    sine_sum_split,
    substitute_sum,
    truncated_cos,
    truncated_sin,
    uni_to_bi,
    verify_pythagorean,
    verify_sine_sum,
    verify_sine_sum_split,
)
from geomfree.series_kernel import ode_coefficients


def fractions_st():
    return st.builds(
        Fraction,
        st.integers(min_value=-30, max_value=30),
        st.integers(min_value=1, max_value=12),
    )


def unipoly_st(cap=10):
    return st.dictionaries(
        st.integers(min_value=0, max_value=cap), fractions_st(), max_size=6,
    ).map(lambda d: UniPoly(cap, d))


class TestTruncatedSeries:
    def test_sin_degree_three(self):
        p = truncated_sin(3)
        assert p.coeffs == {1: Fraction(1), 3: Fraction(-1, 6)}

    def test_cos_degree_zero(self):
        assert truncated_cos(0) == UniPoly.one(0)

    def test_sin_degree_seven(self):
        p = truncated_sin(7)
        assert p.coeffs == {
            1: Fraction(1),
            3: Fraction(-1, 6),
            5: Fraction(1, 120),
            7: Fraction(-1, 5040),
        }

    def test_derivative_of_sin_is_cos(self):
        for d in (1, 2, 5, 12, 41):
            assert truncated_sin(d).derivative() == truncated_cos(d - 1)

    def test_recursion_coefficients_match_series(self):
        coeffs = ode_coefficients(201)
        series = truncated_sin(200)
        for n in range(201):
            assert coeffs[n] == series.coefficient(n)


class TestCauchyProduct:
    def test_one_plus_x_times_one_minus_x(self):
        p = UniPoly(2, {0: 1, 1: 1})
        q = UniPoly(2, {0: 1, 1: -1})
        assert cauchy_product(p, q, 2) == UniPoly(2, {0: 1, 2: -1})

    def test_first_convolution_term_of_sin_cos(self):
        # degree-3 part of sin(x)cos(y): -(x^3/6 + x y^2/2)
        sx = uni_to_bi(truncated_sin(3), 0, 3)
        cy = uni_to_bi(truncated_cos(2), 1, 3)
        prod = cauchy_product(sx, cy, 3)
        expected = BiPoly(3, {(3, 0): Fraction(-1, 6), (1, 2): Fraction(-1, 2)})
        assert prod.homogeneous_part(3) == expected

    def test_commutativity_random(self):
        rng = random.Random(21)
        for _ in range(50):
            p = UniPoly(10, {rng.randrange(11): Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
                             for _ in range(4)})
            q = UniPoly(10, {rng.randrange(11): Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
                             for _ in range(4)})
            assert cauchy_product(p, q, 10) == cauchy_product(q, p, 10)

    def test_mixed_arity_rejected(self):
        with pytest.raises(TypeError):
            cauchy_product(UniPoly.one(2), BiPoly.one(2), 2)


class TestRingLaws:
    @settings(max_examples=60, deadline=None)
    @given(unipoly_st(), unipoly_st())
    def test_commutative(self, p, q):
        assert cauchy_product(p, q, 10) == cauchy_product(q, p, 10)

    @settings(max_examples=60, deadline=None)
    @given(unipoly_st(), unipoly_st(), unipoly_st())
    def test_associative(self, p, q, r):
        left = cauchy_product(cauchy_product(p, q, 10), r, 10)
        right = cauchy_product(p, cauchy_product(q, r, 10), 10)
        assert left == right

    @settings(max_examples=60, deadline=None)
    @given(unipoly_st(), unipoly_st(), unipoly_st())
    def test_distributive(self, p, q, r):
        left = cauchy_product(p, q + r, 10)
        right = cauchy_product(p, q, 10) + cauchy_product(p, r, 10)
        assert left == right

    @settings(max_examples=60, deadline=None)
    @given(unipoly_st(cap=16), unipoly_st(cap=16))
    def test_truncation_coherence(self, p, q):
        full = cauchy_product(p, q, 16)
        assert full.truncate(9) == cauchy_product(p, q, 9)


class TestSubstituteSum:
    def test_linear(self):
        out = substitute_sum(UniPoly(1, {1: 1}), 1)
        assert out == BiPoly(1, {(1, 0): 1, (0, 1): 1})

    def test_degree_three(self):
        out = substitute_sum(truncated_sin(3), 3)
        expected = BiPoly(3, {
            (1, 0): 1, (0, 1): 1,
            (3, 0): Fraction(-1, 6), (2, 1): Fraction(-1, 2),
            (1, 2): Fraction(-1, 2), (0, 3): Fraction(-1, 6),
        })
        assert out == expected

    def test_x3y2_coefficient_at_degree_five(self):
        out = substitute_sum(truncated_sin(5), 5)
        assert out.coefficient(3, 2) == Fraction(1, 12)

    def test_cap_precondition(self):
        with pytest.raises(ValueError):
            substitute_sum(truncated_sin(3), 5)


class TestSineSumSplit:
    def test_n_zero(self):
        p1, p2 = sine_sum_split(0)
        assert p1 == BiPoly(1, {(1, 0): 1})
        assert p2 == BiPoly(1, {(0, 1): 1})

    def test_n_one(self):
        p1, p2 = sine_sum_split(1)
        assert p1 == BiPoly(3, {(3, 0): Fraction(-1, 6), (1, 2): Fraction(-1, 2)})
        assert p2 == BiPoly(3, {(2, 1): Fraction(-1, 2), (0, 3): Fraction(-1, 6)})

    def test_parts_sum_to_term(self):
        for n in range(8):
            d = 2 * n + 1
            p1, p2 = sine_sum_split(n)
            term = substitute_sum(truncated_sin(d), d).homogeneous_part(d)
            assert p1 + p2 == term

    def test_split_matches_convolutions_to_twenty(self):
        result = verify_sine_sum_split(20)
        assert result.passed
        assert result.samples == 21


class TestVerifications:
    def test_pythagorean_degree_zero(self):
        assert verify_pythagorean(0).passed

    def test_pythagorean_degree_two_by_hand(self):
        s = truncated_sin(2)
        c = truncated_cos(2)
        total = cauchy_product(s, s, 2) + cauchy_product(c, c, 2)
        assert total == UniPoly.one(2)

    def test_pythagorean_degree_fifty(self):
        result = verify_pythagorean(50)
        assert result.passed
        assert result.detail["residual"] == "0"

    def test_sine_sum_degree_one(self):
        assert verify_sine_sum(1).passed

    def test_sine_sum_degree_three_by_hand(self):
        lhs = substitute_sum(truncated_sin(3), 3)
        sx = uni_to_bi(truncated_sin(3), 0, 3)
        cy = uni_to_bi(truncated_cos(3), 1, 3)
        cx = uni_to_bi(truncated_cos(3), 0, 3)
        sy = uni_to_bi(truncated_sin(3), 1, 3)
        rhs = cauchy_product(sx, cy, 3) + cauchy_product(cx, sy, 3)
        assert lhs == rhs

    def test_sine_sum_degree_forty_one(self):
        result = verify_sine_sum(41)
        assert result.passed
        assert result.detail["residual"] == "0"

    def test_nonzero_residual_is_report_not_exception(self):
        # a wrong "cosine" makes the check fail but must not raise
        result = verify_pythagorean(2)
        assert result.passed  # sanity on the honest one
        s = truncated_sin(2)
        bad_c = UniPoly(2, {0: 1, 2: Fraction(-1, 3)})
        total = cauchy_product(s, s, 2) + cauchy_product(bad_c, bad_c, 2)
        assert total != UniPoly.one(2)


class TestPolynomialBasics:
    def test_normalization_drops_zeros(self):
        p = UniPoly(4, {0: 0, 2: Fraction(0), 3: Fraction(1, 2)})
        assert p.coeffs == {3: Fraction(1, 2)}

    def test_cap_violation(self):
        with pytest.raises(ValueError):
            UniPoly(2, {3: 1})
        with pytest.raises(ValueError):
            BiPoly(2, {(2, 1): 1})

    def test_non_integer_exponent_or_cap_is_rejected(self):
        # outside input: int() would silently read these as 2x, a cap of 2, x and one
        for make in (lambda: UniPoly(3, {1.5: 2}), lambda: UniPoly(2.7, {1: 2}),
                     lambda: BiPoly(3, {(1.9, 0): 1}), lambda: UniPoly.one(2.0)):
            with pytest.raises(TypeError):
                make()

    def test_every_operation_rejects_a_non_integer_cap(self):
        # each builds its result through the one constructor path, which reads the cap
        s = truncated_sin(5)
        for make in (lambda: s.truncate(2.5), lambda: s.homogeneous_part(1.5),
                     lambda: substitute_sum(s, 2.5), lambda: uni_to_bi(s, 0, 2.5)):
            with pytest.raises(TypeError):
                make()

    def test_bipoly_total_degree_truncation(self):
        p = BiPoly(4, {(2, 2): 1, (1, 1): 2})
        assert p.truncate(3).coeffs == {(1, 1): Fraction(2)}


@pytest.mark.parametrize("make", [
    lambda: verify_pythagorean(-1),
    lambda: verify_sine_sum(0),
    lambda: verify_sine_sum_split(-1),
    lambda: sine_sum_split(-1),
    lambda: uni_to_bi(truncated_sin(3), 2, 3),
    lambda: UniPoly(-1),
], ids=["verify_pythagorean", "verify_sine_sum", "verify_sine_sum_split", "sine_sum_split",
        "uni_to_bi", "UniPoly"])
def test_out_of_range_arguments_raise_value_error(make):
    with pytest.raises(ValueError):
        make()
