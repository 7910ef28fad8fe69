"""The factorial-scale polynomial algebra against an independent reference,
and the failure detail of the exact verifications."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomfree import exact_series
from geomfree.exact_series import (
    BiPoly,
    UniPoly,
    cauchy_product,
    substitute_sum,
    truncated_cos,
    truncated_sin,
    uni_to_bi,
    verify_pythagorean,
    verify_sine_sum,
    verify_sine_sum_split,
)

from oracles import (
    ref_add,
    ref_derivative,
    ref_embed,
    ref_homogeneous_part,
    ref_neg,
    ref_poly,
    ref_product,
    ref_substitute_sum,
    ref_truncate,
)

MAX_CAP = 12
caps = st.integers(min_value=0, max_value=MAX_CAP)
rationals = st.fractions(max_denominator=10 ** 6)


@st.composite
def polys(draw, arity, cap=None):
    """(package polynomial, reference polynomial) with the same coefficients."""
    cap = draw(caps) if cap is None else cap
    if arity == 1:
        keys = st.integers(min_value=0, max_value=cap).map(lambda k: (k,))
    else:
        keys = st.tuples(st.integers(0, cap), st.integers(0, cap)).filter(
            lambda e: sum(e) <= cap)
    coeffs = draw(st.dictionaries(keys, rationals, max_size=8))
    cls = UniPoly if arity == 1 else BiPoly
    p = cls(cap, {(e[0] if arity == 1 else e): v for e, v in coeffs.items()})
    return p, ref_poly(cap, coeffs)


@st.composite
def poly_pairs(draw):
    arity = draw(st.sampled_from((1, 2)))
    return draw(polys(arity)), draw(polys(arity))


def as_ref(p):
    return p.degree_cap, {((k,) if isinstance(k, int) else k): v
                          for k, v in p.coeffs.items()}


class TestAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(poly_pairs(), caps)
    def test_linear_operations(self, pair, d):
        (p, rp), (q, rq) = pair
        assert as_ref(p) == rp
        assert as_ref(p + q) == ref_add(rp, rq)
        assert as_ref(p - q) == ref_add(rp, rq, -1)
        assert as_ref(-p) == ref_neg(rp)
        assert as_ref(p.truncate(d)) == ref_truncate(rp, d)
        assert as_ref(p.homogeneous_part(d)) == ref_homogeneous_part(rp, d)
        assert as_ref(p.derivative()) == ref_derivative(rp)

    @settings(max_examples=150, deadline=None)
    @given(poly_pairs(), caps)
    def test_cauchy_product(self, pair, d):
        (p, rp), (q, rq) = pair
        assert as_ref(cauchy_product(p, q, d)) == ref_product(rp, rq, d)

    @settings(max_examples=100, deadline=None)
    @given(polys(1, cap=MAX_CAP), caps, st.sampled_from((0, 1)))
    def test_substitute_sum_and_embedding(self, pair, d, var):
        p, rp = pair
        assert as_ref(substitute_sum(p, d)) == ref_substitute_sum(rp, d)
        assert as_ref(uni_to_bi(p, var, d)) == ref_embed(rp, var, d)

    @settings(max_examples=150, deadline=None)
    @given(poly_pairs())
    def test_equality_and_hash(self, pair):
        (p, rp), (q, rq) = pair
        assert (p == q) == (rp[1] == rq[1])
        same = type(p)(q.degree_cap, q.coeffs)
        assert same == q and hash(same) == hash(q)
        round_trip = (p + q) - p
        assert round_trip == q.truncate(round_trip.degree_cap)
        assert hash(round_trip) == hash(q.truncate(round_trip.degree_cap))
        assert (p - p) == type(p)(p.degree_cap)
        half = type(p)(p.degree_cap, {k: v / 2 for k, v in p.coeffs.items()})
        assert (half == p) == (not rp[1])


class TestMixedArity:
    def test_a_unipoly_and_a_bipoly_neither_compare_nor_combine(self):
        p, q = UniPoly(2, {1: 1}), BiPoly(2, {(1, 0): 1})
        assert p.__eq__(q) is NotImplemented and q.__eq__(p) is NotImplemented
        assert p._combine(q, 1) is NotImplemented
        assert p != q and not p == q
        with pytest.raises(TypeError):
            p + q
        with pytest.raises(TypeError):
            q - p


class TestFailureDetail:
    def test_corrupted_cosine_in_the_pythagorean_check(self, monkeypatch):
        # cos = 1 - x^2/3 + x^4/24 gives sin^2 + cos^2 - 1 = x^2/3 - 5 x^4/36
        bad_cos = UniPoly(4, {0: 1, 2: Fraction(-1, 3), 4: Fraction(1, 24)})
        monkeypatch.setattr(exact_series, "truncated_cos", lambda D: bad_cos.truncate(D))
        result = verify_pythagorean(4)
        assert not result.passed
        # x^4: (-1/3 from sin^2) + (1/9 + 2/24 from cos^2) = -5/36
        assert result.detail == {"residual": "-5/36", "max_degree_residual": "-5/36",
                                 "at": "4"}

    def test_a_wrong_split_term_is_named_by_its_n(self, monkeypatch):
        real = exact_series.sine_sum_split

        def split(n):
            part1, part2 = real(n)
            return (-part1 if n == 2 else part1), part2

        monkeypatch.setattr(exact_series, "sine_sum_split", split)
        result = verify_sine_sum_split(5)
        assert not result.passed
        assert result.detail == {"failing_n": "[2]"}

    def test_ties_in_total_degree_go_to_the_highest_key(self, monkeypatch):
        # an odd x^3/6 term in the cosine adds x y^3/6 to sin x cos y and
        # x^3 y/6 to cos x sin y, and sin(x+y) has no degree-4 terms: the
        # residual ties at (1, 3) and (3, 1), and (1, 3) is built first
        bad_cos = UniPoly(4, {0: 1, 2: Fraction(-1, 2), 3: Fraction(1, 6)})
        monkeypatch.setattr(exact_series, "truncated_cos", lambda D: bad_cos.truncate(D))
        result = verify_sine_sum(4)
        assert not result.passed
        assert result.detail == {"residual": "-1/6", "max_degree_residual": "-1/6",
                                 "at": "(3, 1)"}


class TestProductsAtSize:
    """cauchy_product at the cap `verify --degree 100` uses, against the
    schoolbook reference: every binomial weight up to C(100, 50) is read."""

    D = 100

    def ref_series(self, parity, var=None):
        """sin (parity 1) or cos (parity 0) to degree D on the ordinary scale,
        univariate or on variable `var` of a bivariate polynomial."""
        coeffs = {k: Fraction((-1) ** (k // 2), factorial(k))
                  for k in range(parity, self.D + 1, 2)}
        if var is None:
            return ref_poly(self.D, {(k,): v for k, v in coeffs.items()})
        return ref_poly(self.D, {((k, 0) if var == 0 else (0, k)): v for k, v in coeffs.items()})

    def test_squares_and_cross_products_equal_the_reference(self):
        D = self.D
        sin, cos = truncated_sin(D), truncated_cos(D)
        assert as_ref(cauchy_product(sin, sin, D)) == ref_product(
            self.ref_series(1), self.ref_series(1), D)
        assert as_ref(cauchy_product(cos, cos, D)) == ref_product(
            self.ref_series(0), self.ref_series(0), D)
        sin_x, cos_y = uni_to_bi(sin, 0, D), uni_to_bi(cos, 1, D)
        cos_x, sin_y = uni_to_bi(cos, 0, D), uni_to_bi(sin, 1, D)
        assert as_ref(cauchy_product(sin_x, cos_y, D)) == ref_product(
            self.ref_series(1, 0), self.ref_series(0, 1), D)
        assert as_ref(cauchy_product(cos_x, sin_y, D)) == ref_product(
            self.ref_series(0, 0), self.ref_series(1, 1), D)

    def test_operands_capped_above_and_below_the_cap(self):
        # a mixed series in x and y at cap 120 over den 3 and one at cap 80:
        # the product drops terms past D, and each sum filters the operand
        # capped above the result and copies or rescales the other
        D = self.D
        above = BiPoly(120, {(i, j): Fraction((-1) ** i, 3 * (i + j + 1))
                             for i in range(0, 121, 3) for j in range(0, 121 - i, 5)})
        below = BiPoly(80, {(i, j): Fraction(i + 1, j + 2)
                            for i in range(0, 81, 4) for j in range(1, 81 - i, 3)})
        product = cauchy_product(above, below, D)
        assert product.degree_cap == D
        assert as_ref(product) == ref_product(as_ref(above), as_ref(below), D)
        for p, q in ((above, product), (product, above), (below, product),
                     (product, below), (above, below)):
            assert as_ref(p + q) == ref_add(as_ref(p), as_ref(q))
            assert as_ref(p - q) == ref_add(as_ref(p), as_ref(q), -1)
