"""Exact truncated polynomial algebra on the factorial scale, and the
coefficient-level proofs built on it.

UniPoly and BiPoly are sparse polynomials in x, and in x and y, truncated
at a fixed (total) degree cap.  Both are one type underneath.  A key is the
tuple e of exponents, and a polynomial holds integer numerators num[e] over
one common denominator den, on the scale of exponential generating
functions: the coefficient of x^e0 (y^e1) is num[e] / (den * e0! (e1!)).
The representation is canonical (den > 0, gcd(den, every num) = 1, no
zero entries), so equal polynomials have equal (num, den).  coeffs and
coefficient() convert to exact Fractions on demand.

On this scale the sine and cosine numerators are +-1 and 0, and the
operations the proofs need are integer operations:

* a product is a binomial convolution,
  num[e] = sum over e1 + e2 = e of prod_i C(e_i, e1_i) num1[e1] num2[e2],
  whose weights are read from one Pascal table, C(m + t, m) for m + t up
  to the cap, built by additions on first use for that cap;
* the substitution x <- x + y spreads num[k] onto every key (k - i, i),
  because (x + y)^k / k! = sum_i x^(k-i)/(k-i)! * y^i/i!;
* the derivative in x shifts the x-exponent, since d/dx x^k/k! = x^(k-1)/(k-1)!.

On top sit the verifications of the Pythagorean identity sin^2 + cos^2 = 1
and of the addition rule sin(x+y) = sin x cos y + cos x sin y, each with
zero residual in every coefficient up to the chosen cap.  They stay
independent computations: the Pythagorean check squares both series and
subtracts one, and the addition rule builds its left side by substitution
and its right side by convolution.  Neither side is a closed form of the
other, so the scale changes how fast they run, not what they prove.

No floating point is used anywhere in this module.
"""

import operator
from bisect import bisect_right
from itertools import accumulate
from math import factorial, gcd, lcm, prod

from . import series_kernel
from .report import CheckResult


def _scale(e):
    """e0! e1! ...: the factorial-scale weight of the monomial with exponents e."""
    return prod(map(factorial, e))


class _Poly:
    """Sparse polynomial truncated at total degree `degree_cap`, on the
    factorial scale (see the module docstring); `arity` variables.

    The constructor takes exact coefficients keyed by int exponents
    (UniPoly) or exponent pairs (BiPoly); zeros are dropped.
    """

    __slots__ = ("degree_cap", "num", "den")
    arity = None

    def __init__(self, degree_cap, coeffs=None):
        from fractions import Fraction
        scaled = {}
        for key, v in (coeffs or {}).items():
            e = (operator.index(key),) if self.arity == 1 else tuple(map(operator.index, key))
            if len(e) != self.arity or min(e) < 0 or sum(e) > degree_cap:
                raise ValueError(f"key {key} outside cap {degree_cap}")
            scaled[e] = Fraction(v) * _scale(e)
        den = lcm(*(v.denominator for v in scaled.values()))
        num = {e: v.numerator * (den // v.denominator) for e, v in scaled.items()}
        self._fill(degree_cap, num, den)

    def _fill(self, cap, num, den):
        # num is a fresh dict, kept as is unless it holds a zero
        cap = operator.index(cap)
        if cap < 0:
            raise ValueError("degree_cap must be >= 0")
        if 0 in num.values():
            num = {e: v for e, v in num.items() if v}
        g = gcd(den, *num.values()) if den > 1 else 1
        if g > 1:
            num = {e: v // g for e, v in num.items()}
            den //= g
        self.degree_cap, self.num, self.den = cap, num, den

    @classmethod
    def _new(cls, cap, num, den=1):
        """A polynomial from factorial-scale numerators over den > 0."""
        p = object.__new__(cls)
        p._fill(cap, num, den)
        return p

    @classmethod
    def one(cls, degree_cap):
        return cls._new(degree_cap, {(0,) * cls.arity: 1})

    def _key(self, e):
        return e[0] if self.arity == 1 else e

    @property
    def coeffs(self):
        """The nonzero coefficients as exact Fractions, keyed as in the constructor."""
        from fractions import Fraction
        return {self._key(e): Fraction(v, self.den * _scale(e)) for e, v in self.num.items()}

    def coefficient(self, *e):
        """The exact coefficient of x^e0 (y^e1)."""
        from fractions import Fraction
        v = self.num.get(e)
        return Fraction(v, self.den * _scale(e)) if v else Fraction(0)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.den, frozenset(self.num.items())))

    def _combine(self, other, sign):
        if type(other) is not type(self):
            return NotImplemented
        cap = min(self.degree_cap, other.degree_cap)
        den = lcm(self.den, other.den)
        a, b = den // self.den, sign * (den // other.den)
        # every key lies within its own polynomial's cap, so only an operand
        # capped above the result needs the degree filter
        if self.degree_cap > cap:
            out = {e: a * v for e, v in self.num.items() if sum(e) <= cap}
        else:
            out = dict(self.num) if a == 1 else {e: a * v for e, v in self.num.items()}
        terms = other.num.items()
        if other.degree_cap > cap:
            terms = [(e, v) for e, v in terms if sum(e) <= cap]
        get = out.get
        for e, v in terms:
            out[e] = get(e, 0) + b * v
        return self._new(cap, out, den)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self._new(self.degree_cap, {e: -v for e, v in self.num.items()}, self.den)

    def truncate(self, D):
        return self._new(D, {e: v for e, v in self.num.items() if sum(e) <= D}, self.den)

    def homogeneous_part(self, d):
        """Terms of total degree exactly d, with cap d."""
        return self._new(d, {e: v for e, v in self.num.items() if sum(e) == d}, self.den)

    def derivative(self):
        """Term-by-term derivative in x, cap lowered by one."""
        return self._new(max(self.degree_cap - 1, 0),
                         {(e[0] - 1,) + e[1:]: v for e, v in self.num.items() if e[0]}, self.den)

    def __repr__(self):
        return f"{type(self).__name__}(cap={self.degree_cap}, {dict(sorted(self.coeffs.items()))})"


class UniPoly(_Poly):
    """Univariate polynomial truncated at degree `degree_cap`; keys are ints."""

    __slots__ = ()
    arity = 1


class BiPoly(_Poly):
    """Bivariate polynomial truncated at *total* degree `degree_cap`.

    Keys are exponent pairs (i, j) with i + j <= degree_cap.
    """

    __slots__ = ()
    arity = 2


def truncated_sin(D):
    """All sine-series terms of degree <= D: sum (-1)^n x^(2n+1)/(2n+1)!."""
    return UniPoly._new(D, {(k,): (-1) ** (k // 2) for k in range(1, D + 1, 2)})


def truncated_cos(D):
    """All cosine-series terms of degree <= D: sum (-1)^n x^(2n)/(2n)!."""
    return UniPoly._new(D, {(k,): (-1) ** (k // 2) for k in range(0, D + 1, 2)})


def uni_to_bi(p, var, degree_cap):
    """Embed a UniPoly into a BiPoly on variable 0 (x) or 1 (y)."""
    if var not in (0, 1):
        raise ValueError("var must be 0 or 1")
    return BiPoly._new(degree_cap, {((k, 0) if var == 0 else (0, k)): v
                                    for (k,), v in p.num.items() if k <= degree_cap}, p.den)


_binomials = []  # _binomial_table's rows, built on first use, never at import


def _binomial_table(D):
    """Rows m = 0..D of Pascal's table, row m holding C(m + t, m) for t = 0..D - m.

    Row 0 is all ones and each later row is the running sum of the one
    before, by Pascal's rule C(m + t, m) = C(m - 1 + t, m - 1) + C(m + t - 1, m).
    Built on first use for the largest cap asked for so far; a smaller cap
    reads a prefix of each row.
    """
    global _binomials
    rows = _binomials
    if len(rows) <= D:
        rows = [[1] * (D + 1)]
        for _ in range(D):
            rows.append(list(accumulate(rows[-1][:-1])))
        _binomials = rows
    return rows


def cauchy_product(p, q, D):
    """Exact product of two same-arity polynomials, truncated at (total)
    degree D.

    For series partial sums this is the discrete-convolution product; on
    the factorial scale each pair of terms e1, e2 is weighted by the
    binomial coefficients prod_i C(e1_i + e2_i, e1_i), read from
    _binomial_table(D).
    """
    if type(p) is not type(q) or not isinstance(p, _Poly):
        raise TypeError("cauchy_product requires two UniPoly or two BiPoly operands")
    binom = _binomial_table(D)
    terms = sorted(q.num.items(), key=lambda t: sum(t[0]))
    degrees = [sum(e) for e, _ in terms]
    if p.arity == 1:
        acc = [0] * (D + 1)  # indexed by degree
        for (i1,), a in p.num.items():
            if i1 <= D:
                row = binom[i1]
                for (i2,), b in terms[:bisect_right(degrees, D - i1)]:
                    acc[i1 + i2] += a * b * row[i2]
        out = {(k,): v for k, v in enumerate(acc) if v}
    else:
        out = {}
        get = out.get
        for (i1, j1), a in p.num.items():
            if i1 + j1 <= D:
                row_i, row_j = binom[i1], binom[j1]
                for (i2, j2), b in terms[:bisect_right(degrees, D - i1 - j1)]:
                    e = (i1 + i2, j1 + j2)
                    out[e] = get(e, 0) + a * b * row_i[i2] * row_j[j2]
    return p._new(D, out, p.den * q.den)


def substitute_sum(s, D):
    """Substitute x <- (x + y) into a univariate polynomial.

    On the factorial scale (x + y)^k / k! = sum_i x^(k-i)/(k-i)! y^i/i!, so
    every numerator is copied onto the keys of its total degree; the result
    is truncated at total degree D.  Requires s.degree_cap >= D so no term
    below the cap is missing from the input.
    """
    if s.degree_cap < D:
        raise ValueError("input cap must be at least the output cap")
    return BiPoly._new(D, {(k - i, i): v for (k,), v in s.num.items() if k <= D
                           for i in range(k + 1)}, s.den)


def sine_sum_split(n):
    """The degree-(2n+1) term of the expanded sine of a sum, split by the
    parity of the x-exponent.

    Returns (part1, part2):
      part1 = (-1)^n * sum_i x^(2i+1) y^(2n-2i) / ((2i+1)! (2n-2i)!)
      part2 = the same sum with the roles of x and y exchanged.
    part1 + part2 equals the full degree-(2n+1) term of substitute_sum
    applied to the sine series, and each part equals the n-th
    discrete-convolution term of sin*cos in the corresponding variable
    ordering.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    sign = (-1) ** n
    cap = 2 * n + 1
    return (BiPoly._new(cap, {(2 * i + 1, 2 * n - 2 * i): sign for i in range(n + 1)}),
            BiPoly._new(cap, {(2 * n - 2 * i, 2 * i + 1): sign for i in range(n + 1)}))


def _residual_check(name, residual):
    """The exact CheckResult of a residual that must be the zero polynomial.

    A nonzero residual is reported by its coefficient of highest total
    degree, ties going to the highest key, and that key.
    """
    if not residual.num:
        return CheckResult(name, "exact", True, {"residual": "0", "max_degree_residual": "0"})
    worst = max(residual.num, key=lambda e: (sum(e), e))
    value = str(residual.coefficient(*worst))
    return CheckResult(name, "exact", False, {"residual": value, "max_degree_residual": value,
                                              "at": str(residual._key(worst))})


def verify_pythagorean(D):
    """Check sin^2 + cos^2 = 1 exactly at cap D.

    The residual polynomial sin^2 + cos^2 - 1 (every coefficient, up to
    degree D) must be identically zero; any nonzero coefficient makes a
    failing report, not an exception.
    """
    if D < 0:
        raise ValueError("D must be >= 0")
    s, c = truncated_sin(D), truncated_cos(D)
    residual = cauchy_product(s, s, D) + cauchy_product(c, c, D) - UniPoly.one(D)
    return _residual_check(f"pythagorean_exact_degree_{D}", residual)


def _coefficient_recursion_check():
    """Recursion-generated coefficients match the series coefficients up to degree 200."""
    coeffs = series_kernel.ode_coefficients(201)
    series = truncated_sin(200)
    num, den = series.num, series.den  # coefficient n is num[n] / (den n!)
    facts = accumulate(range(1, 201), operator.mul, initial=1)  # n!, as a running product
    ok = all(c.numerator * den * f == num.get((n,), 0) * c.denominator
             for n, (c, f) in enumerate(zip(coeffs, facts)))
    return CheckResult(
        name="coefficient_recursion_n_le_200",
        kind="exact",
        passed=ok,
        detail={"residual": "0"} if ok else {"residual": "mismatch"},
        samples=201,
    )


def verify_sine_sum(D):
    """Check sin(x+y) = sin x cos y + cos x sin y coefficient-wise at cap D."""
    if D < 1:
        raise ValueError("D must be >= 1")
    s, c = truncated_sin(D), truncated_cos(D)
    lhs = substitute_sum(s, D)
    sin_x, cos_x = uni_to_bi(s, 0, D), uni_to_bi(c, 0, D)
    sin_y, cos_y = uni_to_bi(s, 1, D), uni_to_bi(c, 1, D)
    rhs = cauchy_product(sin_x, cos_y, D) + cauchy_product(cos_x, sin_y, D)
    return _residual_check(f"sine_sum_exact_degree_{D}", lhs - rhs)


def verify_sine_sum_split(n_max):
    """Check, for every n <= n_max, that the parity split of the n-th
    addition-rule term matches the discrete-convolution terms of
    sin x cos y and cos x sin y and that the parts sum to the term itself.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    D = 2 * n_max + 1
    a = truncated_sin(D).num
    c = truncated_cos(D).num
    failures = []
    for n in range(n_max + 1):
        d = 2 * n + 1
        part1, part2 = sine_sum_split(n)
        # degree-d parts only, as factorial-scale numerators: the convolution
        # terms a_i c_(d-i) x^i y^(d-i) of sin x cos y and cos x sin y, and
        # sin's x^d / d! spread over (x + y)^d / d!
        conv_sc = BiPoly._new(d, {(i, d - i): a.get((i,), 0) * c.get((d - i,), 0)
                                  for i in range(d + 1)})
        conv_cs = BiPoly._new(d, {(i, d - i): c.get((i,), 0) * a.get((d - i,), 0)
                                  for i in range(d + 1)})
        term = BiPoly._new(d, {(d - i, i): a[(d,)] for i in range(d + 1)})
        if part1 != conv_sc or part2 != conv_cs or part1 + part2 != term:
            failures.append(n)
    return CheckResult(
        name=f"sine_sum_split_terms_n_le_{n_max}",
        kind="exact",
        passed=not failures,
        detail={"residual": "0"} if not failures else {"failing_n": str(failures)},
        samples=n_max + 1,
    )
