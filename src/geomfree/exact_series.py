"""Exact truncated polynomial algebra over arbitrary-precision rationals.

UniPoly and BiPoly are sparse polynomials truncated at a fixed (total)
degree cap, with every coefficient an exact rational.  On top of them sit
the coefficient-level verifications: the Pythagorean identity
sin^2 + cos^2 = 1 and the sine addition rule sin(x+y) = sin x cos y +
cos x sin y, both checked with zero residual up to the chosen cap.

No floating point is used anywhere in this module.
"""

from fractions import Fraction
from math import factorial

from .report import CheckResult

# Coefficient field for all exact computation: arbitrary-precision signed
# rationals, always in lowest terms with positive denominator.
ExactRational = Fraction

_ZERO = Fraction(0)


def _pascal_row(n):
    """Row n of Pascal's triangle, by the additive recurrence (exact ints)."""
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row


class UniPoly:
    """Univariate polynomial truncated at degree `degree_cap`.

    Coefficients are stored sparsely (absent key means zero) and
    normalized on construction; equality is coefficient-wise.
    """

    __slots__ = ("degree_cap", "coeffs")

    def __init__(self, degree_cap, coeffs=None):
        if degree_cap < 0:
            raise ValueError("degree_cap must be >= 0")
        self.degree_cap = int(degree_cap)
        clean = {}
        for k, v in (coeffs or {}).items():
            k = int(k)
            if k < 0 or k > self.degree_cap:
                raise ValueError(f"exponent {k} outside cap {self.degree_cap}")
            v = Fraction(v)
            if v != 0:
                clean[k] = v
        self.coeffs = clean

    @classmethod
    def zero(cls, degree_cap):
        return cls(degree_cap, {})

    @classmethod
    def one(cls, degree_cap):
        return cls(degree_cap, {0: 1})

    def coefficient(self, k):
        return self.coeffs.get(k, _ZERO)

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        cap = min(self.degree_cap, other.degree_cap)
        out = {}
        for k in set(self.coeffs) | set(other.coeffs):
            if k <= cap:
                out[k] = self.coefficient(k) + other.coefficient(k)
        return UniPoly(cap, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return UniPoly(self.degree_cap, {k: -v for k, v in self.coeffs.items()})

    def truncate(self, D):
        return UniPoly(D, {k: v for k, v in self.coeffs.items() if k <= D})

    def derivative(self):
        """Term-by-term derivative, cap lowered by one."""
        cap = max(self.degree_cap - 1, 0)
        return UniPoly(cap, {k - 1: k * v for k, v in self.coeffs.items() if k >= 1})

    def __repr__(self):
        return f"UniPoly(cap={self.degree_cap}, {dict(sorted(self.coeffs.items()))})"


class BiPoly:
    """Bivariate polynomial truncated at *total* degree `degree_cap`.

    Keys are exponent pairs (i, j) with i + j <= degree_cap.
    """

    __slots__ = ("degree_cap", "coeffs")

    def __init__(self, degree_cap, coeffs=None):
        if degree_cap < 0:
            raise ValueError("degree_cap must be >= 0")
        self.degree_cap = int(degree_cap)
        clean = {}
        for (i, j), v in (coeffs or {}).items():
            i, j = int(i), int(j)
            if i < 0 or j < 0 or i + j > self.degree_cap:
                raise ValueError(f"key {(i, j)} outside cap {self.degree_cap}")
            v = Fraction(v)
            if v != 0:
                clean[(i, j)] = v
        self.coeffs = clean

    @classmethod
    def zero(cls, degree_cap):
        return cls(degree_cap, {})

    @classmethod
    def one(cls, degree_cap):
        return cls(degree_cap, {(0, 0): 1})

    def coefficient(self, i, j):
        return self.coeffs.get((i, j), _ZERO)

    def __eq__(self, other):
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        cap = min(self.degree_cap, other.degree_cap)
        out = {}
        for k in set(self.coeffs) | set(other.coeffs):
            if k[0] + k[1] <= cap:
                out[k] = self.coeffs.get(k, _ZERO) + other.coeffs.get(k, _ZERO)
        return BiPoly(cap, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return BiPoly(self.degree_cap, {k: -v for k, v in self.coeffs.items()})

    def truncate(self, D):
        return BiPoly(D, {k: v for k, v in self.coeffs.items() if k[0] + k[1] <= D})

    def homogeneous_part(self, d):
        """Terms of total degree exactly d, as a BiPoly with cap d."""
        return BiPoly(d, {k: v for k, v in self.coeffs.items() if k[0] + k[1] == d})

    def __repr__(self):
        return f"BiPoly(cap={self.degree_cap}, {dict(sorted(self.coeffs.items()))})"


def truncated_sin(D):
    """All sine-series terms of degree <= D: sum (-1)^n x^(2n+1)/(2n+1)!."""
    coeffs = {}
    n = 0
    while 2 * n + 1 <= D:
        coeffs[2 * n + 1] = Fraction((-1) ** n, factorial(2 * n + 1))
        n += 1
    return UniPoly(D, coeffs)


def truncated_cos(D):
    """All cosine-series terms of degree <= D: sum (-1)^n x^(2n)/(2n)!."""
    coeffs = {}
    n = 0
    while 2 * n <= D:
        coeffs[2 * n] = Fraction((-1) ** n, factorial(2 * n))
        n += 1
    return UniPoly(D, coeffs)


def uni_to_bi(p, var, degree_cap):
    """Embed a UniPoly into a BiPoly on variable 0 (x) or 1 (y)."""
    if var not in (0, 1):
        raise ValueError("var must be 0 or 1")
    out = {}
    for k, v in p.coeffs.items():
        if k <= degree_cap:
            out[(k, 0) if var == 0 else (0, k)] = v
    return BiPoly(degree_cap, out)


def cauchy_product(p, q, D):
    """Exact product of two same-arity polynomials, truncated at (total)
    degree D.

    For series partial sums this is the discrete-convolution product: the
    coefficient of each surviving monomial is the finite convolution of
    the factors' coefficients.
    """
    if isinstance(p, UniPoly) and isinstance(q, UniPoly):
        out = {}
        for i, a in p.coeffs.items():
            for j, b in q.coeffs.items():
                k = i + j
                if k <= D:
                    out[k] = out.get(k, _ZERO) + a * b
        return UniPoly(D, out)
    if isinstance(p, BiPoly) and isinstance(q, BiPoly):
        out = {}
        for (i1, j1), a in p.coeffs.items():
            for (i2, j2), b in q.coeffs.items():
                if i1 + i2 + j1 + j2 <= D:
                    key = (i1 + i2, j1 + j2)
                    out[key] = out.get(key, _ZERO) + a * b
        return BiPoly(D, out)
    raise TypeError("cauchy_product requires two UniPoly or two BiPoly operands")


def substitute_sum(s, D):
    """Substitute x <- (x + y) into a univariate polynomial.

    Every power (x+y)^k is expanded with exact binomial coefficients;
    the result is truncated at total degree D.  Requires s.degree_cap >= D
    so no term below the cap is missing from the input.
    """
    if s.degree_cap < D:
        raise ValueError("input cap must be at least the output cap")
    out = {}
    for k, c in s.coeffs.items():
        if k > D:
            continue
        row = _pascal_row(k)
        for i in range(k + 1):
            key = (k - i, i)
            out[key] = out.get(key, _ZERO) + c * row[i]
    return BiPoly(D, out)


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
    p1, p2 = {}, {}
    for i in range(n + 1):
        c = Fraction(sign, factorial(2 * i + 1) * factorial(2 * n - 2 * i))
        p1[(2 * i + 1, 2 * n - 2 * i)] = c
        p2[(2 * n - 2 * i, 2 * i + 1)] = c
    return BiPoly(cap, p1), BiPoly(cap, p2)


def _residual_detail(residual_coeffs):
    if not residual_coeffs:
        return {"residual": "0", "max_degree_residual": "0"}
    worst_key = max(residual_coeffs, key=lambda k: (k if isinstance(k, int) else k[0] + k[1]))
    return {
        "residual": str(residual_coeffs[worst_key]),
        "max_degree_residual": str(residual_coeffs[worst_key]),
        "at": str(worst_key),
    }


def verify_pythagorean(D):
    """Check sin^2 + cos^2 = 1 exactly at cap D.

    The residual polynomial sin^2 + cos^2 - 1 (every coefficient, up to
    degree D) must be identically zero; any nonzero coefficient makes a
    failing report, not an exception.
    """
    if D < 0:
        raise ValueError("D must be >= 0")
    s = truncated_sin(D)
    c = truncated_cos(D)
    total = cauchy_product(s, s, D) + cauchy_product(c, c, D)
    residual = total - UniPoly.one(D)
    return CheckResult(
        name=f"pythagorean_exact_degree_{D}",
        kind="exact",
        passed=not residual.coeffs,
        detail=_residual_detail(residual.coeffs),
        samples=1,
    )


def verify_sine_sum(D):
    """Check sin(x+y) = sin x cos y + cos x sin y coefficient-wise at cap D."""
    if D < 1:
        raise ValueError("D must be >= 1")
    lhs = substitute_sum(truncated_sin(D), D)
    sin_x = uni_to_bi(truncated_sin(D), 0, D)
    cos_x = uni_to_bi(truncated_cos(D), 0, D)
    sin_y = uni_to_bi(truncated_sin(D), 1, D)
    cos_y = uni_to_bi(truncated_cos(D), 1, D)
    rhs = cauchy_product(sin_x, cos_y, D) + cauchy_product(cos_x, sin_y, D)
    residual = lhs - rhs
    return CheckResult(
        name=f"sine_sum_exact_degree_{D}",
        kind="exact",
        passed=not residual.coeffs,
        detail=_residual_detail(residual.coeffs),
        samples=1,
    )


def verify_sine_sum_split(n_max):
    """Check, for every n <= n_max, that the parity split of the n-th
    addition-rule term matches the discrete-convolution terms of
    sin x cos y and cos x sin y and that the parts sum to the term itself.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    D = 2 * n_max + 1
    a = truncated_sin(D).coefficient
    c = truncated_cos(D).coefficient
    failures = []
    for n in range(n_max + 1):
        d = 2 * n + 1
        part1, part2 = sine_sum_split(n)
        # degree-d parts only: the convolution terms a_i c_(d-i) x^i y^(d-i)
        # of sin x cos y and cos x sin y, and the binomial row of sin's x^d
        conv_sc = BiPoly(d, {(i, d - i): a(i) * c(d - i) for i in range(d + 1)})
        conv_cs = BiPoly(d, {(i, d - i): c(i) * a(d - i) for i in range(d + 1)})
        term = BiPoly(d, {(d - i, i): a(d) * b for i, b in enumerate(_pascal_row(d))})
        if part1 != conv_sc or part2 != conv_cs or part1 + part2 != term:
            failures.append(n)
    return CheckResult(
        name=f"sine_sum_split_terms_n_le_{n_max}",
        kind="exact",
        passed=not failures,
        detail={"residual": "0"} if not failures else {"failing_n": str(failures)},
        samples=n_max + 1,
    )
