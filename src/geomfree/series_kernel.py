"""Certified floating-point sine/cosine from their defining power series.

Evaluation pipeline:

1. Reduce mod Q.  |x| below Q/2 is used as is (k = 0).  Otherwise k is the
   integer nearest |x|/Q and r = |x| - kQ comes from a Cody-Waite split of
   the certified Q into Q1 + Q2 + Q3 (27, 27 and 53 bits), carried as a
   float pair (r_hi, r_lo).
2. Pick the quadrant.  With j = k mod 4, sin(jQ + r) is +-sin r or +-cos r
   by the exact Q-multiples table; cos x is sin(x + Q).  The sign of x is
   applied last, so sin(-x) == -sin(x) bit for bit.
3. Evaluate in floats.  Terms follow t <- -t*z/den with z = r_hi**2 and stop
   at the first term at most min(tol/2, 2**-54 |leading term|), which keeps
   results accurate relative to their size.  Only the leading part is
   error-free (cosine's 1 - z/2 through two_prod), r_lo enters as a
   first-order correction, and one math.fsum adds the terms.
4. Bound.  The returned CertifiedValue's absolute bound is the first
   omitted term (the terms alternate and shrink) + the reduction error
   (k times the certified error of Q1 + Q2 + Q3, plus its roundings) + the
   derived rounding of the float terms + one rounding of the result.  The
   derivation sits above _eval.

_eval and analysis.arcsin_newton build their results with the trusted
constructor _new_cv(CertifiedValue, (value, bound)), which skips the check
that the bound is finite and >= 0; their bounds are so by construction,
and nothing else may call it (a static audit in the tests checks this).
CertifiedValue(value, bound) and its arithmetic keep the check, because an
overflow can make a bound infinite.  Each of +, - and * reads a plain
number as an exact (value, 0.0) pair and builds its result once.

No platform trigonometric function appears anywhere in this call graph.
"""

import math
from collections import namedtuple
from fractions import Fraction

from .doubledouble import two_prod, two_sum
from .errors import DomainError, InvalidTolerance

_U = 2.0 ** -53          # unit roundoff of binary64; 2 * _U is ulp(1)
_HALF_U = 2.0 ** -54
_TINY = 2.0 ** -1074     # smallest subnormal
_MAX_ARG = 1.0e8         # keeps k < 2**26, which the reduction's exact products need

_new_cv = tuple.__new__  # the trusted constructor: no check of the bound (module docstring)


class CertifiedValue(namedtuple("CertifiedValue", "value abs_error_bound")):
    """A binary64 value paired with a proven absolute error bound.

    The true mathematical quantity lies in
    [value - abs_error_bound, value + abs_error_bound] whenever the
    producing operation's preconditions held.  An immutable named tuple:
    it compares and hashes as the pair (value, abs_error_bound).
    """

    __slots__ = ()

    def __new__(cls, value, abs_error_bound):
        if not (abs_error_bound >= 0.0 and math.isfinite(abs_error_bound)):
            raise ValueError("abs_error_bound must be finite and >= 0")
        return _new_cv(cls, (value, abs_error_bound))

    @classmethod
    def _make(cls, iterable):  # _replace builds through this; keep it checked
        return cls(*iterable)

    # Interval-style propagation; each operation also accounts for its own
    # rounding so chained checks stay honest.  A plain number is exact.
    def __add__(self, other):
        w, e = _pair(other)
        v = self.value + w
        return CertifiedValue(v, self.abs_error_bound + e + _U * abs(v))

    __radd__ = __add__

    def __neg__(self):
        return CertifiedValue(-self.value, self.abs_error_bound)

    def __sub__(self, other):
        w, e = _pair(other)
        v = self.value - w
        return CertifiedValue(v, self.abs_error_bound + e + _U * abs(v))

    def __rsub__(self, other):
        w, e = _pair(other)
        v = w - self.value
        return CertifiedValue(v, self.abs_error_bound + e + _U * abs(v))

    def __mul__(self, other):
        w, e = _pair(other)
        v = self.value * w
        b = (abs(self.value) * e
             + abs(w) * self.abs_error_bound
             + self.abs_error_bound * e
             + _U * abs(v)
             + _TINY)  # a product below the normal range loses up to _TINY / 2
        return CertifiedValue(v, b)

    __rmul__ = __mul__


def _pair(x):
    """(value, bound) of a CertifiedValue, or (float(x), 0.0) of a plain number."""
    return x if isinstance(x, CertifiedValue) else (float(x), 0.0)


class SeriesCoefficients(tuple):
    """Power-series coefficients c_n generated by the defining recursion
    (n+2)(n+1) c_{n+2} + c_n = 0 from c_0 = 0, c_1 = 1; a tuple indexed by n."""

    __slots__ = ()

    @property
    def coeffs(self):
        return tuple(self)


def ode_coefficients(count):
    """First `count` coefficients from the recursion, all exact.

    c_0 = 0 and c_1 = 1 are the initial conditions; every later
    coefficient is c_{n+2} = -c_n / ((n+2)(n+1)).
    """
    if count < 2:
        raise ValueError("count must be >= 2")
    c = [Fraction(0), Fraction(1)]
    for n in range(count - 2):
        c.append(-c[n] / ((n + 2) * (n + 1)))
    return SeriesCoefficients(c)


def _check_tol(tol):
    """The one tolerance rule of the package: positive and finite."""
    if not 0.0 < tol < math.inf:
        raise InvalidTolerance(f"tolerance must be positive and finite, got {tol!r}")


def _check_tol_floor(tol, floor, what):
    """_check_tol, and the floor below which `what` cannot meet tol."""
    _check_tol(tol)
    if tol < floor:
        raise InvalidTolerance(f"{what} supports tolerances down to {floor:g}, got {tol!r}")


def _round_to_bits(v, bits):
    """The float nearest the rational v with at most `bits` significant bits."""
    e = math.frexp(float(v))[1]
    return math.ldexp(round(v * Fraction(2) ** (bits - e)), e - bits)


_reduction = None  # bound once, on first use, by _bind_reduction


def _bind_reduction():
    """Derive the reduction constants from the shared table and bind them.

    Q is split Cody-Waite style into Q1 + Q2 + Q3 from the certified
    q_exact: Q1 and Q2 carry 27 bits each, Q3 is the rest rounded to a
    float.  k_err bounds |Q1 + Q2 + Q3 - Q| per unit of k.  quadrants[j]
    says how sin(jQ + r) = sin(jQ) cos r + cos(jQ) sin r reduces, from the
    exact Q-multiples table: (whether it is the cosine series, its sign).
    """
    global _reduction
    from .constants import shared_table  # deferred: constants builds on the exact evaluators

    tbl = shared_table()
    q = tbl.q_exact
    q1 = _round_to_bits(q, 27)
    q2 = _round_to_bits(q - Fraction(q1), 27)
    q3 = float(q - Fraction(q1) - Fraction(q2))
    split = abs(Fraction(q1) + Fraction(q2) + Fraction(q3) - q)
    # rounded up past the float conversions of split and refined_radius
    k_err = (float(split) + tbl.refined_radius) * (1.0 + 2.0 ** -49)
    half_q = math.nextafter(float(q / 2), 0.0)  # below Q/2: q_exact is within 1e-50 of Q
    quadrants = tuple((s != 0, s or c) for _, s, c in tbl.q_multiples[:4])
    _reduction = (half_q, 1.0 / tbl.q, q1, q2, q3, k_err, quadrants)
    return _reduction


# Denominators of the term recurrence t_n = -t_{n-1} z / den_n with z = r**2:
# (2n)(2n+1) for sine, (2n-1)(2n) for cosine, n >= 1.  With |r| < 1 every term
# from n = 90 on is below half the smallest subnormal, so the stop test of
# _eval (t <= stop, stop >= 0) is met before either table runs out.
_SIN_DEN = tuple(float(2 * n * (2 * n + 1)) for n in range(1, 100))
_COS_DEN = tuple(float((2 * n - 1) * 2 * n) for n in range(1, 100))

# Error bound of _eval.  u = 2**-53; |r| <= 0.7854 (k is nearest |x|/Q up
# to 2e-8), so z <= 0.6169.  r_hi + r_lo is the reduced argument, with
# |r_lo| <= u|r_hi|; the series runs on r_hi, and r_lo enters as a
# first-order correction.
#
# - Truncation: terms alternate and shrink from the first omitted one on
#   (z < den), so the remainder is at most |t_N|; its float value is within
#   a relative 3Nu of the true term.
# - Term rounding: a kept sine term t_n carries 3n roundings (z, the product,
#   the quotient), t_n/t_{n-1} <= z/20 from n = 2 on, so the total is
#   3u|t_1|/(1 - z/20)**2 <= 3.2u|t_1| <= 0.55u |r_hi| z.  Cosine keeps
#   1 - (zh + zl)/2 exact (two_prod); t_n for n >= 2 carries 3n - 2
#   roundings and shrinks by z/30, so the total is <= 4.2u|t_2| <= 0.11u z.
# - Correction: sine uses r_lo (1 - z/2), which is off from
#   sin(r_hi + r_lo) - sin(r_hi) by <= |r_lo| (z**2/24 + 3u) + r_lo**2/2
#   <= 0.016|r_lo|; cosine uses -r_lo r_hi, off by
#   <= |r_lo| (|r_hi|**3/6 + u) + r_lo**2/2 <= 0.081|r_lo|.
# - Reduction: sin and cos are 1-Lipschitz, so the reduced argument's error
#   passes through unchanged: k k_err for the split of Q plus the two
#   roundings of the reduction, u(|k Q3| + |e - k Q3|).
# - Result: math.fsum rounds the exact sum of the terms once, <= u|value|.
# - Underflow: an operation that lands below the normal range adds up to
#   _TINY / 2 outright.  There are at most 3N + 14 such losses, counting an
#   error in z once for each term it enters; 256 _TINY covers N < 100.
# - The bound's own float sum loses at most a relative 8u, and the truncation
#   term 3Nu; the factor 1 + 2**-40 covers both.
_SIN = (_SIN_DEN, 0.55 * _U, 0.016)
_COS = (_COS_DEN, 0.11 * _U, 0.081)
_UNDERFLOW = 256 * _TINY
_ROUND_UP = 1.0 + 2.0 ** -40


def _sin_value(r):
    """sin r for 0 <= r <= Q/2 by the sine series of _eval, value only: no
    reduction, no bound.  Accurate to about an ulp.  The term loop is
    _eval's, written out here so that _eval itself makes no extra call."""
    z = r * r
    stop = _HALF_U * r
    t = r
    terms = [r]
    for den in _SIN_DEN:
        t = -t * z / den
        if -stop <= t <= stop:
            break
        terms.append(t)
    return math.fsum(terms)


def _eval(x, tol, shift):
    """sin(x) for shift 0, cos(x) = sin(x + Q) for shift 1."""
    _check_tol(tol)
    x = float(x)
    ax = abs(x)
    if not ax <= _MAX_ARG:
        raise DomainError(f"|x| must be <= {_MAX_ARG:g} and finite, got {x!r}")
    if ax == 0.0:
        return _new_cv(CertifiedValue, (x if shift == 0 else 1.0, 0.0))
    half_q, inv_q, q1, q2, q3, k_err, quadrants = _reduction or _bind_reduction()
    if ax <= half_q:
        r, r_lo, red_err, j = ax, 0.0, 0.0, shift
    else:
        ki = int(ax * inv_q + 0.5)
        k = float(ki)
        t = ax - k * q1  # exact: k*q1 is exact and within a factor 2 of ax
        w = k * q2       # exact: 26 + 27 bits
        s, e = two_sum(t, -w)
        p = k * q3
        lo = e - p
        r, r_lo = two_sum(s, lo)
        red_err = k * k_err + _U * (abs(p) + abs(lo))
        j = (ki + shift) & 3
    use_cos, sign = quadrants[j]
    if use_cos:
        z, zl = two_prod(r, r)
        t = lead = 1.0
        terms = [1.0, -0.5 * zl, -r_lo * r]
        dens, c_rnd, c_lo = _COS
    else:
        z = r * r
        t = r
        lead = abs(r)
        terms = [r, r_lo * (1.0 - 0.5 * z)]
        dens, c_rnd, c_lo = _SIN
    stop = 0.5 * tol
    if stop > _HALF_U * lead:
        stop = _HALF_U * lead
    for den in dens:
        t = -t * z / den
        if -stop <= t <= stop:
            break
        terms.append(t)
    val = math.fsum(terms)
    bound = (abs(t) + c_rnd * lead * z + c_lo * abs(r_lo) + red_err
             + _U * abs(val) + _UNDERFLOW) * _ROUND_UP
    if shift == 0 and x < 0.0:
        sign = -sign
    return _new_cv(CertifiedValue, (val if sign > 0 else -val, bound))


def sin_eval(x, tol):
    """Certified sine: quadrant reduction mod Q, then the float series.

    Raises DomainError for |x| > 1e8 (the reduction is certified only
    below) and InvalidTolerance unless 0 < tol < inf.  The series runs
    until its first omitted term is below min(tol/2, 2**-54 * |leading
    term|), so results are accurate relative to their size even at loose
    tol; requests below an ulp or so are satisfied best-effort, and the
    honest, larger bound is reported.
    """
    return _eval(x, tol, 0)


def cos_eval(x, tol):
    """Certified cosine; same contract as sin_eval, via cos x = sin(x + Q)."""
    return _eval(x, tol, 1)


def _eval_series_exact(x, terms, odd, until_sign=False, sign_only=False):
    """(sum of the first m terms, |term m|) of the sine (odd) or cosine series.

    With x = p/q, P = p**2, S = q**2, o = 1 for sine and 0 for cosine, and
    d_n = (2n+o-1)(2n+o), term n is x**o (-P)**n / D_n, D_n = S**n d_1 ... d_n.
    The sum runs forward on integers over the common denominator,
    num <- num S d_n + (-P)**n, and is reduced to lowest terms once, at the
    end.  m is `terms`, raised until the omitted terms decrease
    (P <= S d_(m+1)), so that |term m| bounds the remainder.  With until_sign
    the sum stops earlier, at the first such m whose partial sum exceeds
    |term m| in magnitude: the series then has the partial sum's sign, and
    no partial sum is discarded.  |term m| is |x|**(2m+o) / (2m+o)!; p and q
    are coprime, so its reduction needs only the gcd with the factorial.
    sign_only implies until_sign and returns only the certified sign: that
    of the partial sum if it exceeds |term m|, else 0.  That comparison,
    times D_m / |x|**o, is |num| S d_m > P**m, so no Fraction is built.
    """
    x = Fraction(x)
    p, q = x.numerator, x.denominator
    if abs(p) > 4 * q:
        raise DomainError("exact series evaluation requires |x| <= 4")
    if terms < 1:
        raise ValueError("terms must be >= 1")
    o = 1 if odd else 0
    until_sign = until_sign or sign_only
    P, S = p * p, q * q
    num = power = 1  # num / D_(n-1) is the sum of terms 0 .. n-1; power -> P**n
    n = 1
    step = S * (o + 1) * (o + 2)  # S d_n = D_n / D_(n-1)
    while True:
        power *= P
        nxt = S * (2 * n + o + 1) * (2 * n + o + 2)
        if P <= nxt and (n >= terms or until_sign and abs(num) * step > power):
            break
        num = num * step + (power if n % 2 == 0 else -power)
        step = nxt
        n += 1
    p_o, q_o = (p, q) if odd else (1, 1)
    if sign_only:
        s = p_o * num
        return (s > 0) - (s < 0) if abs(num) * step > power else 0
    den = S ** (n - 1) * math.factorial(2 * n + o - 2)
    return Fraction(p_o * num, q_o * den), abs(x) ** (2 * n + o) / math.factorial(2 * n + o)


def sin_eval_exact(x, terms, until_sign=False):
    """Exact partial sum of `terms` nonzero sine terms plus the remainder
    bound |first omitted term|.

    If the omitted terms are not yet decreasing at the requested
    truncation, more terms are added internally so the bound is valid.
    With until_sign, the sum stops at the first valid truncation of at most
    that many terms whose |partial sum| exceeds the bound, which then
    certifies the sign.  Returns a pair of exact rationals (value, bound).
    """
    return _eval_series_exact(x, terms, True, until_sign)


def cos_eval_exact(x, terms, until_sign=False, sign_only=False):
    """Exact cosine partial sum; identical contract to sin_eval_exact.

    With sign_only, returns only the sign that until_sign certifies (no
    Fraction is built), or 0 if no truncation within `terms` decides it.
    """
    return _eval_series_exact(x, terms, False, until_sign, sign_only)
