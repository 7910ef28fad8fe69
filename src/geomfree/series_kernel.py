"""Certified floating-point sine/cosine from their defining power series.

Evaluation pipeline:

1. Reduce mod Q.  |x| below Q/2 is used as is (k = 0).  Otherwise k is the
   integer nearest |x|/Q and r = |x| - kQ comes from a Cody-Waite split of
   the certified Q into Q1 + Q2 + Q3 (27, 27 and 53 bits), carried as a
   float pair (r_hi, r_lo).
2. Pick the quadrant.  With j = k mod 4, sin(jQ + r) is +-sin r or +-cos r
   by the exact Q-multiples table; cos x is sin(x + Q).  The sign of x is
   applied last, so sin(-x) == -sin(x) bit for bit.
3. Evaluate in floats, straight-line: a Horner polynomial in z = r_hi**2 of
   degree 17 (sine) or 16 (cosine), or only the leading part where the rest
   is below 2**-54 of it, by the degree table derived at import; cosine is 1,
   with no two_prod, where z <= 2**-54.  Only the leading part is error-free
   (cosine's 1 - z/2 through two_prod and Fast2Sum); r_lo enters as a
   first-order correction.
4. Bound.  The returned CertifiedValue's absolute bound is the row's
   truncation constant + the derived Horner rounding + the reduction error
   (k times the certified error of Q1 + Q2 + Q3, plus its roundings) + one
   rounding of the result.  The derivation sits above _eval.

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
_INF = math.inf
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
        if not 0.0 <= abs_error_bound < _INF:  # also false for nan
            raise ValueError("abs_error_bound must be finite and >= 0")
        return _new_cv(cls, (value, abs_error_bound))

    @classmethod
    def _make(cls, iterable):  # _replace builds through this; keep it checked
        return cls(*iterable)

    # Interval-style propagation; each operation also accounts for its own
    # rounding so chained checks stay honest.  A plain int or float is exact;
    # any other operand is NotImplemented, so Python raises TypeError.
    def __add__(self, other):
        w, e = _pair(other)
        if e is None:
            return NotImplemented
        v = self.value + w
        return CertifiedValue(v, self.abs_error_bound + e + _U * abs(v))

    __radd__ = __add__

    def __neg__(self):
        return CertifiedValue(-self.value, self.abs_error_bound)

    def __sub__(self, other):
        w, e = _pair(other)
        if e is None:
            return NotImplemented
        v = self.value - w
        return CertifiedValue(v, self.abs_error_bound + e + _U * abs(v))

    def __rsub__(self, other):
        w, e = _pair(other)
        if e is None:
            return NotImplemented
        v = w - self.value
        return CertifiedValue(v, self.abs_error_bound + e + _U * abs(v))

    def __mul__(self, other):
        w, e = _pair(other)
        if e is None:
            return NotImplemented
        v = self.value * w
        b = (abs(self.value) * e
             + abs(w) * self.abs_error_bound
             + self.abs_error_bound * e
             + _U * abs(v)
             + _TINY)  # a product below the normal range loses up to _TINY / 2
        return CertifiedValue(v, b)

    __rmul__ = __mul__


def _is_real(x):
    """True for an int or a float, the plain numbers of the package; a bool is neither."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _pair(x):
    """(value, bound) of a CertifiedValue or a plain number, else (None, None)."""
    if isinstance(x, CertifiedValue):
        return x
    return (float(x), 0.0) if _is_real(x) else (None, None)


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


# Horner kernels in z = r**2.  Each coefficient, a quotient of integers below
# 2**53, is the float nearest its rational, within a relative rho_n <= u:
#   sin r = r + r z (s_1 + z (s_2 + ... + z s_8)),           s_n = (-1)**n / (2n+1)!
#   cos r = (1 - z/2) + z**2 (c_2 + z (c_3 + ... + z c_8)),  c_n = (-1)**n / (2n)!
# Degree table, from the exact coefficients a_n of w**n (w = r**2): rows (largest
# z, first omitted n, t), where t bounds a_n w**n per unit of the tail's scale,
# |r| z (sine, j = 1) or z**2 (cosine, j = 2), at the row's largest z, and so the
# alternating, shrinking remainder below it.  Row 0 keeps only the leading part,
# up to where |a_j| z**j reaches 2**-54 (1 - z/2); row 1 keeps n <= 8.
_Z_MAX = 0.6169  # above fl(r**2) for |r| <= 0.7854, the largest reduced argument


def _degree_table(a, j):
    # row 0 ends just inside its edge: 1 - 2**-20 < 1 - z/2 there, past the roundings
    z0 = float((Fraction(_HALF_U) / abs(a[j])) ** Fraction(1, j)) * (1.0 - 2.0 ** -20)
    return tuple((z, n, float(abs(a[n]) * Fraction(z) ** (n - j)) * (1.0 + 2.0 ** -50))
                 for z, n in ((z0, j), (_Z_MAX, len(a) - 1)))


_ODE = ode_coefficients(20)  # c_(2n+1) = (-1)**n / (2n+1)!; cosine's are (2n+1) c_(2n+1)
_COS_A = [(2 * n + 1) * _ODE[2 * n + 1] for n in range(10)]
_SIN_TABLE = _degree_table([_ODE[2 * n + 1] for n in range(10)], 1)
_COS_TABLE = _degree_table(_COS_A, 2)
_COS_Z_ONE = float(Fraction(_HALF_U) / 2 / abs(_COS_A[1]))  # cosine's constant row: |a_1| z <= 2**-55

# Error bound of _eval.  u = 2**-53, gamma_n = nu/(1 - nu).  |r| <= 0.7854 (k
# is nearest |x|/Q up to 2e-8), so z <= _Z_MAX.  The series runs on r_hi, and
# r_lo (|r_lo| <= u|r_hi|) enters as a first-order correction.  The bound is
# (t + H) m z + c_lo |r_lo| + reduction + u|value| + underflow, with m = |r_hi|
# (sine) or z (cosine), t from the row, and H the Horner rounding per u m z
# (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 5.1):
# - Sine: in p = s_1 + z (s_2 + ...), s_n passes through 2n - 1 roundings (s_8
#   through 14): |p - P(z)| <= sum (rho_n + gamma_(2n-1)) |s_n| z**(n-1), and
#   with z's rounding (u z |P'|) 0.276.  The products r z p add gamma_3 |p| <=
#   0.5, the sum with the correction u|r z p| <= 0.167: H = 0.95.
# - Cosine keeps 1 - (z + zl)/2 exact (two_prod, then Fast2Sum).  In its tail
#   (z z) q, q loses 0.067, the products gamma_4 |q| <= 0.167 (z = r**2 - zl,
#   |zl| <= u z), the sum with the low parts u|tail| <= 0.042: H = 0.28.
# - Row 0 has no tail, H = 0; its sine is r, which is r_hi + r_lo rounded.
# - Cosine's constant row, z <= 2**-54, returns 1 before two_prod, as row 0
#   would: there h <= 2**-55 gives lead = 1 - h = 1, and low = -h - zl/2 - r_lo r
#   (|zl| <= u z, |r_lo| <= u|r|) has |low| < 2**-54, so fl(lead + low) = 1.
#   Its bound is row 0's, term for term.
# - Correction: sine's r_lo (1 - z/2) is off from sin(r_hi + r_lo) - sin(r_hi)
#   by <= |r_lo| (z**2/24 + 4u) + r_lo**2/2 <= 0.016|r_lo|, cosine's -r_lo r_hi
#   by <= |r_lo| (|r_hi|**3/6 + u) + r_lo**2/2 <= 0.081|r_lo|.
# - Reduction: sin and cos are 1-Lipschitz, so the reduced argument's error
#   passes through: k k_err for the split of Q plus the reduction's two
#   roundings, u(|k Q3| + |e - k Q3|).
# - Underflow: an operation that lands below the normal range loses up to
#   _TINY / 2, which reaches the result (through z, the truncation term) with
#   a factor <= 1; 256 _TINY covers the < 64 operations of a call.
# - 1 + 2**-40 covers the bound's own float sum (8u), z for r_hi**2 in m z (2u)
#   and cosine's low parts, summed with roundings < 2**-100 < 2**-98 |value|.
_SIN_Z0, _COS_Z0 = _SIN_TABLE[0][0], _COS_TABLE[0][0]
_SIN_K0, _SIN_K = _SIN_TABLE[0][2], _SIN_TABLE[1][2] + 0.95 * _U  # per row, t + H
_COS_K0, _COS_K = _COS_TABLE[0][2], _COS_TABLE[1][2] + 0.28 * _U
_UNDERFLOW = 256 * _TINY
_ROUND_UP = 1.0 + 2.0 ** -40


def _sin_value(r):
    """sin r for 0 <= r <= Q/2, value only: the sine Horner of _eval, with no
    reduction, no bound and no table lookup.  Equal to sin_eval(r, tol).value
    wherever _eval leaves r unreduced; written out rather than shared so that
    _eval makes no extra call."""
    z = r * r
    return r + r * z * (-1 / 6 + z * (1 / 120 + z * (-1 / 5040 + z * (1 / 362880 + z * (
        -1 / 39916800 + z * (1 / 6227020800 + z * (-1 / 1307674368000
                                                     + z * (1 / 355687428096000))))))))


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
    z = r * r
    if use_cos:
        if z <= _COS_Z_ONE:  # row 0 would round to 1 here (bound comment)
            val, k = 1.0, _COS_K0
        else:
            z, zl = two_prod(r, r)
            h = 0.5 * z
            lead = 1.0 - h
            low = ((1.0 - lead) - h - 0.5 * zl) - r_lo * r  # Fast2Sum's exact error of 1 - h first
            if z <= _COS_Z0:
                val, k = lead + low, _COS_K0
            else:
                val = lead + (low + z * z * (1 / 24 + z * (-1 / 720 + z * (1 / 40320 + z * (
                    -1 / 3628800 + z * (1 / 479001600 + z * (-1 / 87178291200
                                                             + z * (1 / 20922789888000))))))))
                k = _COS_K
        m, c_lo = z, 0.081
    else:
        if z <= _SIN_Z0:
            val, k = r, _SIN_K0
        else:
            val = r + (r * z * (-1 / 6 + z * (1 / 120 + z * (-1 / 5040 + z * (1 / 362880 + z * (
                -1 / 39916800 + z * (1 / 6227020800 + z * (-1 / 1307674368000
                                                             + z * (1 / 355687428096000))))))))
                       + r_lo * (1.0 - 0.5 * z))
            k = _SIN_K
        m, c_lo = abs(r), 0.016
    bound = (k * m * z + c_lo * abs(r_lo) + red_err + _U * abs(val) + _UNDERFLOW) * _ROUND_UP
    if shift == 0 and x < 0.0:
        sign = -sign
    return _new_cv(CertifiedValue, (val if sign > 0 else -val, bound))


def sin_eval(x, tol):
    """Certified sine: quadrant reduction mod Q, then the float series.

    Raises DomainError for |x| > 1e8 (the reduction is certified only
    below) and InvalidTolerance unless 0 < tol < inf.  At any tol the
    series is cut where the rest is below half an ulp of its leading part,
    so results are accurate relative to their size and the bound does not
    depend on tol; requests below an ulp or so are satisfied best-effort,
    and the honest, larger bound is reported.
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
