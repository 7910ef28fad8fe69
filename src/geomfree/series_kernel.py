"""Certified floating-point sine/cosine from their defining power series.

Evaluation pipeline:

0. Tolerance, then tiny arguments.  A valid tol costs one comparison; a bad
   one goes to _check_tol, which raises.  For |x| <= 2**-27, where fl(x*x)
   reaches cosine's constant row, sin x = x and cos x = 1 with row 0's bound
   (for cosine a constant, and the result one CertifiedValue built at
   import), returned before the domain test and before the reduction
   constants (and so the shared table) are read.  Only then is x tested
   against the domain, |x| <= 1e8 and finite.
1. Reduce mod Q.  |x| below Q/2 is used as is (k = 0).  Otherwise k is the
   integer nearest |x|/Q and r = |x| - kQ comes from a Cody-Waite split of
   the certified Q into Q1 + Q2 + Q3 (27, 27 and 53 bits), carried as a
   float pair (r_hi, r_lo); r_lo comes from Knuth's TwoSum, written out in
   the evaluator.  Below 5Q/2, where k is 1 or 2, k comes from comparisons
   with two edges derived from the nearest-k formula itself, and k's
   products from a table; above, they are computed.  Both paths then run
   the one TwoSum block, with bit-identical results.
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
   rounding of the result.  The derivation sits above _kernel.

sin_eval and cos_eval are one evaluator, built twice by _kernel(shift) with
the shift as a closure variable, so a call runs in one frame.  It and
analysis.arcsin_newton build their results with the trusted
constructor _new_cv(CertifiedValue, (value, bound)), which skips the check
that the bound is finite and >= 0; their bounds are so by construction,
and nothing else may call it (a static audit in the tests checks this).
CertifiedValue(value, bound) and its arithmetic keep the check, because an
overflow can make a bound infinite.  Each of +, - and * reads a plain
number as an exact (value, 0.0) pair and builds its result once.

No platform trigonometric function appears anywhere in this call graph.
"""

import math
import operator
from collections import namedtuple
from fractions import Fraction

from .doubledouble import two_prod
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


def ode_coefficients(count):
    """First `count` coefficients from the recursion, all exact, as a
    tuple indexed by n.

    c_0 = 0 and c_1 = 1 are the initial conditions; every later
    coefficient is c_{n+2} = -c_n / ((n+2)(n+1)), run on integer
    numerators and denominators, with one Fraction per coefficient.
    """
    if count < 2:
        raise ValueError("count must be >= 2")
    num, den = [0, 1], [1, 1]
    for n in range(count - 2):
        num.append(-num[n])
        den.append(den[n] * (n + 2) * (n + 1))
    return tuple(map(Fraction, num, den))


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

    k = 1 and 2 come from a table.  edge2 and edge3 are the smallest doubles
    at which the nearest-k formula of the general path, int(a * inv_q + 0.5),
    gives 2 and 3, found by stepping from (k - 1/2) Q; the formula never
    decreases in a, so above Q/2 it gives 1 below edge2 and 2 below edge3,
    and the table takes the formula's k on every double.  rows[shift] holds
    k = 0's quadrant and, for k = 1 and 2, (k Q1, -k Q2, k Q3, |k Q3|,
    k k_err, quadrants[(k + shift) & 3]): doubling is exact, so each entry is
    what the general path computes.  general holds what it computes them
    from, for |x| >= edge3.
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
    inv_q = 1.0 / tbl.q
    quadrants = tuple((s != 0, s or c) for _, s, c in tbl.q_multiples[:4])

    def edge(k):  # the smallest double a with int(a * inv_q + 0.5) >= k
        a = (k - 0.5) * tbl.q
        while int(a * inv_q + 0.5) >= k:
            a = math.nextafter(a, 0.0)
        while int(a * inv_q + 0.5) < k:
            a = math.nextafter(a, _INF)
        return a

    def entry(k, shift):  # what the general path computes for this k
        return k * q1, -k * q2, k * q3, abs(k * q3), k * k_err, quadrants[(k + shift) & 3]

    rows = tuple((quadrants[shift], entry(1, shift), entry(2, shift)) for shift in (0, 1))
    _reduction = (half_q, edge(2), edge(3), rows, (inv_q, q1, q2, q3, k_err, quadrants))
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

# Error bound of the evaluator that _kernel builds, sin_eval and cos_eval.
# u = 2**-53, gamma_n = nu/(1 - nu).  |r| <= 0.7854 (k is nearest |x|/Q up to
# 2e-8), so z <= _Z_MAX.  The series runs on r_hi, and
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
# - The tiny row, |x| <= _ROW0_EDGE, runs right after the tolerance test and
#   before the domain test and the reduction: a tiny x is finite and in range,
#   and nan and +-inf fail the row's test and go on to the domain test.  There
#   k = 0, r = |x|, r_lo = 0 and the reduction error is 0, and z = fl(x*x) <=
#   _COS_Z_ONE < _SIN_Z0, so sine is in row 0 (value x) and cosine in its
#   constant row (value 1).  Its bound is row 0's, term for term: the two terms
#   it leaves out, c_lo |r_lo| and the reduction error, are +0.0, and adding
#   +0.0 to a float >= 0 is exact.  x = +-0.0 keeps the exact (x or 1, 0).
#   Cosine's is the constant _COS_TINY: with z <= 2**-54 and _COS_K0 < 2**-4.58,
#   fl(_COS_K0 z z) <= 2**-112.5, below half an ulp of _U (2**-106), so
#   fl(_COS_K0 z z + _U) = _U, and what is left of row 0's formula, + _UNDERFLOW
#   and * _ROUND_UP, is the constant's own float arithmetic.  So every tiny
#   cosine is the same pair, returned as one shared result, _COS_TINY_ONE.
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
# The tiny row's edge: the largest x with fl(x*x) <= _COS_Z_ONE.  _COS_Z_ONE is
# 2**-54, so its square root 2**-27 is exact, and the next double squares above it.
_ROW0_EDGE = math.sqrt(_COS_Z_ONE)
_COS_TINY = (_U + _UNDERFLOW) * _ROUND_UP  # the tiny row's cosine bound (bound comment)
_COS_TINY_ONE = CertifiedValue(1.0, _COS_TINY)  # the tiny row's cosine, one shared result


def _sin_value(r):
    """sin r for 0 <= r <= Q/2, value only: the sine Horner of sin_eval, with
    no reduction, no bound and no table lookup.  Equal to sin_eval(r, tol).value
    wherever sin_eval leaves r unreduced; written out rather than shared so
    that sin_eval makes no extra call."""
    z = r * r
    return r + r * z * (-1 / 6 + z * (1 / 120 + z * (-1 / 5040 + z * (1 / 362880 + z * (
        -1 / 39916800 + z * (1 / 6227020800 + z * (-1 / 1307674368000
                                                     + z * (1 / 355687428096000))))))))


def _kernel(shift):
    """The certified evaluator of sin x (shift 0) or of cos x = sin(x + Q)
    (shift 1).  shift is a closure variable, so a call runs in one frame."""

    def evaluate(x, tol):
        if not 0.0 < tol < _INF:  # _check_tol's test, so a valid tol costs no call
            _check_tol(tol)
        x = float(x)
        ax = abs(x)
        if ax <= _ROW0_EDGE:  # sin x = x, cos x = 1, before the domain test (bound comment)
            if ax == 0.0:
                return _new_cv(CertifiedValue, (x if shift == 0 else 1.0, 0.0))
            if shift == 0:
                z = ax * ax
                bound = (_SIN_K0 * ax * z + _U * ax + _UNDERFLOW) * _ROUND_UP
                return _new_cv(CertifiedValue, (x, bound))
            return _COS_TINY_ONE
        if not ax <= _MAX_ARG:
            raise DomainError(f"|x| must be <= {_MAX_ARG:g} and finite, got {x!r}")
        half_q, edge2, edge3, rows, general = _reduction or _bind_reduction()
        if ax <= half_q:
            r, r_lo, red_err = ax, 0.0, 0.0
            use_cos, sign = rows[shift][0]
        else:
            if ax < edge3:  # k = 1 or 2, the formula's k by the edges: read, not computed
                kq1, nkq2, p, ap, red_err, (use_cos, sign) = rows[shift][1 if ax < edge2 else 2]
            else:
                inv_q, q1, q2, q3, k_err, quadrants = general
                ki = int(ax * inv_q + 0.5)
                k = float(ki)
                kq1, nkq2, p = k * q1, -k * q2, k * q3
                ap, red_err = abs(p), k * k_err
                use_cos, sign = quadrants[(ki + shift) & 3]
            t = ax - kq1     # exact: k*q1 is exact and within a factor 2 of ax
            s = t + nkq2     # Knuth's TwoSum of t and -k*q2 (exact, 26 + 27 bits), written out
            v = s - t
            e = (t - (s - v)) + (nkq2 - v)
            lo = e - p
            r = s + lo       # TwoSum of s and lo, written out: r + r_lo = s + lo
            v = r - s
            r_lo = (s - (r - v)) + (lo - v)
            red_err += _U * (ap + abs(lo))  # the two roundings, on k k_err
        z = r * r
        if use_cos:
            if z <= _COS_Z_ONE:  # row 0 would round to 1 here (bound comment)
                val, k = 1.0, _COS_K0
            else:
                z, zl = two_prod(r, r)
                h = 0.5 * z
                lead = 1.0 - h
                # Fast2Sum's exact error of 1 - h first
                low = ((1.0 - lead) - h - 0.5 * zl) - r_lo * r
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
                val = r + (r * z * (-1 / 6 + z * (1 / 120 + z * (-1 / 5040 + z * (
                    1 / 362880 + z * (-1 / 39916800 + z * (1 / 6227020800 + z * (
                        -1 / 1307674368000 + z * (1 / 355687428096000))))))))
                           + r_lo * (1.0 - 0.5 * z))
                k = _SIN_K
            m, c_lo = abs(r), 0.016
        bound = (k * m * z + c_lo * abs(r_lo) + red_err + _U * abs(val) + _UNDERFLOW) * _ROUND_UP
        if shift == 0 and x < 0.0:
            sign = -sign
        return _new_cv(CertifiedValue, (val if sign > 0 else -val, bound))

    evaluate.__name__ = evaluate.__qualname__ = ("sin_eval", "cos_eval")[shift]
    return evaluate


sin_eval = _kernel(0)
sin_eval.__doc__ = """Certified sine: quadrant reduction mod Q, then the float series.

    Raises DomainError for |x| > 1e8 (the reduction is certified only
    below) and InvalidTolerance unless 0 < tol < inf.  At any tol the
    series is cut where the rest is below half an ulp of its leading part,
    so the bound does not depend on tol; requests below an ulp or so are
    satisfied best-effort, and the honest, larger bound is reported.  The
    absolute bound always holds.  The relative error is about an ulp except
    next to a zero of sin or cos at large k = |x|/Q: there the reduced
    argument keeps Q to 107 bits, so the relative error grows with k (66.9
    ulp at x = 45.553093477052, 8.0 million ulp at x = 14461176.67027838).
    """

cos_eval = _kernel(1)
cos_eval.__doc__ = """Certified cosine; same contract as sin_eval, via cos x = sin(x + Q)."""


def _series_sum(p, q, terms, odd, sign_only=False):
    """The sine (odd) or cosine series at x = p/q (q > 0), summed on integers.

    Returns (num, den, m, decided): num / den, not reduced, is the sum of
    the first m terms, and decided says that its magnitude exceeds
    |term m|, which bounds the remainder.  With P = p**2, S = q**2, o = 1
    for sine and 0 for cosine, and d_n = (2n+o-1)(2n+o), term n is
    x**o (-P)**n / D_n, D_n = S**n d_1 ... d_n.  The sum runs forward over
    the common denominator, num <- num S d_n + (-P)**n.  m is `terms`,
    raised until the omitted terms decrease (P <= S d_(m+1)).  decided,
    times D_m / |x|**o, is |num| S d_m > P**m, so it needs no Fraction.
    With sign_only the sum stops earlier, at the first such m that is
    decided, and den is None: a sign needs no power of S.  The exact
    evaluators and find_q's Newton polish share this one loop.
    """
    if abs(p) > 4 * q:
        raise DomainError("exact series evaluation requires |x| <= 4")
    if operator.index(terms) < 1:
        raise ValueError("terms must be >= 1")
    o = 1 if odd else 0
    P, S = p * p, q * q
    num = power = 1  # num / D_(n-1) is the sum of terms 0 .. n-1; power -> P**n
    n = 1
    step = S * (o + 1) * (o + 2)  # S d_n = D_n / D_(n-1)
    while True:
        power *= P
        nxt = S * (2 * n + o + 1) * (2 * n + o + 2)
        if P <= nxt and (n >= terms or sign_only and abs(num) * step > power):
            break
        num = num * step + (power if n % 2 == 0 else -power)
        step = nxt
        n += 1
    decided = abs(num) * step > power
    if odd:
        num = p * num
    if sign_only:
        return num, None, n, decided
    den = S ** (n - 1) * math.factorial(2 * n + o - 2)
    return num, q * den if odd else den, n, decided


def _eval_series_exact(x, terms, odd, sign_only=False):
    """(sum of the first m terms, |term m|) of the sine (odd) or cosine
    series, both Fractions, by _series_sum; the sum is reduced once.

    |term m| is |x|**(2m+o) / (2m+o)!; p and q are coprime, so its reduction
    needs only the gcd with the factorial.  With sign_only the sum stops at
    the first decided truncation and only the certified sign is returned:
    that of the partial sum if it is decided, else 0.
    """
    x = Fraction(x)
    num, den, m, decided = _series_sum(x.numerator, x.denominator, terms, odd, sign_only)
    if sign_only:
        return (num > 0) - (num < 0) if decided else 0
    e = 2 * m + (1 if odd else 0)
    return Fraction(num, den), abs(x) ** e / math.factorial(e)


def sin_eval_exact(x, terms):
    """Exact partial sum of `terms` nonzero sine terms plus the remainder
    bound |first omitted term|.

    If the omitted terms are not yet decreasing at the requested
    truncation, more terms are added internally so the bound is valid.
    Returns a pair of exact rationals (value, bound).
    """
    return _eval_series_exact(x, terms, True)


def cos_eval_exact(x, terms, sign_only=False):
    """Exact cosine partial sum; identical contract to sin_eval_exact.

    With sign_only, returns only the sign of the first partial sum within
    `terms` whose magnitude exceeds its bound (no Fraction is built), or 0.
    """
    return _eval_series_exact(x, terms, False, sign_only)
