"""Constructive derivation of Q (first positive zero of cosine) and pi = 2Q.

Every rational here is a pair of integers, and every float comes from one
correctly rounded integer division, so building the table loads no
`fractions`.  Q is found by bisection on [0, 2], with the bracket's ends
kept as integer numerators over 2**n.  Every sign decision is certified in
exact rational arithmetic by one call of the series kernel's integer core,
_series_sum, whose sum runs forward over one common denominator and stops
at the first partial sum whose distance from zero exceeds the
alternating-series remainder bound; only that sum's sign is kept.  A
Newton polish that uses sin Q = 1 (y <- y + cos y) refines Q to a 2**-200
dyadic, far past binary64: each step takes the unreduced cosine sum from
the same core, computes no remainder, and rounds y + cos y to 2**-200 by
one integer division.  Two more exact sign checks, at the dyadic points
2**-167 either side of it, certify Q inside the reported radius 1e-50
(refined_radius), from which certified_bound follows (bisection_iterations
counts the bisection steps).  The polished numerator q_exact_num (over
2**200; q_exact is the Fraction, built on read) is what the sine/cosine
kernel splits for its range reduction; it also yields a double-double
representation of the full period 4Q.
"""

import functools
from collections import namedtuple

from .errors import ToleranceTooTight
from .series_kernel import _check_tol_floor, _round_half_even, _scaled, _series_sum, cos_eval_exact

_MAX_TERMS = 100          # series-degree budget: 2*100 = degree 200
_POLISH_BITS = 200        # dyadic rounding between Newton polish steps
_REFINE_DEN = 10 ** 50    # the reported radius around q_exact is 1 / _REFINE_DEN
_CERT_BITS = _REFINE_DEN.bit_length()  # 2**-167: largest power of two below the radius


class ConstantsTable(namedtuple("ConstantsTable", (
        "q", "pi", "q_multiples",
        "certified_bound",        # radius of the certified bracket around q
        "q_exact_num",            # q_exact's integer numerator over 2**200
        "refined_radius",
        "q_float_err",            # |q - Q| bound for the binary64 field
        "four_q_dd", "four_q_err", "bisection_iterations"))):
    """Q, pi, the sin/cos values at multiples of Q, and certification data.

    q_multiples holds exact small integers, not floats: (k, sin kQ, cos kQ)
    for k = 0..4.  four_q_dd is the double-double period, with
    |hi + lo - 4Q| <= four_q_err certified.
    """

    __slots__ = ()

    @property
    def q_exact(self):
        """The polished Fraction q_exact_num / 2**200, within refined_radius of Q."""
        from fractions import Fraction
        return Fraction(self.q_exact_num, 1 << _POLISH_BITS)


def _certified_sign(p, q=1, or_zero=False):
    """Sign of cos at the rational point p/q (integers, q > 0), certified by
    remainder bounds.

    One exact cosine sum stops at its first partial sum, of at most
    _MAX_TERMS terms, whose magnitude exceeds the alternating-series
    remainder bound; no partial sum is discarded, and only the sign is
    returned.  If no partial sum decides it, returns 0 if or_zero, else
    raises ToleranceTooTight.
    """
    num, _, _, decided = _series_sum(p, q, _MAX_TERMS, False, sign_only=True)
    if decided:
        return (num > 0) - (num < 0)
    if or_zero:
        return 0
    raise ToleranceTooTight(
        f"cos sign at {p / q} not decidable within degree {2 * _MAX_TERMS}")


def _certified_bisection(tol):
    """Bisection on [0, 2] with certified endpoint signs at every step.

    Returns (a, b, n), the bracket [a/2**n, b/2**n] as integer numerators;
    cos > 0 at its left end and cos < 0 at its right end hold, certified,
    throughout, and n counts the steps.
    """
    if _certified_sign(0) <= 0 or _certified_sign(2) >= 0:
        raise AssertionError("initial bracket signs failed certification")
    tn, td = tol.as_integer_ratio()
    a, b, n = 0, 2, 0
    while (b - a) * td > tn << n:  # hi - lo > tol
        m, a, b, n = a + b, 2 * a, 2 * b, n + 1
        if _certified_sign(m, 1 << n) > 0:
            a = m
        else:
            b = m
    return a, b, n


def find_q(tol):
    """Locate Q = min{x in [0,2] : cos x = 0} with certified brackets.

    Bisection keeps cos > 0 on the left end and cos < 0 on the right end
    until the bracket width is at most tol.  Cosine is strictly
    decreasing on [0, 2]: its derivative -sin is negative there, since
    sin x >= x - x^3/6 > 0 for 0 < x <= 2, as _sin_positive_check decides
    on integers (cos 2 < 0 is _cos2_certificate).  So the bracketed zero
    is the only one in (0, 2), the least positive one.
    A Newton polish on integers then refines the midpoint to a 2**-200
    dyadic, two exact sign checks at the dyadic points 2**-167 either
    side of it certify a bracket inside the reported radius 1e-50, and
    the reported radius tol/2 (or hi - lo) follows from it.
    """
    tol = _check_tol_floor(tol, 1e-15, "find_q")

    lo, hi, iterations = _certified_bisection(tol)  # the bracket [lo, hi] / 2**iterations
    width = hi - lo

    # Newton polish with sin Q = 1: y <- y + cos y maps Q + e to Q + (e - sin e)
    # and increases with fixed point Q, so its iterates stay between the
    # midpoint and Q; dyadic rounding keeps the rationals small.  The step
    # count follows from the bracket: |e - sin e| <= |e|^3/6, each step adds
    # at most 2^-200 (the rounding, and the 40-term truncation below 1e-94),
    # and steps stop once e^3/6 is below that; e = en/ed on integers.
    # y = a/q on integers: each step rounds (y + c) 2^200 = (a den + num q) 2^200 / (q den),
    # with c = num/den the unreduced cosine sum, by one integer division.
    scale = 1 << _POLISH_BITS
    steps, en, ed = 1, width, 2 << iterations
    while en ** 3 << _POLISH_BITS > 6 * ed ** 3:  # e^3/6 > 2^-200; e <- e^3/6 + 2^-200
        steps, en, ed = steps + 1, (en ** 3 << _POLISH_BITS) + 6 * ed ** 3, 6 * ed ** 3 * scale
    a, q = lo + hi, 2 << iterations  # the bracket's midpoint
    for _ in range(steps):
        num, den, _, _ = _series_sum(a, q, 40, False)
        a, q = _round_half_even((a * den + num * q) << _POLISH_BITS, q * den), scale

    # re-certify: cos changes sign between the dyadic points y -/+ rho
    # (rho = rho_a / 2^200, first 2^-167), so |y - Q| < rho < refined = rn/rd,
    # the reported radius; past any indecisive point both radii widen by 1024
    rn, rd, rho_a = 1, _REFINE_DEN, 1 << (_POLISH_BITS - _CERT_BITS)
    while (_certified_sign(a - rho_a, scale, or_zero=True) <= 0
           or _certified_sign(a + rho_a, scale, or_zero=True) >= 0):
        rn, rho_a = rn * 1024, rho_a * 1024
        if rn << iterations > width * rd:  # refined > hi - lo: back to the midpoint
            a = (lo + hi) << (_POLISH_BITS - iterations - 1)
            rn, rd = width, 2 << iterations
            break

    # |y - Q| <= refined <= hi - lo <= 2, so either radius bounds |y - Q|,
    # and y -/+ radius stays inside (-Q, 3Q), where cos changes sign only at Q
    tn, td = tol.as_integer_ratio()
    if 2 * rn * td <= tn * rd and tn << iterations <= 2 * td * width:  # refined <= tol/2 <= hi - lo
        certified_bound = tol / 2
    else:
        certified_bound = width / (1 << iterations)

    # each float below is one integer division, and a multiple of 2^-200, so
    # its difference from a rational over 2^200 is an integer numerator too
    q_float = a / scale
    q_float_err = ((abs(_scaled(q_float, _POLISH_BITS) - a) * rd + rn * scale)
                   / (scale * rd) * (1.0 + 1e-9))

    dd_hi = 4 * a / scale
    rest = 4 * a - _scaled(dd_hi, _POLISH_BITS)
    dd_lo = rest / scale
    resid = abs(rest - _scaled(dd_lo, _POLISH_BITS))
    four_q_err = (resid * rd + 4 * rn * scale) / (scale * rd) * (1.0 + 1e-9)

    return ConstantsTable(
        q=q_float,
        pi=2.0 * q_float,
        q_multiples=q_multiples_table(),
        certified_bound=certified_bound,
        q_exact_num=a,
        refined_radius=rn / rd,
        q_float_err=q_float_err,
        four_q_dd=(dd_hi, dd_lo),
        four_q_err=four_q_err,
        bisection_iterations=iterations,
    )


def q_multiples_table():
    """(k, sin kQ, cos kQ) for k = 0..4 as exact integers.

    Derived symbolically: sin Q = 1 and cos Q = 0 seed the table, then
    each row follows from the double-angle rule sin 2a = 2 sin a cos a
    and the reflection sin(Q - a) = cos a, never from float evaluation.
    """
    sq, cq = 1, 0
    s2q = 2 * sq * cq                  # sin 2Q = 2 sin Q cos Q
    c2q = -sq                          # cos 2Q = sin(Q - 2Q) = -sin Q
    s3q = sq * c2q + cq * s2q          # sin 3Q = sin(Q + 2Q)
    c3q = -s2q                         # cos 3Q = sin(Q - 3Q) = -sin 2Q
    s4q = 2 * s2q * c2q                # sin 4Q = 2 sin 2Q cos 2Q
    c4q = -s3q                         # cos 4Q = sin(Q - 4Q) = -sin 3Q
    return (
        (0, 0, 1),
        (1, sq, cq),
        (2, s2q, c2q),
        (3, s3q, c3q),
        (4, s4q, c4q),
    )


@functools.cache
def shared_table():
    """The table used across the package; computed once, immutable after."""
    return find_q(1e-13)


def pi_value():
    """pi = 2Q from the shared table (built lazily on first use)."""
    return shared_table().pi


def _cos2_certificate():
    """Exact certification that cos 2 <= -131/315 from a 4-term partial sum."""
    from fractions import Fraction

    from .report import CheckResult  # deferred: only verify builds the four checks here
    partial, bound = cos_eval_exact(Fraction(2), 4)
    ok = (partial == Fraction(-19, 45)
          and bound == Fraction(2, 315)
          and partial + bound <= Fraction(-131, 315))
    return CheckResult(
        name="cos2_certified_negative",
        kind="exact",
        passed=ok,
        detail={"partial_sum": str(partial), "bound": str(bound),
                "certified_upper": str(partial + bound)},
        samples=1,
    )


def _sin_lower_bound_holds(x_max):
    """Whether sin x >= x - x^3/6 > 0 for every 0 < x <= x_max, decided on
    the integers of x_max = p/q.

    In pairs, sin x = (x - x^3/3!) + the sum over k >= 1 of
    x^(4k+1)/(4k+1)! (1 - x^2/((4k+2)(4k+3))).  The first pair is positive
    when x^2 < 6; each later pair is non-negative when x^2 <= (4k+2)(4k+3),
    a limit that grows with k from 42 at k = 1.  Both conditions, met at
    x_max, hold on all of (0, x_max].
    """
    p2, q2 = x_max.numerator ** 2, x_max.denominator ** 2
    return p2 < 6 * q2 and p2 <= 42 * q2


def _sin_positive_check():
    """sin > 0 on (0, 2], so cos decreases strictly on [0, 2]: with cos 0 = 1
    and cos 2 < 0 (_cos2_certificate), the zero that find_q brackets is the
    only one in (0, 2), the least positive zero Q."""
    from .report import CheckResult
    x_max = 2
    return CheckResult(
        name="sin_positive_on_0_2",
        kind="exact",
        passed=_sin_lower_bound_holds(x_max),
        detail={"x_max": str(x_max), "x_max_squared": str(x_max ** 2),
                "first_pair_limit": "6", "later_pair_limit": "42"},
        samples=1,
    )


def _q_multiples_check():
    from .report import CheckResult
    expected = ((0, 0, 1), (1, 1, 0), (2, 0, -1), (3, -1, 0), (4, 0, 1))
    got = q_multiples_table()
    return CheckResult(
        name="q_multiples_table",
        kind="exact",
        passed=got == expected,
        detail={"residual": "0"} if got == expected else {"got": str(got)},
        samples=5,
    )


def _period_minimality_check(sin_positive, cos2):
    """4Q is the least period of sin and cos, decided exactly.

    sin > 0 on (0, Q] (`sin_positive`, the _sin_positive_check result, with
    Q < 2 by `cos2`, the _cos2_certificate result).  The table's sin 2Q = 0
    and cos 2Q = -1 give sin(2Q - x) = sin x and sin(x + 2Q) = -sin x, so
    on (0, 4Q) sin vanishes only at 2Q, where cos 2Q = -1.  A period R has
    sin R = sin 0 = 0 and cos R = cos 0 = 1, so none lies in (0, 4Q);
    sin 4Q = 0 and cos 4Q = 1 make 4Q one.  No float is evaluated.
    """
    from .report import CheckResult
    rows = {k: (s, c) for k, s, c in q_multiples_table()}
    premises = {
        sin_positive.name: sin_positive.passed,
        cos2.name: cos2.passed,
        "q_multiples": rows[2] == (0, -1) and rows[4] == (0, 1),
    }
    failed = [name for name, held in premises.items() if not held]
    return CheckResult(
        name="period_minimality",
        kind="exact",
        passed=not failed,
        detail={"failed": ", ".join(failed)} if failed else {"least_period": "4Q"},
        samples=1,
    )
