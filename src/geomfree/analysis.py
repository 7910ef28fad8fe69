"""Inverse sine, the circle integrals, arc length, and the oscillator
cross-check.

arcsin is built two independent ways: iteration on sin y = x
(well-conditioned for |x| <= sqrt(2)/2, reflected through Q - arcsin of
the complementary leg otherwise), and adaptive Simpson quadrature of
1/sqrt(1 - t^2) with the endpoint singularity removed by the exact
substitution u = sqrt(1 - t^2) past the sqrt(2)/2 split.

The iteration starts from the half-angle series and takes two Halley
steps on floats in one frame: the first from the value-only sine series,
the second from one certified sin_eval, whose bound, carried through that
step, bounds the result a posteriori (see arcsin_newton).  Both circle
integrals are lists of pieces (f, a, b) for one adaptive Simpson driver,
_integrate, which adds a roundoff floor to the Richardson estimate; its
tol stops at 1e-15.
The ODE oracle integrates f'' = -f with classical RK4 and tracks the
conserved quantity f^2 + f'^2.
"""

import math
from collections import namedtuple

from .constants import shared_table
from .errors import DomainError, StepTooLarge
from .series_kernel import (_INF, _U, _UNDERFLOW, CertifiedValue, _agree, _check_tol,
                            _check_tol_floor, _new_cv, _sin_value, cos_eval, sin_eval)

_SQRT_HALF = 0.7071067811865476  # float nearest sqrt(1/2)
_MAX_DEPTH = 40
_MIN_QUAD_TOL = 1e-15


QuadratureResult = namedtuple("QuadratureResult", "value est_error evaluations")
# points: (t, f, f') along the trajectory
OdeTrajectory = namedtuple("OdeTrajectory", "step points energy_drift", defaults=((), 0.0))


def _check_unit_interval(x):
    if not (-1.0 <= x <= 1.0):
        raise DomainError(f"argument must lie in [-1, 1], got {x!r}")


def _comp_sqrt(t):
    """sqrt(1 - t^2) as sqrt((1-t)(1+t)); 1-t is exact for |t| in [1/2, 1]."""
    return math.sqrt((1.0 - t) * (1.0 + t))


def arcsin_newton(x, tol):
    """Certified arcsin by Halley's iteration on the sine series, in one frame.

    For |x| <= sqrt(2)/2 the iteration solves sin y = a with a = |x| and
    c = sqrt(1 - a^2) directly; otherwise the reflection
    arcsin x = sign(x) (Q - arcsin u), u = sqrt(1 - x^2), keeps the step
    conditioned, and the iteration solves sin v = a with a = u and c = |x|
    (sqrt(1 - u^2) is |x| to rounding).  Either way a <= ~0.7072, and c
    only shapes the start.

    Start.  By the half-angle identity, sin(y/2) = b = a / sqrt(2(1 + c)),
    and y0 = 2 arcsin b with the arcsin series cut after b^9.  Here
    b <= sin(pi/8) ~ 0.383, so y0 is within 2 c5 b^11 / (1 - b^2) ~ 1.4e-6
    of arcsin a (c5 = 63/2816, the first coefficient left out).

    Steps.  Each is Halley's step for sin y - a, on floats, from s ~ sin y
    and cos y = sqrt(1 - s^2) (cos >= 0 on [0, Q]):
    dy = d c' / (c'^2 + d s/2), d = s - a, c' = sqrt(1 - s^2).  Its error
    constant tan^2(y)/4 + 1/6 is at most 0.42 here, so the first step, from
    the value-only series at y0, takes y1 to within about 1e-18 of the root,
    below rounding.  The second starts from the certified s1, e1 = sin_eval(y1),
    so the sine series is summed once by value and once certified.

    Bound, a posteriori (Rump, Verification methods, Acta Numerica 19,
    2010).  Let g = arcsin, y* = g(a) and sigma = sin y1, so
    |s1 - sigma| <= e1.  The check below makes 0 <= y1 <= 1.5 (< Q, so
    g(sigma) = y1), m = max(a, s1 + e1) <= 0.75 and |d| <= 2^-20 y1; a start
    this close never fails it, and a failure raises AssertionError rather
    than return a bound that does not hold.  Every sine met below lies in
    [0, m], where g' = 1/sqrt(1 - t^2) <= 1/cos_lo, cos_lo = sqrt((1-m)(1+m))
    rounded down.
    - d == 0 (about 81% of direct calls): s1 = a, so the step is 0 and y1 is
      returned.  By the mean value theorem |y1 - y*| = |g(sigma) - g(s1)|
      <= e1/cos_lo = b1.
    - Otherwise y2 = fl(y1 - dy) is returned, and with D = s1 - a,
      y2 - y* = (y1 - g(s1)) + (g(s1) - g(a) - H) + (H - dy) - r,
      where H is the step from D in exact arithmetic and r = y1 - dy - y2
      its rounding, which Fast2Sum gives exactly (|dy| <= 2^-18 y1).  The
      first term is at most e1/cos_lo, as above.  The second is the step's
      Taylor remainder: with c1 = sqrt(1 - s1^2), eps = D s1/(2 c1^2) and
      g'''(t) = (1 + 2t^2)/(1 - t^2)^(5/2),
        g(s1) - g(s1 - D) = D/c1 - D^2 s1/(2 c1^3) + D^3 g'''(xi)/6,
        H = (D/c1)/(1 + eps) = D/c1 - D^2 s1/(2 c1^3) + (D/c1) eps^2/(1 + eps),
      so with c1 >= cos_lo >= 0.66 and |D| <= 2^-19.4 it is at most
      4|D|^3 <= 2^-17 D^2, which d^2 covers.  The third is dy's own
      rounding: about 10 roundings, so 16u|dy|, plus 256 times the smallest
      subnormal for underflow.
    Either bound's float terms are summed with their roundings rounded up.

    The reflection subtracts v from Q as a pair: Q = q_hi + q_lo within
    four_q_err/4 (the double-double 4Q over 4, exact), Fast2Sum gives
    q_hi - v = w + lo exactly (q_hi > v), and y = w + (lo + q_lo).  Its bound
    adds to v's that radius, the rounding of y (u|y|, and 2^-50 of the
    whole for the rest) and u_err/|x| for the error of u, since
    d arcsin(u)/du = 1/sqrt(1 - u^2) ~ 1/|x| <= sqrt(2) there.
    """
    if not 0.0 < tol < _INF:  # _check_tol's test, so a valid tol costs no call
        _check_tol(tol)
    x = float(x)
    if not -1.0 <= x <= 1.0:
        raise DomainError(f"argument must lie in [-1, 1], got {x!r}")
    ax = abs(x)
    comp = math.sqrt((1.0 - ax) * (1.0 + ax))  # 1 - ax is exact for ax in [1/2, 1]
    if ax <= _SQRT_HALF:
        a, c = ax, comp
    else:
        a, c = comp, ax
    y = bound = 0.0
    if a != 0.0:
        t = 2.0 * (1.0 + c)  # 4 cos^2(y/2), so sin(y/2) = a / sqrt(t)
        b2 = a * a / t
        y = 2.0 * a / math.sqrt(t) * (
            1.0 + b2 * (1.0 / 6.0 + b2 * (0.075 + b2 * (5.0 / 112.0 + b2 * (35.0 / 1152.0)))))
        s = _sin_value(y)
        d = s - a
        c2 = (1.0 - s) * (1.0 + s)
        y -= d * math.sqrt(c2) / (c2 + 0.5 * d * s)
        s, e = sin_eval(y, tol)  # the kernel's bound does not depend on tol
        m = s + e
        if m < a:
            m = a
        d = s - a
        if not (0.0 <= y <= 1.5 and m <= 0.75 and abs(d) <= 2.0 ** -20 * y):
            raise AssertionError(f"arcsin iteration left its bracket at a={a!r}: y={y!r}, m={m!r}")
        # the square root rounded down
        cos_lo = math.sqrt((1.0 - m) * (1.0 + m)) * (1.0 - 4.0 * _U)
        if d == 0.0:  # the step would be 0: y1 with b1, its roundings rounded up
            bound = e / cos_lo * (1.0 + 4.0 * _U)
        else:
            c2 = (1.0 - s) * (1.0 + s)
            dy = d * math.sqrt(c2) / (c2 + 0.5 * d * s)
            y2 = y - dy
            r = (y - y2) - dy  # Fast2Sum: y - dy = y2 + r exactly
            bound = (e / cos_lo + d * d + 16.0 * _U * abs(dy) + abs(r) + _UNDERFLOW) * (
                1.0 + 8.0 * _U)  # six roundings rounded up
            y = y2
    if ax > _SQRT_HALF:
        tbl = shared_table()
        q_hi, q_lo = tbl.four_q_dd
        q_hi *= 0.25
        w = q_hi - y
        lo = (q_hi - w) - y  # Fast2Sum: q_hi - y = w + lo exactly
        y = w + (lo + 0.25 * q_lo)
        # u_err = 3u u, u = comp: two roundings plus the square root's half-ulp
        bound = (bound + 0.25 * tbl.four_q_err + 3.0 * _U * comp / ax + _U * y) * (1.0 + 2.0 ** -50)
    return _new_cv(CertifiedValue, (math.copysign(y, x), bound))  # y >= 0


def _integrate(pieces, tol):
    """The sum over the pieces (f, a, b) of the integral of f from a to b, each
    by adaptive Simpson with Richardson correction (Lyness, J. ACM 16(3),
    1969) to tol / len(pieces).  A panel is accepted once |S2 - S1| <= 15 tol
    or at _MAX_DEPTH (the integrands here are regular, so the cap never binds
    at the tolerances accepted); a NaN stops it at once.

    est_error sums |S2 - S1|/15 over the accepted panels and adds a roundoff
    floor.  An integrand value is within 4.5u (the roundings under the
    square root, the root, the division, and u*u in the area's outer piece),
    a panel's weighted sum and its Richardson correction add 7u, the tail's
    endpoint sqrt(1 - x^2) 2.5u, and every level of pairwise sums, the sum
    of the pieces included, u.  The integrands are positive and the pieces
    of a call run the same way, so every panel has the sign of the value and
    the rounding is at most (14 + depth) u |value|, depth that of the
    deepest accepted panel.
    """
    evaluations = deepest = 0

    def panel(f, a, fa, m, fm, b, fb, whole, tol, depth):
        nonlocal evaluations, deepest
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        evaluations += 2
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        delta = left + right - whole
        if depth >= _MAX_DEPTH or not abs(delta) > 15.0 * tol:  # a NaN delta stops at once
            deepest = max(deepest, depth)
            return left + right + delta / 15.0, abs(delta) / 15.0
        lv, le = panel(f, a, fa, lm, flm, m, fm, left, tol / 2.0, depth + 1)
        rv, re = panel(f, m, fm, rm, frm, b, fb, right, tol / 2.0, depth + 1)
        return lv + rv, le + re

    tol /= len(pieces)
    value, est = -0.0, 0.0  # -0.0 + v is v, even for v = -0.0
    for f, a, b in pieces:
        v, e = b - a, 0.0  # an empty piece: a zero with the sign of its direction
        if a != b:
            m = 0.5 * (a + b)
            fa, fm, fb = f(a), f(m), f(b)
            evaluations += 3
            v, e = panel(f, a, fa, m, fm, b, fb, (b - a) / 6.0 * (fa + 4.0 * fm + fb), tol, 0)
        value += v
        est += e
    return QuadratureResult(value, est + (14 + deepest) * _U * abs(value), max(evaluations, 1))


def _recip_circle(t):
    return 1.0 / _comp_sqrt(t)


def arcsin_quadrature(x, tol=1e-10):
    """arcsin x as the integral of 1/sqrt(1 - t^2) from 0 to x.

    Past the sqrt(2)/2 split the tail integral is transformed by
    u = sqrt(1 - t^2), which maps it onto the regular head interval and
    removes the endpoint singularity; x = +-1 is therefore an ordinary
    evaluation, reproducing +-pi/2.  For x < 0 the pieces of the even
    integrand are mirrored, which negates the value bit for bit.  Raises
    InvalidTolerance for tol below 1e-15, where the rounding of the sums
    outgrows the truncation error.
    """
    _check_tol_floor(tol, _MIN_QUAD_TOL, "quadrature")
    x = float(x)
    _check_unit_interval(x)
    if abs(x) <= _SQRT_HALF:
        pieces = [(_recip_circle, 0.0, x)]
    else:
        split = math.copysign(_SQRT_HALF, x)
        pieces = [(_recip_circle, 0.0, split),
                  (_recip_circle, math.copysign(_comp_sqrt(x), x), split)]
    return _integrate(pieces, tol)


def quarter_circle_area(tol=1e-10):
    """Integral of sqrt(1 - x^2) over [0, 1], which equals Q/2 = pi/4.

    The same u = sqrt(1 - x^2) substitution turns the outer piece into
    the regular integral of u^2/sqrt(1 - u^2) over [0, sqrt(2)/2].
    """
    _check_tol_floor(tol, _MIN_QUAD_TOL, "quadrature")
    return _integrate([(_comp_sqrt, 0.0, _SQRT_HALF),
                       (lambda u: u * u / _comp_sqrt(u), 0.0, _SQRT_HALF)], tol)


def arcsin_derivative_check(grid, h):
    """Max |central difference of arcsin - 1/sqrt(1-x^2)| over the grid.

    Expected O(h^2) away from +-1; the grid must stay inside
    (-1 + h, 1 - h) so both stencil points are in-domain.
    """
    if not h > 0.0:
        raise ValueError("h must be positive")
    worst = 0.0
    for x in grid:
        if not (-1.0 + h < x < 1.0 - h):
            raise DomainError(f"grid point {x!r} too close to the endpoints")
        hi = arcsin_newton(x + h, 1e-15).value
        lo = arcsin_newton(x - h, 1e-15).value
        diff = (hi - lo) / (2.0 * h)
        ref = 1.0 / _comp_sqrt(x)
        worst = max(worst, abs(diff - ref))
    return worst


def arc_length(a, b, tol=1e-10):
    """Arc length of y = sqrt(1 - x^2) from x=a to x=b, via the identity
    sqrt(1 + (dy/dx)^2) = 1/sqrt(1 - x^2): equals arcsin b - arcsin a.
    Each end gets tol/2, so tol stops at twice the quadrature's 1e-15."""
    _check_tol_floor(tol, 2.0 * _MIN_QUAD_TOL, "arc_length")
    a, b = float(a), float(b)
    if not (-1.0 <= a <= b <= 1.0):
        raise DomainError(f"need -1 <= a <= b <= 1, got a={a!r}, b={b!r}")
    ga = arcsin_quadrature(a, tol / 2.0)
    gb = arcsin_quadrature(b, tol / 2.0)
    value = gb.value - ga.value
    est = ga.est_error + gb.est_error + _U * abs(value)
    return QuadratureResult(value, est, ga.evaluations + gb.evaluations)


def unit_circle_point(a):
    """The point (cos s, sin s) at arc length s = Q - arcsin(a) from (1, 0)
    along the upper unit circle; checks that it reproduces
    (a, sqrt(1 - a^2)) within certified bounds."""
    a = float(a)
    _check_unit_interval(a)
    tbl = shared_table()
    s, s_err = CertifiedValue(tbl.q, tbl.q_float_err) - arcsin_newton(a, 1e-14)
    cs = cos_eval(s, 1e-15)
    sn = sin_eval(s, 1e-15)
    comp = _comp_sqrt(abs(a))  # within 3u comp of sqrt(1 - a^2), as in arcsin_newton
    if not _agree(cs, (a, s_err)):  # cos and sin are 1-Lipschitz: s_err passes through
        raise AssertionError("cos(arc length) failed to reproduce the abscissa")
    if not _agree(sn, (comp, s_err + 3.0 * _U * comp)):
        raise AssertionError("sin(arc length) failed to reproduce the ordinate")
    return cs.value, sn.value, s


def ode_oracle(t_end, step):
    """Classical RK4 on f'' = -f from (f, f') = (0, 1).

    Records the trajectory and the drift of the conserved quantity
    f^2 + f'^2 (identically 1 along the true solution).  Fixed step keeps
    the O(step^4) global error bound statable, for at most 1e6 steps.
    """
    t_end = float(t_end)
    step = float(step)
    if not (0.0 < step <= 1e-2):
        raise StepTooLarge(f"step must be in (0, 1e-2], got {step!r}")
    if not (0.0 <= t_end <= 100.0):
        raise DomainError(f"t_end must be in [0, 100], got {t_end!r}")
    if t_end / step > 1e6:  # every step is kept in points
        raise StepTooLarge(f"step {step!r} takes more than 1e6 steps to reach {t_end!r}")

    f, g = 0.0, 1.0
    points = [(0.0, f, g)]
    drift = 0.0
    n_full = int(math.floor(t_end / step + 1e-12))
    remainder = t_end - n_full * step
    for i in range(1, n_full + (remainder > 0.0) + 1):
        h, t = (step, i * step) if i <= n_full else (remainder, t_end)
        # f' = g, g' = -f
        k1f, k1g = g, -f
        k2f, k2g = g + 0.5 * h * k1g, -(f + 0.5 * h * k1f)
        k3f, k3g = g + 0.5 * h * k2g, -(f + 0.5 * h * k2f)
        k4f, k4g = g + h * k3g, -(f + h * k3f)
        f, g = (f + h / 6.0 * (k1f + 2.0 * k2f + 2.0 * k3f + k4f),
                g + h / 6.0 * (k1g + 2.0 * k2g + 2.0 * k3g + k4g))
        points.append((t, f, g))
        drift = max(drift, abs(f * f + g * g - 1.0))
    return OdeTrajectory(step=step, points=points, energy_drift=drift)
