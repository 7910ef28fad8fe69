"""Independent oracles used by the tests.

Deliberately simple implementations that share no code with the package:
forward exact-rational summation with the alternating remainder, a
fixed-order bisection for the cosine zero, an integer-sqrt-based
rational square root, and a schoolbook truncated polynomial algebra on
plain Fraction dicts.  These reproduce the frozen expected values the
tests assert against.
"""

import math
from fractions import Fraction
from math import isqrt

# frozen from pre-build oracle runs
SIN_1 = 0.8414709848078965
COS_2 = -0.4161468365471424
Q_REF = 1.5707963267948966
PI_REF = 3.141592653589793
PI_4 = 0.7853981633974483
PI_6 = 0.5235987755982989   # correctly rounded pi/6 (fl(pi)/6 is one ulp lower)
SQRT2_OVER_2 = 0.7071067811865476
SQRT3_OVER_2 = 0.8660254037844386
TWO_OVER_SQRT3 = 1.1547005383792515


def series_enclosures(x, terms, odd):
    """[(partial sum of the first m terms, |first omitted term|) for m = 0 ..
    terms] of the sine (odd) or cosine series, exact: forward summation, each
    term the last one times -x**2 / ((2n+o+1)(2n+o+2)), o = 1 for sine."""
    x = Fraction(x)
    o = 1 if odd else 0
    s, t = Fraction(0), x if odd else Fraction(1)
    sums = [(s, abs(t))]
    for n in range(terms):
        s += t
        t = -t * x * x / ((2 * n + o + 1) * (2 * n + o + 2))
        sums.append((s, abs(t)))
    return sums


def sin_enclosure(x, terms):
    """(partial sum, |first omitted term|) of the sine series, exact."""
    return series_enclosures(x, terms, True)[terms]


def cos_enclosure(x, terms):
    return series_enclosures(x, terms, False)[terms]


def sin_oracle(x, terms=30):
    """High-precision rational sine for |x| <= 4 (error below 1e-60)."""
    return sin_enclosure(x, terms)[0]


def cos_oracle(x, terms=30):
    return cos_enclosure(x, terms)[0]


def cos_sign_oracle(x):
    """Certified sign of cos at a rational point, fixed 48-term order."""
    x = Fraction(x)
    if x == 0:
        return 1
    s, b = cos_enclosure(x, 48)
    assert x * x <= (2 * 48 + 1) * (2 * 48 + 2), "remainder bound not applicable"
    assert abs(s) > b, "sign not decidable at this order"
    return 1 if s > 0 else -1


def q_bracket_oracle(width):
    """Bisect [0, 2] for the cosine zero until the bracket is no wider than
    `width`; returns the bracket (lo, hi) as Fractions."""
    lo, hi = Fraction(0), Fraction(2)
    assert cos_sign_oracle(lo) > 0 and cos_sign_oracle(hi) < 0
    target = Fraction(width)
    while hi - lo > target:
        mid = (lo + hi) / 2
        if cos_sign_oracle(mid) > 0:
            lo = mid
        else:
            hi = mid
    return lo, hi


def bisect_q_oracle(width):
    """The midpoint of q_bracket_oracle(width), a Fraction."""
    lo, hi = q_bracket_oracle(width)
    return (lo + hi) / 2


def _polish(lo, hi):
    unit = Fraction(1, 2 ** 200)
    steps, e = 1, (hi - lo) / 2
    while e ** 3 / 6 > unit:
        steps, e = steps + 1, e ** 3 / 6 + unit
    y = (lo + hi) / 2
    for _ in range(steps):
        c, _ = cos_enclosure(y, 40)
        y = Fraction(round((y + c) * 2 ** 200), 2 ** 200)
    return y, steps


def fraction_polish(tol):
    """find_q's Newton polish in plain Fractions, on the oracle's cosine sum:
    (q_exact, steps) from the midpoint of the oracle's bisection at tol."""
    return _polish(*q_bracket_oracle(tol))


# --- the set-up constants, derived in Fractions -------------------------------
# The package derives these on integer numerators and denominators, each float
# by one integer division.  Restated here on Fractions, each float by
# Fraction.__float__, they must come out equal bit for bit.

def fraction_table(tol):
    """find_q(tol)'s q_exact and float fields, from the oracle's bisection and
    polish.  At the tolerances the tests use, the first certificate, 2**-167
    either side of q_exact, already decides, so refined_radius is 1e-50."""
    lo, hi = q_bracket_oracle(tol)
    y, _ = _polish(lo, hi)
    refined = Fraction(1, 10 ** 50)
    rho = Fraction(1, 2 ** 167)
    assert cos_sign_oracle(y - rho) > 0 and cos_sign_oracle(y + rho) < 0
    q = float(y)
    four_q = 4 * y
    dd_hi = float(four_q)
    dd_lo = float(four_q - Fraction(dd_hi))
    resid = abs(four_q - Fraction(dd_hi) - Fraction(dd_lo))
    return {
        "q": q,
        "certified_bound": tol / 2 if refined <= Fraction(tol) / 2 <= hi - lo else float(hi - lo),
        "q_exact": y,
        "refined_radius": float(refined),
        "q_float_err": float(abs(Fraction(q) - y) + refined) * (1.0 + 1e-9),
        "four_q_dd": (dd_hi, dd_lo),
        "four_q_err": float(resid + 4 * refined) * (1.0 + 1e-9),
    }


def degree_table_oracle(a, j, z_max):
    """The kernel's degree table from the Fraction coefficients a_n of w**n:
    rows (largest z, first omitted n, |a_n| z**(n-j) rounded up), row 0 up
    to where |a_j| z**j reaches 2**-54, row 1 up to z_max."""
    z0 = float((Fraction(1, 2 ** 54) / abs(a[j])) ** Fraction(1, j)) * (1.0 - 2.0 ** -20)
    return tuple((z, n, float(abs(a[n]) * Fraction(z) ** (n - j)) * (1.0 + 2.0 ** -50))
                 for z, n in ((z0, j), (z_max, len(a) - 1)))


def _round_to_bits(v, bits):
    e = math.frexp(float(v))[1]
    return math.ldexp(round(v * Fraction(2) ** (bits - e)), e - bits)


def reduction_oracle(tbl):
    """The kernel's reduction constants, the tuple of _bind_reduction, from
    the table's q_exact in Fractions: the Cody-Waite split Q1 + Q2 + Q3,
    k_err, Q/2, the edges of k = 2 and 3 and the rows of k = 1 and 2."""
    q = tbl.q_exact
    q1 = _round_to_bits(q, 27)
    q2 = _round_to_bits(q - Fraction(q1), 27)
    q3 = float(q - Fraction(q1) - Fraction(q2))
    split = abs(Fraction(q1) + Fraction(q2) + Fraction(q3) - q)
    k_err = (float(split) + tbl.refined_radius) * (1.0 + 2.0 ** -49)
    half_q = math.nextafter(float(q / 2), 0.0)
    inv_q = 1.0 / tbl.q
    quadrants = tuple((s != 0, s or c) for _, s, c in tbl.q_multiples[:4])

    def edge(k):
        a = (k - 0.5) * tbl.q
        while int(a * inv_q + 0.5) >= k:
            a = math.nextafter(a, 0.0)
        while int(a * inv_q + 0.5) < k:
            a = math.nextafter(a, math.inf)
        return a

    def entry(k, shift):
        return k * q1, -k * q2, k * q3, abs(k * q3), k * k_err, quadrants[(k + shift) & 3]

    rows = tuple((quadrants[shift], entry(1, shift), entry(2, shift)) for shift in (0, 1))
    return half_q, edge(2), edge(3), rows, (inv_q, q1, q2, q3, k_err, quadrants)


def rational_sqrt(fr, bits=240):
    """sqrt of a non-negative rational via integer isqrt, ~2**-bits accurate."""
    fr = Fraction(fr)
    assert fr >= 0
    n = fr.numerator * fr.denominator << (2 * bits)
    return Fraction(isqrt(n), fr.denominator << bits)


def ulps_apart(a, b):
    """Distance in units-in-the-last-place between two nearby floats."""
    if a == b:
        return 0
    lo, hi = sorted((a, b))
    count = 0
    while lo < hi and count <= 64:
        lo = math.nextafter(lo, math.inf)
        count += 1
    return count


_INWARD = 1 - Fraction(1, 2 ** 20)


def adversary(f, truth, side):
    """A stand-in for the certified evaluator f(x, tol) that keeps f's bound e
    and moves f's value to one edge of the interval that e certifies.

    truth(x) is the exact rational t that f approximates (to far below e).
    The value is the float nearest t + side (1 - 2**-20) e, side +1 or -1,
    stepped towards t until it lies within e of t: where e is below an ulp
    of t, the nearest float can fall outside.  A bound built on f's must hold
    for every value that f's certificate admits, and this one is as far from
    the truth as the certificate allows, not well inside, as f's own.
    """
    def pushed(x, tol):
        cv = f(x, tol)
        t, e = truth(x), Fraction(cv[1])
        v = float(t + side * _INWARD * e)
        while abs(Fraction(v) - t) > e:
            v = math.nextafter(v, math.inf if v < t else -math.inf)
        return cv._replace(value=v)
    return pushed


# --- reference truncated polynomials ----------------------------------------
# A polynomial is (cap, {exponent tuple: Fraction}) holding only nonzero
# coefficients of total degree <= cap, on the ordinary (not factorial)
# scale.  Products are schoolbook and (x + y)**k is built by repeated
# multiplication, so no binomial coefficient appears.

def ref_poly(cap, coeffs):
    assert cap >= 0
    return cap, {e: Fraction(v) for e, v in coeffs.items() if v and sum(e) <= cap}


def ref_add(p, q, sign=1):
    out = dict(p[1])
    for e, v in q[1].items():
        out[e] = out.get(e, 0) + sign * v
    return ref_poly(min(p[0], q[0]), out)


def ref_neg(p):
    return ref_poly(p[0], {e: -v for e, v in p[1].items()})


def ref_truncate(p, cap):
    return ref_poly(cap, p[1])


def ref_homogeneous_part(p, d):
    return ref_poly(d, {e: v for e, v in p[1].items() if sum(e) == d})


def ref_derivative(p):
    """d/dx, the first variable."""
    return ref_poly(max(p[0] - 1, 0),
                    {(e[0] - 1,) + e[1:]: e[0] * v for e, v in p[1].items() if e[0] > 0})


def ref_product(p, q, cap):
    out = {}
    for e1, a in p[1].items():
        for e2, b in q[1].items():
            e = tuple(i + j for i, j in zip(e1, e2))
            out[e] = out.get(e, 0) + a * b
    return ref_poly(cap, out)


def ref_embed(p, var, cap):
    """A univariate polynomial as a bivariate one in x (var 0) or y (var 1)."""
    return ref_poly(cap, {((k, 0) if var == 0 else (0, k)): v for (k,), v in p[1].items()})


def ref_substitute_sum(p, cap):
    """p(x + y), truncated at total degree cap."""
    x_plus_y = ref_poly(cap, {(1, 0): 1, (0, 1): 1})
    power = ref_poly(cap, {(0, 0): 1})
    out = ref_poly(cap, {})
    for k in range(cap + 1):
        c = p[1].get((k,), 0)
        out = ref_add(out, ref_poly(cap, {e: c * v for e, v in power[1].items()}))
        power = ref_product(power, x_plus_y, cap)
    return out
