"""Independent oracles used by the tests.

Deliberately simple implementations that share no code with the package:
forward exact-rational summation with the alternating remainder, a
fixed-order bisection for the cosine zero, an integer-sqrt-based
rational square root, and a schoolbook truncated polynomial algebra on
plain Fraction dicts.  These reproduce the frozen expected values the
tests assert against.
"""

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


def bisect_q_oracle(width):
    """Bisect [0, 2] for the cosine zero until the bracket is thinner than
    `width`; returns the midpoint as a Fraction."""
    lo, hi = Fraction(0), Fraction(2)
    assert cos_sign_oracle(lo) > 0 and cos_sign_oracle(hi) < 0
    target = Fraction(width)
    while hi - lo > target:
        mid = (lo + hi) / 2
        if cos_sign_oracle(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def rational_sqrt(fr, bits=240):
    """sqrt of a non-negative rational via integer isqrt, ~2**-bits accurate."""
    fr = Fraction(fr)
    assert fr >= 0
    n = fr.numerator * fr.denominator << (2 * bits)
    return Fraction(isqrt(n), fr.denominator << bits)


def ulps_apart(a, b):
    """Distance in units-in-the-last-place between two nearby floats."""
    import math
    if a == b:
        return 0
    lo, hi = sorted((a, b))
    count = 0
    while lo < hi and count <= 64:
        lo = math.nextafter(lo, math.inf)
        count += 1
    return count


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
