"""Numeric property suite for the standard sine/cosine identities,
periodicity, and the special-angle table.

Every check compares two certified evaluations and passes on their bounds
alone: |lhs - rhs| <= (sum of certified bounds), decided by
series_kernel._agree, with no slack.  Argument formation (x - y, Q - x,
x + 4Q, ...) is folded into the lhs bound, so the records stay honest
even where the identity's argument is not exactly representable.
"""

import math
import random
from collections import namedtuple

from .constants import shared_table
from .errors import UnknownIdentity
from .report import _numeric_check
from .series_kernel import _U, _UP3, CertifiedValue, _agree, _checked, _real, cos_eval, sin_eval

_TOL = 1e-15       # tolerance of every certified evaluation in the suite
_ISQRT_BITS = 240  # precision of the special angles' exact square roots


class IdentityCheck(namedtuple("IdentityCheck", "name lhs rhs combined_bound passed sample_points",
                               defaults=((),))):
    """Result of checking one identity at one (or a worst-case) sample."""

    __slots__ = ()

    @property
    def discrepancy(self):
        return abs(self.lhs - self.rhs)


_new_check = IdentityCheck.__new__  # called as a function, without type()'s dispatch


def _compare(name, lhs, rhs, points):
    """The IdentityCheck of two CertifiedValues that should be equal."""
    return _new_check(IdentityCheck, name, lhs[0], rhs[0], lhs[1] + rhs[1], _agree(lhs, rhs),
                      points)


def worst_of(checks):
    """The first check of largest discrepancy, passed only if all passed.

    Raises ValueError for no checks.
    """
    worst = most = None
    passed = True
    for c in checks:
        d = c.discrepancy
        if worst is None or d > most:  # strictly larger: the first of equals stays, as in max
            worst, most = c, d
        if not c.passed:
            passed = False
    if worst is None:
        raise ValueError("worst_of needs at least one check")
    return worst._replace(passed=passed)


def _at(f, arg, arg_err=0.0):
    """f(arg) with the rounding of a formed argument, u|arg| + arg_err, in its bound,
    rounded up (series_kernel's note above CertifiedValue)."""
    value, bound = f(arg, _TOL)
    return _checked(CertifiedValue, value, (bound + (_U * abs(arg) + arg_err)) * _UP3)


# --- identity registry -------------------------------------------------
# Each identity maps its sample's floats, x or x, y, to (lhs, rhs): two
# CertifiedValues, with the rounding of an argument formed on the left
# (x - y, Q - x, 3x, ...) already in the lhs bound.  Doubling is exact in
# binary floating point, so 2x adds nothing.

def _sine_difference(x, y):
    return (_at(sin_eval, x - y),
            sin_eval(x, _TOL) * cos_eval(y, _TOL) - cos_eval(x, _TOL) * sin_eval(y, _TOL))


def _sine_double_angle(x):
    return sin_eval(2.0 * x, _TOL), 2.0 * (sin_eval(x, _TOL) * cos_eval(x, _TOL))


def _cofunction_sine(x):
    tbl = shared_table()
    return _at(sin_eval, tbl.q - x, arg_err=tbl.q_float_err), cos_eval(x, _TOL)


def _cofunction_cosine(x):
    tbl = shared_table()
    return _at(cos_eval, tbl.q - x, arg_err=tbl.q_float_err), sin_eval(x, _TOL)


def _cosine_sum(x, y):
    return (_at(cos_eval, x + y),
            cos_eval(x, _TOL) * cos_eval(y, _TOL) - sin_eval(x, _TOL) * sin_eval(y, _TOL))


def _cosine_difference(x, y):
    return (_at(cos_eval, x - y),
            cos_eval(x, _TOL) * cos_eval(y, _TOL) + sin_eval(x, _TOL) * sin_eval(y, _TOL))


def _cosine_double_angle(x):
    c = cos_eval(x, _TOL)
    return cos_eval(2.0 * x, _TOL), 2.0 * (c * c) - 1.0


def _cosine_squared(x):
    c = cos_eval(x, _TOL)
    return c * c, 0.5 + 0.5 * cos_eval(2.0 * x, _TOL)


def _sine_triple_angle(x):
    s = sin_eval(x, _TOL)
    return _at(sin_eval, 3.0 * x), 3.0 * s - 4.0 * (s * s * s)


_IDENTITIES = {  # name -> (arity, function)
    "sine_difference": (2, _sine_difference),
    "sine_double_angle": (1, _sine_double_angle),
    "cofunction_sine": (1, _cofunction_sine),
    "cofunction_cosine": (1, _cofunction_cosine),
    "cosine_sum": (2, _cosine_sum),
    "cosine_difference": (2, _cosine_difference),
    "cosine_double_angle": (1, _cosine_double_angle),
    "cosine_squared": (1, _cosine_squared),
    "sine_triple_angle": (1, _sine_triple_angle),
}


def registered_identities():
    return sorted(_IDENTITIES)


def _lookup(name):
    """(arity, function) of a registered identity; UnknownIdentity otherwise."""
    try:
        return _IDENTITIES[name]
    except KeyError:
        raise UnknownIdentity(name) from None


def check_identity(name, samples):
    """Evaluate both sides of a registered identity at every sample.

    `samples` holds numbers (1-argument identities) or (x, y) pairs, each
    number read by the package's one input rule (series_kernel._real): an
    int or a float, anything else, a bool or a string included, TypeError.
    A pair of another length raises ValueError, and a sample that is not
    iterable where a pair is due (a bare number, None) TypeError.  Returns
    one IdentityCheck per sample.
    """
    arity, fn = _lookup(name)
    label = f"a sample of {name}"
    out = []
    for sample in samples:
        try:
            values = tuple(sample) if arity == 2 else (sample,)
        except TypeError:
            raise TypeError(f"{name} takes {arity} arguments per sample, got {sample!r}") from None
        points = [_real(v, label)[0] for v in values]
        if len(points) != arity:
            raise ValueError(f"{name} takes {arity} arguments per sample, got {sample!r}")
        out.append(_compare(name, *fn(*points), points))
    return out


def default_samples(name, n, seed=0):
    """Deterministic sample set: adversarial points near 0, +-Q, +-2Q, then
    uniform draws on [-2pi, 2pi] (pairs for two-argument identities).
    Raises ValueError for n < 0."""
    arity = _lookup(name)[0]
    if n < 0:
        raise ValueError("n must be >= 0")
    tbl = shared_table()
    q = tbl.q
    rng = random.Random(f"{seed}:{name}")
    special = [0.0, 1e-9, -1e-9, q, -q, q - 1e-9, q + 1e-9, 2 * q, -2 * q, 2 * q - 1e-12]
    two_pi = 2.0 * tbl.pi
    width = 2.0 * two_pi  # two_pi - (-two_pi), exact: doubling
    draw = rng.random
    samples = special if arity == 1 else list(zip(special, reversed(special)))
    # random.uniform(-two_pi, two_pi) is -two_pi + width * random(), written out
    draws = iter([-two_pi + width * draw() for _ in range(arity * (n - len(samples)))])
    samples += draws if arity == 1 else zip(draws, draws)  # a pair takes two draws in turn
    return samples[:n]


def check_periodicity(n_samples):
    """Shift-by-one-period test on a uniform grid over [-10, 10].

    Checks |sin(x + 4Q) - sin(x)| against the combined certified bounds,
    and cosine through its translated form cos x = -sin(x - Q).  Returns
    a single IdentityCheck carrying the worst grid point.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    tbl = shared_table()
    four_q, four_q_lo = tbl.four_q_dd
    # |fl(4Q) - 4Q| <= |lo| + dd residual
    shift_err = abs(four_q_lo) + tbl.four_q_err
    checks = []
    for i in range(n_samples):
        x = -10.0 + 20.0 * i / max(n_samples - 1, 1)
        s1 = _at(sin_eval, x + four_q, arg_err=shift_err)
        s0 = sin_eval(x, _TOL)
        c0 = cos_eval(x, _TOL)
        m0 = -_at(sin_eval, x - tbl.q, arg_err=tbl.q_float_err)
        checks.append(_compare("periodicity_4q", s1, s0, [x]))
        checks.append(_compare("periodicity_4q", c0, m0, [x]))
    return worst_of(checks)


# --- special angles ----------------------------------------------------

def _isqrt_fraction(fr):
    """Floor-based rational square root, accurate to ~2**-_ISQRT_BITS relative.

    Uses only integer arithmetic (math.isqrt); independent of any libm
    routine.
    """
    from fractions import Fraction
    if fr < 0:
        raise ValueError("negative radicand")
    n = fr.numerator * fr.denominator << (2 * _ISQRT_BITS)
    return Fraction(math.isqrt(n), fr.denominator << _ISQRT_BITS)


def solve_sine_cubic():
    """Roots of 4 s^3 - 3 s + 1 = 0 with multiplicities, exactly.

    Rational-root search (candidates +-1, +-1/2, +-1/4 from the leading
    and constant coefficients) followed by exact synthetic division.
    Returns [(root, multiplicity), ...] sorted by root: the single root
    -1 and the double root 1/2.
    """
    from fractions import Fraction
    # ascending coefficients of 4s^3 - 3s + 1
    poly = [Fraction(1), Fraction(-3), Fraction(0), Fraction(4)]
    candidates = sorted(Fraction(s, d) for d in (1, 2, 4) for s in (1, -1))

    def divide(p, root):
        # p = (s - root) quotient + remainder, and the remainder is p(root)
        out = []
        acc = Fraction(0)
        for c in reversed(p):
            acc = acc * root + c
            out.append(acc)
        return list(reversed(out[:-1])), out[-1]

    roots = []
    for cand in candidates:
        mult = 0
        quotient, remainder = divide(poly, cand)
        while remainder == 0:  # ends by the constant [4], whose remainder is 4
            poly = quotient
            mult += 1
            quotient, remainder = divide(poly, cand)
        if mult:
            roots.append((cand, mult))
    return roots


SpecialAngleEntry = namedtuple("SpecialAngleEntry",
                               "label angle sin_exact cos_exact sin_value cos_value")


def special_angles():
    """A tuple of SpecialAngleEntry rows, the sin/cos table at 0, pi/6,
    pi/4, pi/3, pi/2, derived without any platform trigonometry.

    sin(pi/4) comes from the reflection sin(pi/4) = cos(pi/4) combined
    with sin^2 + cos^2 = 1 (so 2 sin^2 = 1); sin(pi/6) is the root in
    (0, 1) of the triple-angle cubic 4s^3 - 3s + 1 = 0; cosines follow
    from sin^2 + cos^2 = 1 with the first-quadrant positive sign, and the
    pi/3 row is the pi/6 row reflected.
    """
    from fractions import Fraction
    tbl = shared_table()
    q = tbl.q
    pi = tbl.pi

    # 1 = 2 sin^2(pi/4)  =>  sin(pi/4) = sqrt(1/2)
    s_pi4 = _isqrt_fraction(Fraction(1, 2))

    roots = solve_sine_cubic()
    in_unit = [r for r, _m in roots if 0 < r < 1]
    assert len(in_unit) == 1
    s_pi6 = in_unit[0]  # positive root; -1 is discarded as outside (0, 1)
    c_pi6 = _isqrt_fraction(1 - s_pi6 * s_pi6)

    zero_row = tbl.q_multiples[0]   # (0, sin 0, cos 0)
    q_row = tbl.q_multiples[1]      # (1, sin Q, cos Q)

    return (
        SpecialAngleEntry("0", 0.0, str(zero_row[1]), str(zero_row[2]),
                          float(zero_row[1]), float(zero_row[2])),
        SpecialAngleEntry("pi/6", pi / 6.0, "1/2", "sqrt(3)/2",
                          float(s_pi6), float(c_pi6)),
        SpecialAngleEntry("pi/4", pi / 4.0, "sqrt(2)/2", "sqrt(2)/2",
                          float(s_pi4), float(s_pi4)),
        SpecialAngleEntry("pi/3", pi / 3.0, "sqrt(3)/2", "1/2",
                          float(c_pi6), float(s_pi6)),
        SpecialAngleEntry("pi/2", q, str(q_row[1]), str(q_row[2]),
                          float(q_row[1]), float(q_row[2])),
    )


def _special_angle_check():
    """Float table values agree with the exact radicals to <= 2 ulp and
    satisfy sin^2 + cos^2 = 1 to the same precision."""
    table = special_angles()
    refs = {
        "0": (0.0, 1.0),
        "pi/6": (0.5, math.sqrt(0.75)),
        "pi/4": (math.sqrt(0.5),) * 2,
        "pi/3": (math.sqrt(0.75), 0.5),
        "pi/2": (1.0, 0.0),
    }
    worst = 0.0
    for e in table:
        rs, rc = refs[e.label]
        worst = max(worst, abs(e.sin_value - rs), abs(e.cos_value - rc),
                    abs(e.sin_value ** 2 + e.cos_value ** 2 - 1.0) / 2.0)
    bound = 4.0 * _U  # 2 ulp(1)
    return _numeric_check("special_angles_table", worst <= bound, worst, bound, len(table))


def _sin_q_check():
    tbl = shared_table()
    value, bound = sin_eval(tbl.q, _TOL)
    bound += tbl.q_float_err
    return _numeric_check("sin_q_equals_one", _agree((value, bound), (1.0, 0.0)),
                          abs(value - 1.0), bound)
