"""Error-free float transforms and double-double arithmetic.

two_sum is Knuth's exact addition and two_prod is Dekker's exact product
(splitting, no FMA required); the kernel calls two_prod; two_sum serves
dd_add and the tests.  dd_add and dd_mul build double-double arithmetic
on them: a pair (hi, lo) with hi = fl(hi + lo), roughly 106 bits.
Nothing in the package calls those two; perfbench times them as the cost
of a double-double step.
"""

_SPLITTER = 134217729.0  # 2**27 + 1


def two_sum(a, b):
    """Exact addition: returns (s, e) with s = fl(a+b) and s + e = a + b."""
    s = a + b
    t = s - a
    e = (a - (s - t)) + (b - t)
    return s, e


def fast_two_sum(a, b):
    # requires |a| >= |b|
    s = a + b
    e = b - (s - a)
    return s, e


def two_prod(a, b):
    """Exact multiplication: returns (p, e) with p = fl(a*b), p + e = a*b."""
    p = a * b
    t = _SPLITTER * a  # Dekker's split of a and b into 26-bit halves
    ah = t - (t - a)
    al = a - ah
    t = _SPLITTER * b
    bh = t - (t - b)
    bl = b - bh
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


def dd_add(x, y):
    """Accurate double-double addition; relative error below 3*2**-106."""
    sh, sl = two_sum(x[0], y[0])
    th, tl = two_sum(x[1], y[1])
    sh, sl = fast_two_sum(sh, sl + th)
    return fast_two_sum(sh, sl + tl)


def dd_mul(x, y):
    """Double-double product; relative error below 7*2**-106."""
    ph, pl = two_prod(x[0], y[0])
    pl += x[0] * y[1] + x[1] * y[0]
    return fast_two_sum(ph, pl)

