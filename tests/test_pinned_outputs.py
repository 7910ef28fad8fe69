"""Bit identity of the ODE oracle, the quadratures (arcsin's also at +-0
and at the edge between one piece and two), the identity suite's exact
parts, the numeric identity checks, the exact verifiers, certified
arithmetic and the CLI's eval, constants and integrate output.

Each group is hashed from the repr of its results (repr of a float or a
Fraction round-trips exactly), so any change in any bit of any result
changes its digest.  Update a digest only in a change that alters those
results on purpose, and say so in CHANGES.md; a change meant to keep them
must leave it alone.
"""

import contextlib
import hashlib
import io
import math
import random

import pytest

from geomfree import cli
from geomfree.analysis import arc_length, arcsin_quadrature, ode_oracle, quarter_circle_area
from geomfree.constants import shared_table
from geomfree.identities import (check_identity, check_periodicity, default_samples,
                                 registered_identities, solve_sine_cubic)
from geomfree.series_kernel import CertifiedValue

QUAD_XS = (0.3, -0.7, 0.71, 0.9999, 1.0, -1.0, 1e-300)
QUAD_TOLS = (1e-5, 1e-10, 1e-15)


def _ode():
    # t_end 0.0105 at step 1e-3 ends on a remainder step
    runs = ((2.0 * shared_table().pi, 1e-3), (0.0105, 1e-3), (100.0, 1e-2))
    return [tuple(ode_oracle(t_end, step)) for t_end, step in runs]


def _quadrature():
    out = [tuple(arcsin_quadrature(x, tol)) for x in QUAD_XS for tol in QUAD_TOLS]
    out += [tuple(quarter_circle_area(tol)) for tol in QUAD_TOLS]
    out += [tuple(arc_length(a, b, tol)) for a, b in ((-0.5, 0.8), (0.71, 1.0), (-1.0, 1.0))
            for tol in (1e-5, 1e-10, 2e-15)]
    return out


def _quadrature_edges():
    # +-0.0, and fl(sqrt(1/2)) and the next double up: the last x integrated
    # as one piece and the first split into two
    edge = 0.7071067811865476
    xs = [s * x for x in (0.0, edge, math.nextafter(edge, 1.0)) for s in (1.0, -1.0)]
    return [tuple(arcsin_quadrature(x, tol)) for x in xs for tol in QUAD_TOLS]


def _identities():
    samples = [default_samples(name, n, seed) for name in registered_identities()
               for seed in (0, 7) for n in (0, 3, 10, 37)]
    return [solve_sine_cubic(), samples]


def _identity_checks():
    checks = [check_identity(name, default_samples(name, 100, seed))
              for name in registered_identities() for seed in (0, 7)]
    return [checks, check_periodicity(100)]


def _exact_checks():
    return cli.exact_checks(100)


def _arithmetic():
    # every operator over certified, float and small-int operands, in both orders
    rng = random.Random(28)
    values = [CertifiedValue(rng.uniform(-4.0, 4.0), rng.choice((0.0, rng.uniform(0.0, 1e-15))))
              for _ in range(40)]
    others = values[::-1] + [rng.uniform(-4.0, 4.0) for _ in range(20)] + list(range(-5, 6))
    out = []
    for a in values:
        out.append(tuple(-a))
        for b in others:
            out += [tuple(a + b), tuple(b + a), tuple(a - b), tuple(b - a), tuple(a * b),
                    tuple(b * a)]
    return out


CLI_ARGVS = (
    ("eval", "sin", "0.5"), ("eval", "cos", "5"), ("eval", "sin", "-1e-5", "--tol", "1e-8"),
    ("eval", "arcsin", "0.3"), ("eval", "arcsin", "-0.9"),
    ("constants",), ("constants", "--digits", "4"),
    ("integrate", "quarter-circle"), ("integrate", "arcsin", "0.9999", "--tol", "1e-13"),
    ("integrate", "arclength", "-0.5", "0.8"),
)


def _cli():
    out = []
    for argv in CLI_ARGVS:
        for fmt in ("text", "json"):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert cli.main([*argv, "--format", fmt]) == 0
            out.append(buf.getvalue())
    return out


GROUPS = {  # name -> (results, sha256 of their repr)
    "ode": (_ode, "7ba44210ba2d629b2c8a1bc7d930da25b6894b9f1962bf8049e1b478f67d4d66"),
    "quadrature": (_quadrature, "89b8edca553c674fb3a962731444b0603f59e26876367d8ca2fa1b0812fb7993"),
    "quadrature_edges": (_quadrature_edges,
                         "95f9f8ee5c202f265976e65321ae8fe47ebcc30c00bc8c6e21f2e60148b7cc6a"),
    "identities": (_identities, "070d7bc9813c23c6a751524ad5e057c1ef13d35977da3614c1d624df132eda4a"),
    "identity_checks": (_identity_checks,
                        "3e565e2e0515f15c30a2061723d34bafce753c1d5aa1cacf028166fc245f4a31"),
    "exact_checks": (_exact_checks,
                     "322f2172520fd727d80544e1cd0ce64d80ba567439b51aeabc1ed78ac58b5b61"),
    "arithmetic": (_arithmetic, "bdc1dcdb5da0ee328e22d106f2c331869185d43928f6c7bc623fa46d3a0be366"),
    "cli": (_cli, "dd500e95a5e6a81cde054f3b8dfead150e52a0a57ecd644f450b230ae07886d7"),
}


@pytest.mark.parametrize("group", GROUPS)
def test_outputs_match_the_recorded_digest(group):
    results, digest = GROUPS[group]
    assert hashlib.sha256(repr(results()).encode()).hexdigest() == digest
