"""Tests for the numeric identity suite, periodicity, and special angles."""

import random
import re
from fractions import Fraction

import pytest

from geomfree import identities
from geomfree.cli import numeric_checks
from geomfree.constants import shared_table
from geomfree.errors import UnknownIdentity
from geomfree.identities import (
    check_identity,
    check_periodicity,
    default_samples,
    registered_identities,
    solve_sine_cubic,
    special_angles,
    worst_of,
)
from geomfree.series_kernel import CertifiedValue, cos_eval, sin_eval

from oracles import (
    COS_2,
    PI_6,
    SQRT2_OVER_2,
    SQRT3_OVER_2,
    rational_sqrt,
    ulps_apart,
)

EXPECTED_IDENTITIES = {
    "sine_difference",
    "sine_double_angle",
    "cofunction_sine",
    "cofunction_cosine",
    "cosine_sum",
    "cosine_difference",
    "cosine_double_angle",
    "cosine_squared",
    "sine_triple_angle",
}


class TestCheckIdentity:
    def test_registry(self):
        assert set(registered_identities()) == EXPECTED_IDENTITIES

    def test_unknown_identity(self):
        with pytest.raises(UnknownIdentity):
            check_identity("half_angle", [0.5])

    def test_double_angle_at_zero(self):
        (chk,) = check_identity("sine_double_angle", [0.0])
        assert chk.passed and chk.lhs == 0.0 and chk.rhs == 0.0

    def test_cofunction_at_pi_over_six(self):
        tbl = shared_table()
        (chk,) = check_identity("cofunction_sine", [tbl.pi / 6.0])
        assert chk.passed
        # sin(Q - pi/6) = cos(pi/6) = sqrt(3)/2
        assert abs(chk.rhs - SQRT3_OVER_2) <= 1e-15

    def test_cosine_sum_reproduces_cos_two(self):
        (chk,) = check_identity("cosine_sum", [(1.0, 1.0)])
        assert chk.passed
        assert abs(chk.lhs - COS_2) <= 1e-15
        assert abs(chk.rhs - COS_2) <= 2e-15

    @pytest.mark.parametrize("name", sorted(EXPECTED_IDENTITIES))
    def test_thousand_seeded_samples(self, name):
        checks = check_identity(name, default_samples(name, 1000, seed=42))
        assert len(checks) == 1000
        assert all(c.passed for c in checks)

    def test_determinism(self):
        a = default_samples("cosine_sum", 50, seed=9)
        b = default_samples("cosine_sum", 50, seed=9)
        assert a == b
        c = default_samples("cosine_sum", 50, seed=10)
        assert a != c

    @pytest.mark.parametrize("name", ["sine_triple_angle", "cosine_sum"])
    def test_negative_sample_count_is_rejected(self, name):
        # samples[:n] would slice a negative n from the end of the adversarial list
        for n in (-1, -2):
            with pytest.raises(ValueError, match="n must be >= 0"):
                default_samples(name, n)
        assert default_samples(name, 0) == []


class TestPeriodicity:
    def test_grid(self):
        chk = check_periodicity(1000)
        assert chk.passed
        assert chk.discrepancy <= 5e-15

    @pytest.mark.parametrize("n_samples", [0, -3])
    def test_rejects_an_empty_grid(self, n_samples):
        with pytest.raises(ValueError, match="n_samples must be >= 1"):
            check_periodicity(n_samples)

    def test_at_multiples(self):
        tbl = shared_table()
        four_q = tbl.four_q_dd[0]
        s0 = sin_eval(0.0 + four_q, 1e-15)
        assert abs(s0.value) <= s0.abs_error_bound + 1e-15
        s1 = sin_eval(tbl.q + four_q, 1e-15)
        assert abs(s1.value - 1.0) <= s1.abs_error_bound + 1e-15


class TestPeriodMinimality:
    def test_half_q(self):
        tbl = shared_table()
        c = cos_eval(2.0 * (tbl.q / 2.0), 1e-15)
        assert min(abs(c.value - 1.0), abs(c.value + 1.0)) > 0.99

    def test_third_of_q(self):
        tbl = shared_table()
        c = cos_eval(2.0 * tbl.q / 3.0, 1e-15)
        assert abs(c.value - 0.5) <= c.abs_error_bound + 1e-15


class TestSpecialAngles:
    def test_pi_over_six(self):
        table = special_angles()
        row = {e.label: e for e in table}
        assert row["pi/6"].sin_value == 0.5
        assert ulps_apart(row["pi/6"].cos_value, SQRT3_OVER_2) <= 1

    def test_pi_over_four(self):
        row = {e.label: e for e in special_angles()}
        assert ulps_apart(row["pi/4"].sin_value, SQRT2_OVER_2) <= 1
        assert row["pi/4"].sin_value == row["pi/4"].cos_value

    def test_rows_swap(self):
        row = {e.label: e for e in special_angles()}
        assert row["pi/3"].sin_value == row["pi/6"].cos_value
        assert row["pi/3"].cos_value == row["pi/6"].sin_value

    def test_endpoints(self):
        row = {e.label: e for e in special_angles()}
        assert (row["0"].sin_value, row["0"].cos_value) == (0.0, 1.0)
        assert (row["pi/2"].sin_value, row["pi/2"].cos_value) == (1.0, 0.0)

    def test_float_matches_exact_expressions(self):
        refs = {
            "0": (Fraction(0), Fraction(1)),
            "pi/6": (Fraction(1, 2), rational_sqrt(Fraction(3, 4))),
            "pi/4": (rational_sqrt(Fraction(1, 2)),) * 2,
            "pi/3": (rational_sqrt(Fraction(3, 4)), Fraction(1, 2)),
            "pi/2": (Fraction(1), Fraction(0)),
        }
        for e in special_angles():
            rs, rc = refs[e.label]
            assert ulps_apart(e.sin_value, float(rs)) <= 1
            assert ulps_apart(e.cos_value, float(rc)) <= 1

    def test_angle_column_close_to_pi_fractions(self):
        row = {e.label: e for e in special_angles()}
        assert abs(row["pi/6"].angle - PI_6) <= 2e-16
        assert abs(row["pi/4"].angle - 0.7853981633974483) <= 2e-16

    def test_series_evaluation_agrees_with_table(self):
        for e in special_angles():
            s = sin_eval(e.angle, 1e-15)
            c = cos_eval(e.angle, 1e-15)
            # angle column carries up to ~1 ulp of pi-division error
            assert abs(s.value - e.sin_value) <= s.abs_error_bound + 4e-16
            assert abs(c.value - e.cos_value) <= c.abs_error_bound + 4e-16


class TestSineCubic:
    def test_roots_and_multiplicities(self):
        assert solve_sine_cubic() == [(Fraction(-1), 1), (Fraction(1, 2), 2)]

    def test_roots_satisfy_polynomial(self):
        for r, _m in solve_sine_cubic():
            assert 4 * r ** 3 - 3 * r + 1 == 0

    def test_factorization_reconstructs(self):
        # (s + 1)(2s - 1)^2 = 4s^3 - 3s + 1
        import itertools
        coeffs = [Fraction(0)] * 4
        for (i, a), (j, b), (k, c) in itertools.product(
            enumerate([1, 1]), enumerate([-1, 2]), enumerate([-1, 2])
        ):
            coeffs[i + j + k] += Fraction(a * b * c)
        assert coeffs == [Fraction(1), Fraction(-3), Fraction(0), Fraction(4)]


class TestRangeAndMonotonicity:
    def test_sine_range_on_full_period(self):
        tbl = shared_table()
        n = 10001
        values = []
        for i in range(n):
            x = 4.0 * tbl.q * i / (n - 1)
            values.append(sin_eval(x, 1e-15).value)
        grid_res = (4.0 * tbl.q / (n - 1)) ** 2 / 2.0
        assert max(values) >= 1.0 - grid_res - 1e-12
        assert min(values) <= -1.0 + grid_res + 1e-12
        assert max(values) <= 1.0 + 1e-15
        assert min(values) >= -1.0 - 1e-15

    def test_strictly_increasing_inside_quarter_period(self):
        tbl = shared_table()
        rng = random.Random(33)
        grid = sorted(rng.uniform(-tbl.q, tbl.q) for _ in range(400))
        # enforce the stated minimum spacing
        gapped = [grid[0]]
        for x in grid[1:]:
            if x - gapped[-1] >= 1e-6:
                gapped.append(x)
        assert len(gapped) > 100
        prev = None
        for x in gapped:
            cur = sin_eval(x, 1e-15)
            if prev is not None:
                assert cur.value - prev.value > cur.abs_error_bound + prev.abs_error_bound
            prev = cur

    def test_cofunction_exact_at_table_points(self):
        tbl = shared_table()
        for k, s, _c in tbl.q_multiples:
            # sin(Q - (Q - kQ)) = sin(kQ): argument collapses to the table row
            arg = tbl.q - (tbl.q - k * tbl.q)
            cv = sin_eval(arg, 1e-15)
            assert abs(cv.value - s) <= cv.abs_error_bound + (k + 1) * tbl.q_float_err + 4e-16


class TestIdentitiesAgainstDirectEvaluation:
    """check_identity at fixed samples equals both sides written out here."""

    U = 2.0 ** -53
    TOL = 1e-15
    UP = 1.0 + 2.0 ** -51  # the round-up of a bound with two sums

    @classmethod
    def _s(cls, a, extra=None):
        cv = sin_eval(a, cls.TOL)
        return cv if extra is None else CertifiedValue(cv.value,
                                                       (cv.abs_error_bound + extra) * cls.UP)

    @classmethod
    def _c(cls, a, extra=None):
        cv = cos_eval(a, cls.TOL)
        return cv if extra is None else CertifiedValue(cv.value,
                                                       (cv.abs_error_bound + extra) * cls.UP)

    @classmethod
    def _sides(cls, name, x, y=None):
        """(lhs, rhs) as CertifiedValues; a formed argument a adds u|a| to the lhs,
        rounded up."""
        S, C, u = cls._s, cls._c, cls.U
        tbl = shared_table()
        qx = tbl.q - x
        return {
            "sine_difference": lambda: (S(x - y, u * abs(x - y)),
                                        S(x) * C(y) - C(x) * S(y)),
            "sine_double_angle": lambda: (S(2.0 * x), 2.0 * (S(x) * C(x))),
            "cofunction_sine": lambda: (S(qx, u * abs(qx) + tbl.q_float_err), C(x)),
            "cofunction_cosine": lambda: (C(qx, u * abs(qx) + tbl.q_float_err), S(x)),
            "cosine_sum": lambda: (C(x + y, u * abs(x + y)), C(x) * C(y) - S(x) * S(y)),
            "cosine_difference": lambda: (C(x - y, u * abs(x - y)),
                                          C(x) * C(y) + S(x) * S(y)),
            "cosine_double_angle": lambda: (C(2.0 * x), 2.0 * (C(x) * C(x)) - 1.0),
            "cosine_squared": lambda: (C(x) * C(x), 0.5 + 0.5 * C(2.0 * x)),
            "sine_triple_angle": lambda: (S(3.0 * x, u * abs(3.0 * x)),
                                          3.0 * S(x) - 4.0 * (S(x) * S(x) * S(x))),
        }[name]()

    ONE = (0.7, -2.5, 5.0)
    TWO = ((0.7, -1.3), (2.5, 0.4), (-5.0, 3.1))

    @pytest.mark.parametrize("name", sorted(EXPECTED_IDENTITIES))
    def test_fields_equal_the_direct_evaluation(self, name):
        two = name in ("sine_difference", "cosine_sum", "cosine_difference")
        samples = self.TWO if two else self.ONE
        checks = check_identity(name, samples)
        assert len(checks) == 3
        for chk, sample in zip(checks, samples):
            points = list(sample) if two else [sample]
            lhs, rhs = self._sides(name, *points)
            combined = lhs.abs_error_bound + rhs.abs_error_bound
            assert chk.name == name
            assert chk.lhs == lhs.value
            assert chk.rhs == rhs.value
            assert chk.combined_bound == combined
            assert chk.passed == (abs(lhs.value - rhs.value) <= combined)
            assert chk.passed
            assert chk.sample_points == points

    def test_a_three_tuple_for_a_two_argument_identity_is_a_value_error(self):
        with pytest.raises(ValueError):
            check_identity("cosine_sum", [(0.1, 0.2, 0.3)])


@pytest.mark.parametrize("sample", ["0.25", True, None, (0.25, "0.5"), (False, 0.5)], ids=repr)
def test_a_sample_that_is_not_a_real_number_is_a_type_error(sample):
    name = "cosine_sum" if isinstance(sample, tuple) else "sine_double_angle"
    with pytest.raises(TypeError):
        check_identity(name, [sample])


@pytest.mark.parametrize(
    "sample", [0.5, 2, -0.0, None, pytest.param(object(), id="object()")], ids=repr)
def test_a_bare_number_for_a_two_argument_identity_is_a_type_error(sample):
    message = f"cosine_sum takes 2 arguments per sample, got {sample!r}"
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        check_identity("cosine_sum", [(0.1, 0.2), sample])


def test_worst_of_no_checks_is_a_value_error_that_names_it():
    with pytest.raises(ValueError, match="^worst_of needs at least one check$"):
        worst_of([])


def test_worst_of_reads_its_checks_once():
    # the first of two equal largest discrepancies wins, and a failure
    # after it still fails the result, from a one-pass iterator too
    checks = check_identity("sine_double_angle", default_samples("sine_double_angle", 40, 3))
    largest = max(c.discrepancy for c in checks)
    first = next(i for i, c in enumerate(checks) if c.discrepancy == largest)
    failed = checks[-1]._replace(passed=False)
    checks = checks[:first + 1] + [checks[first]._replace(name="later")] + checks[first + 1:-1]
    for given in (checks + [failed], iter(checks + [failed])):
        worst = worst_of(given)
        assert worst == checks[first]._replace(passed=False)
    assert worst_of(iter(checks)) == checks[first]


def test_a_check_passes_on_the_certified_bounds_alone(monkeypatch):
    # a sine 1e-20 off near zero, with its bound kept: sine_double_angle's
    # combined bound at 1e-9 is about 1e-24, so the error must show
    true_sin = identities.sin_eval

    def off(x, tol):
        value, bound = true_sin(x, tol)
        return CertifiedValue(value + 1e-20 if abs(x) <= 1e-8 else value, bound)

    assert check_identity("sine_double_angle", [1e-9])[0].passed
    monkeypatch.setattr(identities, "sin_eval", off)
    (check,) = check_identity("sine_double_angle", [1e-9])
    assert not check.passed
    assert check.combined_bound < 1e-23 < check.discrepancy


@pytest.mark.parametrize("seed", [0, 4])
def test_every_numeric_check_passes_on_its_bounds(seed):
    assert [c.name for c in numeric_checks(1000, seed) if not c.passed] == []
