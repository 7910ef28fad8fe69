"""Tests for arcsin (both constructions), the circle integrals, arc
length, and the RK4 oscillator cross-check."""

import math
import random

import pytest

from geomfree import analysis
from geomfree.analysis import (
    _integrate,
    arc_length,
    arcsin_derivative_check,
    arcsin_newton,
    arcsin_quadrature,
    ode_oracle,
    quarter_circle_area,
    unit_circle_point,
)
from geomfree.constants import shared_table
from geomfree.errors import DomainError, StepTooLarge
from geomfree.series_kernel import sin_eval

from oracles import PI_4, PI_6, PI_REF, Q_REF, SQRT3_OVER_2, TWO_OVER_SQRT3


class TestArcsinNewton:
    def test_zero(self):
        cv = arcsin_newton(0.0, 1e-14)
        assert cv.value == 0.0 and cv.abs_error_bound == 0.0

    def test_one_half_gives_pi_over_six(self):
        cv = arcsin_newton(0.5, 1e-14)
        assert abs(cv.value - PI_6) <= 1e-14

    def test_sqrt_half_gives_pi_over_four(self):
        cv = arcsin_newton(0.7071067811865476, 1e-14)
        assert abs(cv.value - PI_4) <= 1e-14

    def test_endpoints(self):
        assert abs(arcsin_newton(1.0, 1e-14).value - Q_REF) <= 1e-14
        assert abs(arcsin_newton(-1.0, 1e-14).value + Q_REF) <= 1e-14

    def test_domain(self):
        with pytest.raises(DomainError):
            arcsin_newton(1.0000001, 1e-14)
        with pytest.raises(DomainError):
            arcsin_newton(-1.1, 1e-14)

    def test_oddness(self):
        rng = random.Random(41)
        for _ in range(50):
            x = rng.uniform(0.0, 1.0)
            assert arcsin_newton(-x, 1e-14).value == -arcsin_newton(x, 1e-14).value

    def test_round_trip_forward(self):
        # sin(arcsin x) = x within combined bounds
        rng = random.Random(42)
        for _ in range(200):
            x = rng.uniform(-1.0, 1.0)
            a = arcsin_newton(x, 1e-14)
            s = sin_eval(a.value, 1e-16)
            assert abs(s.value - x) <= s.abs_error_bound + a.abs_error_bound + 1e-15

    def test_round_trip_backward(self):
        # arcsin(sin y) = y for y in [-Q, Q]; near the ends the inverse's
        # conditioning blows up, so the tolerance window is built from
        # certified arcsin evaluations at x +- bound
        tbl = shared_table()
        rng = random.Random(43)
        ys = [rng.uniform(-tbl.q, tbl.q) for _ in range(150)]
        ys += [tbl.q, -tbl.q, tbl.q - 1e-9, -tbl.q + 1e-9]
        for y in ys:
            s = sin_eval(y, 1e-16)
            x = s.value
            a = arcsin_newton(x, 1e-14)
            pad = s.abs_error_bound * 1.01 + 1e-18
            hi = arcsin_newton(min(1.0, x + pad), 1e-14)
            lo = arcsin_newton(max(-1.0, x - pad), 1e-14)
            window = (hi.value - lo.value) + hi.abs_error_bound + lo.abs_error_bound
            assert abs(a.value - y) <= window + a.abs_error_bound + tbl.q_float_err

    def test_sums_the_value_series_once(self, monkeypatch):
        # the half-angle start is within 1.4e-6 of the root: one Halley step
        # from the value-only series converges, and the settling step starts
        # from the certified sin_eval
        calls = []
        value_only = analysis._sin_value
        monkeypatch.setattr(analysis, "_sin_value", lambda y: calls.append(y) or value_only(y))
        rng = random.Random(1806)
        xs = [rng.uniform(-1.0, 1.0) for _ in range(5000)]
        for sign in (-1.0, 1.0):  # +-3 ulps around +-sqrt(2)/2, where the reflection begins
            x = sign * 0.7071067811865476
            for _ in range(3):
                x = math.nextafter(x, 0.0)
            for _ in range(7):
                xs.append(x)
                x = math.nextafter(x, sign)
        xs += [1.0, -1.0, 0.0, -0.0, 5e-324, -5e-324, 1e-320, -1e-320,
               2.2250738585072014e-308, 1e-300, -1e-300]
        counts = []
        for x in xs:
            calls.clear()
            arcsin_newton(x, 1e-15)
            counts.append(len(calls))
        assert max(counts) <= 1
        assert counts.count(1) > 4000  # the patch saw the iteration


class TestArcsinQuadrature:
    def test_plus_one_gives_half_pi(self):
        res = arcsin_quadrature(1.0, 1e-10)
        assert abs(res.value - Q_REF) <= 1e-10

    def test_minus_one(self):
        res = arcsin_quadrature(-1.0, 1e-10)
        assert abs(res.value + Q_REF) <= 1e-10

    def test_cross_oracle_agreement(self):
        res = arcsin_quadrature(0.3, 1e-11)
        ref = arcsin_newton(0.3, 1e-14)
        assert abs(res.value - ref.value) <= 1e-11 + res.est_error + ref.abs_error_bound

    def test_two_oracle_agreement_random(self):
        rng = random.Random(44)
        for _ in range(500):
            x = rng.uniform(-1.0, 1.0)
            quad = arcsin_quadrature(x, 1e-9)
            newt = arcsin_newton(x, 1e-12)
            tol = 1e-9 + quad.est_error + newt.abs_error_bound
            assert abs(quad.value - newt.value) <= tol

    def test_split_identity(self):
        # integral to 1 equals twice the integral to sqrt(2)/2
        g1 = arcsin_quadrature(1.0, 1e-10)
        gh = arcsin_quadrature(0.7071067811865476, 1e-10)
        assert abs(g1.value - 2.0 * gh.value) <= 2e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            arcsin_quadrature(1.5, 1e-10)

    def test_result_fields(self):
        res = arcsin_quadrature(0.9, 1e-9)
        assert res.est_error >= 0.0
        assert res.evaluations >= 1


class TestQuarterCircle:
    def test_value(self):
        res = quarter_circle_area(1e-10)
        assert abs(res.value - PI_4) <= 1e-10

    def test_convergence_ladder(self):
        # tightening the tolerance keeps the observed error at or below it
        for tol in (1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11):
            res = quarter_circle_area(tol)
            assert abs(res.value - PI_4) <= tol

    def test_integrand_endpoints(self):
        assert math.sqrt((1.0 - 0.0) * (1.0 + 0.0)) == 1.0
        assert math.sqrt((1.0 - 1.0) * (1.0 + 1.0)) == 0.0


class TestArcsinDerivative:
    def test_at_zero(self):
        assert arcsin_derivative_check([0.0], 1e-5) <= 1e-9

    def test_at_one_half(self):
        h = 1e-5
        hi = arcsin_newton(0.5 + h, 1e-15).value
        lo = arcsin_newton(0.5 - h, 1e-15).value
        assert abs((hi - lo) / (2.0 * h) - TWO_OVER_SQRT3) <= 1e-9

    def test_grid_bound(self):
        grid = [-0.9 + i * 0.9 / 50 for i in range(101)]
        assert arcsin_derivative_check(grid, 1e-5) <= 1e-8

    def test_rejects_near_endpoint_grid(self):
        with pytest.raises(DomainError):
            arcsin_derivative_check([0.9999999], 1e-5)

    @pytest.mark.parametrize("h", [0.0, -1e-5, math.nan])
    def test_rejects_a_step_that_is_not_positive(self, h):
        with pytest.raises(ValueError, match="h must be positive"):
            arcsin_derivative_check([0.0], h)


class TestArcLength:
    def test_full_upper_semicircle(self):
        res = arc_length(-1.0, 1.0, 1e-9)
        assert abs(res.value - PI_REF) <= 1e-9

    def test_quarter_arc(self):
        res = arc_length(0.0, 1.0, 1e-10)
        assert abs(res.value - Q_REF) <= 1e-10

    def test_degenerate(self):
        res = arc_length(0.25, 0.25, 1e-10)
        assert res.value == 0.0

    def test_additivity(self):
        rng = random.Random(45)
        for _ in range(100):
            a, b, c = sorted(rng.uniform(-1.0, 1.0) for _ in range(3))
            whole = arc_length(a, c, 1e-9)
            first = arc_length(a, b, 1e-9)
            second = arc_length(b, c, 1e-9)
            assert abs(whole.value - first.value - second.value) <= 3e-9 + 1e-14

    def test_ordering_enforced(self):
        with pytest.raises(DomainError):
            arc_length(0.5, -0.5, 1e-9)
        with pytest.raises(DomainError):
            arc_length(-2.0, 0.5, 1e-9)


class TestUnitCirclePoint:
    def test_at_one(self):
        cs, sn, s = unit_circle_point(1.0)
        assert s == 0.0
        assert cs == 1.0 and sn == 0.0

    def test_at_zero(self):
        cs, sn, s = unit_circle_point(0.0)
        assert abs(s - Q_REF) <= 1e-13
        assert abs(cs) <= 1e-15 and abs(sn - 1.0) <= 1e-15

    def test_at_one_half(self):
        cs, sn, s = unit_circle_point(0.5)
        assert abs(s - 2.0 * PI_6) <= 1e-13  # pi/3
        assert abs(cs - 0.5) <= 1e-14
        assert abs(sn - SQRT3_OVER_2) <= 1e-14

    def test_domain(self):
        with pytest.raises(DomainError):
            unit_circle_point(2.0)

    def test_reproduces_seeded_and_edge_points_within_the_bounds(self):
        # each check is cos and sin's bound plus s's, and 3u sqrt(1 - a^2) for the ordinate
        rng = random.Random(31)
        points = [rng.uniform(-1.0, 1.0) for _ in range(2000)]
        points += [1.0, -1.0, 0.0, -0.0, math.sqrt(0.5), -math.sqrt(0.5)]
        points += [s * t for k in range(1, 54) for t in (1.0 - 2.0 ** -k, 2.0 ** -k)
                   for s in (1.0, -1.0)]
        for a in points:
            unit_circle_point(a)  # raises AssertionError if a check fails


class TestOdeOracle:
    def test_trivial_run(self):
        tr = ode_oracle(0.0, 1e-3)
        assert tr.points == [(0.0, 0.0, 1.0)]
        assert tr.energy_drift == 0.0

    def test_energy_conservation_full_period(self):
        tbl = shared_table()
        tr = ode_oracle(2.0 * tbl.pi, 1e-3)
        assert tr.energy_drift <= 1e-11

    def test_trajectory_matches_series_sine(self):
        tbl = shared_table()
        tr = ode_oracle(2.0 * tbl.pi, 1e-3)
        worst_f = 0.0
        worst_g = 0.0
        for t, f, g in tr.points[:: 7]:
            s = sin_eval(t, 1e-16)
            c = sin_eval(t + tbl.q, 1e-16)  # cos via shift, stays on the sine path
            worst_f = max(worst_f, abs(f - s.value))
            worst_g = max(worst_g, abs(g - c.value))
        assert worst_f <= 1e-10
        assert worst_g <= 1e-10 + 2e-13  # shift adds ~1 ulp of argument error

    def test_step_validation(self):
        with pytest.raises(StepTooLarge):
            ode_oracle(1.0, 0.02)
        with pytest.raises(StepTooLarge):
            ode_oracle(1.0, 0.0)
        with pytest.raises(DomainError):
            ode_oracle(101.0, 1e-3)

    @pytest.mark.parametrize("t_end, step", [(1.0, 5e-324), (100.0, 9.9e-5)])
    def test_more_than_1e6_steps_is_rejected_before_any_step(self, t_end, step):
        with pytest.raises(StepTooLarge, match="more than 1e6 steps"):
            ode_oracle(t_end, step)

    def test_lands_exactly_on_t_end(self):
        tr = ode_oracle(0.0105, 1e-3)
        assert tr.points[-1][0] == 0.0105


class TestAdaptiveSimpsonOnNaN:
    def test_a_nan_integrand_stops_at_the_first_panel(self):
        value, est, evaluations = _integrate([(lambda t: math.nan, 0.0, 1.0)], 1e-10)
        assert math.isnan(value) and math.isnan(est)
        assert evaluations <= 5
