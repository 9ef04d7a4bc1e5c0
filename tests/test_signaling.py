import math

import numpy as np
import pytest

from stigmagame import (
    AssumptionViolation,
    ModelParams,
    assumption3_margin,
    check_assumptions,
    continuation_values,
    evaluate_point,
    pointwise_continuation,
    stigma_level,
    uniform,
)

from conftest import best_response_interact, best_response_test, random_valid_params

R_AT_HALF = 512.0 / 8281.0  # closed form 2*(0.1/0.56875)^2


class TestModelParams:
    def test_theta_ordering_enforced(self, paper_params):
        with pytest.raises(ValueError):
            paper_params._replace(theta_L=0.9)

    def test_assumption1_low_side(self, paper_params):
        with pytest.raises(AssumptionViolation) as info:
            paper_params._replace(c=0.1)
        assert info.value.assumption == "assumption 1"

    def test_assumption1_high_side(self, paper_params):
        with pytest.raises(AssumptionViolation):
            paper_params._replace(c=0.9)

    def test_tau_range(self, paper_params):
        with pytest.raises(ValueError):
            paper_params._replace(tau_hat=1.5)

    @pytest.mark.parametrize("name", ["dist_beta", "dist_y"])
    def test_supports_start_at_zero_or_above(self, paper_params, name):
        for lo in (-0.5, -1e-300):
            with pytest.raises(ValueError, match=f"{name} support must start at 0 or above"):
                paper_params._replace(**{name: uniform(lo, 1.0)})
        for lo in (-0.0, 0.0, 0.25):
            assert getattr(paper_params._replace(**{name: uniform(lo, 1.0)}), name).support_lo == lo


class TestStigma:
    def test_paper_point(self, paper_params):
        assert stigma_level(paper_params, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_zero_perceived_risk(self, paper_params):
        assert stigma_level(paper_params, 0.0) == 0.0

    def test_full_perceived_risk(self, paper_params):
        # cdf(uniform(0,2), 0.8*2.5) saturates at the support top
        assert stigma_level(paper_params, 1.0) == 1.0

    def test_monotone_in_tau(self, paper_params):
        taus = np.linspace(0.0, 1.0, 41)
        vals = [stigma_level(paper_params, float(t)) for t in taus]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestTestingThreshold:
    # y* = (theta_H*v - c)/S = 0.25/S on this set, read through R_H = G_y(y*), y ~ U(0, 2)
    def test_half_stigma(self, paper_params):
        assert continuation_values(paper_params, 0.5)[3] == pytest.approx(0.25, abs=1e-15)

    def test_zero_stigma_is_infinite(self, paper_params):
        # y* = +inf: every high-risk player tests and the gap is assumption 3's margin
        _, _, gap, r_h = continuation_values(paper_params, 0.0)
        assert (gap, r_h) == (assumption3_margin(paper_params), 1.0)

    def test_full_stigma(self, paper_params):
        assert continuation_values(paper_params, 1.0)[3] == pytest.approx(0.125, abs=1e-15)


class TestTestingRates:
    # R_H = G_y(y*) and R = r*R_H, as the chain's row holds them
    def test_paper_point(self, paper_params):
        row = evaluate_point(paper_params, 0.5)  # S = tau_hat on this set
        assert row.R_H == pytest.approx(0.25, abs=1e-15)
        assert row.R == pytest.approx(0.25 * R_AT_HALF, abs=1e-15)

    def test_zero_stigma_limit(self, paper_params):
        row = evaluate_point(paper_params, 0.0)
        assert (row.S, row.R_H, row.R) == (0.0, 1.0, row.r)

    def test_threshold_beyond_support(self, paper_params):
        # y* = 0.25/S reaches the support top 2 exactly at S = 0.125
        row = evaluate_point(paper_params, 0.125)
        assert row.S == 0.125
        assert row.R_H == 1.0
        assert row.R == row.r

    def test_population_rate_factorizes(self, paper_params):
        rng = np.random.default_rng(2)
        for tau in rng.uniform(0.0, 1.0, size=20):
            row = evaluate_point(paper_params, float(tau))
            assert row.R == row.r * row.R_H


class TestBestResponses:
    def test_high_risk_low_valuation_tests(self, paper_params):
        assert best_response_test(0.8, 0.4, 0.5, paper_params) == 1

    def test_high_risk_high_valuation_abstains(self, paper_params):
        assert best_response_test(0.8, 0.6, 0.5, paper_params) == 0

    def test_low_risk_never_tests(self, paper_params):
        rng = np.random.default_rng(3)
        for _ in range(200):
            y = float(rng.uniform(0.0, 2.0))
            s = float(rng.uniform(0.0, 1.0))
            assert best_response_test(paper_params.theta_L, y, s, paper_params) == 0

    def test_low_risk_never_tests_random_params(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p = random_valid_params(rng)
            y = float(rng.uniform(p.dist_y.support_lo, p.dist_y.support_hi))
            s = float(rng.uniform(0.0, 1.0))
            assert best_response_test(p.theta_L, y, s, p) == 0

    def test_untested_always_accepted(self, paper_params):
        assert best_response_interact(0, 0.01, paper_params, 0.5) == 1

    def test_tested_accepted_above_cutoff(self, paper_params):
        assert best_response_interact(1, 1.5, paper_params, 0.5) == 1

    def test_tested_rejected_below_cutoff(self, paper_params):
        assert best_response_interact(1, 0.5, paper_params, 0.5) == 0

    def test_infection_cost_never_enters_choices(self, paper_params):
        # c_h shifts continuation values but not decisions
        other = paper_params._replace(c_h=7.5)
        rng = np.random.default_rng(5)
        for _ in range(100):
            theta = float(rng.choice([paper_params.theta_L, paper_params.theta_H]))
            y = float(rng.uniform(0.0, 2.0))
            s = float(rng.uniform(0.0, 1.0))
            t = int(rng.integers(0, 2))
            assert best_response_test(theta, y, s, paper_params) == best_response_test(
                theta, y, s, other
            )
            assert best_response_interact(t, y, paper_params, 0.5) == best_response_interact(
                t, y, other, 0.5
            )


class TestContinuationValues:
    def test_low_type_independent_of_stigma(self, paper_params):
        for s in (0.0, 0.3, 0.7, 1.0):
            ev_l, _, _, _ = continuation_values(paper_params, s)
            assert ev_l == pytest.approx(0.8, abs=1e-15)

    def test_half_stigma(self, paper_params):
        _, ev_h, gap, _ = continuation_values(paper_params, 0.5)
        assert ev_h == pytest.approx(0.23125, abs=1e-12)
        assert gap == pytest.approx(0.56875, abs=1e-12)

    def test_zero_stigma(self, paper_params):
        _, ev_h, gap, _ = continuation_values(paper_params, 0.0)
        assert ev_h == pytest.approx(0.45, abs=1e-12)
        assert gap == pytest.approx(0.35, abs=1e-12)

    def test_gap_monotone_ev_h_antitone_in_stigma(self, paper_params):
        grid = np.linspace(0.0, 1.0, 101)
        vals = [continuation_values(paper_params, float(s)) for s in grid]
        ev_h = [v[1] for v in vals]
        gap = [v[2] for v in vals]
        assert all(b <= a + 1e-12 for a, b in zip(ev_h, ev_h[1:]))
        assert all(b >= a - 1e-12 for a, b in zip(gap, gap[1:]))

    def test_expectation_matches_pointwise_average(self, paper_params):
        # midpoint rule over 1e6 nodes of the uniform valuation measure
        n = 1_000_000
        nodes = (np.arange(n) + 0.5) * (2.0 / n)
        nodes_l = (np.arange(10_000) + 0.5) * (2.0 / 10_000)
        for s in (0.0, 0.5, 1.0):
            ev_l, ev_h, _, _ = continuation_values(paper_params, s)
            # full-resolution average for the kinked high-risk curve; the
            # low-risk curve is linear so a coarse grid is already exact
            avg_h = math.fsum(
                pointwise_continuation(paper_params, s, float(y), "H") for y in nodes
            ) / n
            avg_l = math.fsum(
                pointwise_continuation(paper_params, s, float(y), "L") for y in nodes_l
            ) / len(nodes_l)
            assert avg_h == pytest.approx(ev_h, abs=1e-8)
            assert avg_l == pytest.approx(ev_l, abs=1e-10)

    def test_last_value_is_the_sweep_rows_testing_rate(self, paper_params):
        # R_H = G_y(y*): everyone tests at S = 0, and y* = 0.25/S on U[0, 2]
        assert continuation_values(paper_params, 0.0)[3] == 1.0
        assert continuation_values(paper_params, 0.5)[3] == pytest.approx(0.25, abs=1e-15)
        for tau in (0.0, 0.3, 1.0):
            row = evaluate_point(paper_params, tau)
            assert continuation_values(paper_params, row.S) == (
                pytest.approx(0.8, abs=1e-15), pytest.approx(0.8 - row.gap, abs=1e-12),
                row.gap, row.R_H,
            )


class TestPointwiseContinuation:
    def test_high_risk_at_zero_valuation(self, paper_params):
        assert pointwise_continuation(paper_params, 0.5, 0.0, "H") == pytest.approx(
            -0.55, abs=1e-15
        )

    def test_low_risk_at_zero_valuation(self, paper_params):
        assert pointwise_continuation(paper_params, 0.5, 0.0, "L") == pytest.approx(
            -0.2, abs=1e-15
        )

    def test_high_risk_above_threshold(self, paper_params):
        assert pointwise_continuation(paper_params, 0.5, 1.0, "H") == pytest.approx(
            0.2, abs=1e-15
        )

    def test_invalid_risk_tag(self, paper_params):
        with pytest.raises(ValueError):
            pointwise_continuation(paper_params, 0.5, 1.0, "X")

    def test_low_type_dominates_under_gap_assumption(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            p = random_valid_params(rng)
            s = float(rng.uniform(0.0, 1.0))
            for y in np.linspace(p.dist_y.support_lo, p.dist_y.support_hi, 33):
                v_l = pointwise_continuation(p, s, float(y), "L")
                v_h = pointwise_continuation(p, s, float(y), "H")
                assert v_l > v_h


class TestSuppression:
    def test_rates_move_against_perceived_risk(self):
        # raising tau_hat raises S and weakly lowers R_H and R
        rng = np.random.default_rng(20240810)
        for i in range(40):
            p = random_valid_params(rng, piecewise_y=(i % 4 == 0))
            taus = np.sort(rng.uniform(0.0, 1.0, size=8))
            s_prev, rh_prev = -1.0, 2.0
            for t in taus:
                row = evaluate_point(p, float(t))
                assert row.S >= s_prev - 1e-10
                assert row.R_H <= rh_prev + 1e-10
                s_prev, rh_prev = row.S, row.R_H


class TestAssumptionReport:
    def test_paper_values(self, paper_params):
        rep = check_assumptions(paper_params, 0.5)
        assert rep.a1_margin > 0
        assert rep.a1_margin == pytest.approx(0.25, abs=1e-12)
        assert rep.a3_holds
        assert rep.a3_margin == pytest.approx(0.35, abs=1e-12)
        # c_h = 1 exceeds (theta_H*v - c)/(theta_H - theta_L) ~ 0.4167
        bound = (0.8 * 1.0 - 0.55) / (0.8 - 0.2)
        assert paper_params.c_h > bound

    def test_a2_mass_at_equilibrium_infection_rate(self, paper_params):
        # h_bar = r*theta_H + (1-r)*theta_L with r = 512/8281; the violating
        # mass is cdf(uniform(0,2), tau_hat*h_bar*z)
        rep = check_assumptions(paper_params, 0.5)
        h_bar = R_AT_HALF * 0.8 + (1.0 - R_AT_HALF) * 0.2
        assert rep.h_bar == pytest.approx(h_bar, abs=1e-12)
        assert rep.a2_violating_mass == pytest.approx(0.5 * h_bar * 2.5 / 2.0, abs=1e-12)

    def test_a3_violation_reported_not_raised(self, paper_params):
        # c_h = 0.3 breaks the zero-stigma gap but gap(S=0.5) stays positive,
        # so the report still reflects an interior composition
        rep = check_assumptions(paper_params._replace(c_h=0.3), 0.5)
        assert not rep.a3_holds
        assert rep.a3_margin < 0.0
        assert paper_params.theta_L < rep.h_bar < paper_params.theta_H

    def test_nonpositive_gap_reports_all_high_risk(self, paper_params):
        # c_h = 0.05 drives gap(S=0.5) below zero: every pair plays unsafe
        rep = check_assumptions(paper_params._replace(c_h=0.05), 0.5)
        assert not rep.a3_holds
        assert rep.h_bar == paper_params.theta_H

