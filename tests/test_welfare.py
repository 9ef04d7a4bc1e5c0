import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from stigmagame import (
    AssumptionViolation,
    ModelParams,
    SimConfig,
    check_assumptions,
    decomposition,
    evaluate_point,
    first_best_benchmark,
    optimize,
    piecewise_linear_cdf,
    present_bias_loss,
    simulate,
    sweep,
    welfare,
)
from stigmagame.cli import load_config
from stigmagame.figures import figure_tables
from stigmagame.signaling import policy_state
from stigmagame.welfare import SweepError, tau_grid

from conftest import PAPER_CFG, PIECEWISE_CFG


def expected_chain(tau: float) -> dict:
    """Independent closed-form oracle for the bundled uniform parameter set.

    Derived by hand: S = tau, bonus = 0.015625/S above the support kink at
    S = 0.125 and 0.25 - S below it, r = 2*(u/gap)^2, truncated first
    moment of uniform(0,2) at 2S is S^2.
    """
    s = tau
    if s >= 0.125:
        bonus = 0.015625 / s
    else:
        bonus = 0.25 - s
    gap = 0.6 - bonus
    beta_star = 0.1 / gap
    r = 2.0 * beta_star**2
    r_h = 1.0 if s <= 0.125 else 0.125 / s
    big_r = r * r_h
    pe = s * s
    w_a = 1.7 - r * (gap - 0.1)
    w_b = 1.0 - big_r * pe
    return dict(S=s, gap=gap, r=r, R_H=r_h, R=big_r, W_A=w_a, W_B=w_b, W=w_a + w_b)


class TestWelfare:
    def test_zero_policy_point(self, paper_params):
        rep = welfare(paper_params, 0.0)
        assert rep.W_A == pytest.approx(1.659183673469388, abs=1e-9)
        assert rep.W_B == pytest.approx(1.0, abs=1e-12)
        assert rep.W == pytest.approx(2.659183673469388, abs=1e-9)

    def test_full_policy_point(self, paper_params):
        rep = welfare(paper_params, 1.0)
        exp = expected_chain(1.0)
        assert rep.W == pytest.approx(exp["W"], abs=1e-9)
        assert rep.W == pytest.approx(2.664311247104579, abs=1e-9)

    def test_full_stigma_beats_none_under_corrected(self, paper_params):
        assert welfare(paper_params, 1.0).W > welfare(paper_params, 0.0).W

    def test_full_stigma_loses_under_paper_literal(self, paper_params):
        # the literal bookkeeping reverses the headline comparison
        w0 = welfare(paper_params, 0.0, "paper_literal").W
        w1 = welfare(paper_params, 1.0, "paper_literal").W
        assert w1 < w0

    def test_components_sum(self, paper_params):
        for tau in (0.0, 0.3, 0.7, 1.0):
            for conv in ("corrected", "paper_literal"):
                rep = welfare(paper_params, tau, conv)
                assert rep.W_A == rep.welfare_high + rep.welfare_low
                assert rep.W_B == rep.welfare_B_discriminators + rep.welfare_B_accepters
                assert rep.W == rep.W_A + rep.W_B

    def test_corrected_wb_is_mean_at_zero_policy(self, paper_params):
        assert welfare(paper_params, 0.0).W_B == 1.0

    def test_corrected_dominates_literal_at_low_testing(self, paper_params):
        # W_B difference is (1 - 2R) * E[y; y < cutoff] >= 0 whenever R <= 1/2
        for tau in np.linspace(0.0, 1.0, 21):
            corr = welfare(paper_params, float(tau), "corrected")
            lit = welfare(paper_params, float(tau), "paper_literal")
            assert corr.W_B >= lit.W_B - 1e-15
            assert corr.W_A == lit.W_A

    def test_oracle_chain_across_grid(self, paper_params):
        for tau in np.linspace(0.0, 1.0, 41):
            rep = welfare(paper_params, float(tau))
            exp = expected_chain(float(tau))
            assert rep.W == pytest.approx(exp["W"], abs=1e-9)

    def test_nonzero_true_risk_rejected(self, paper_params):
        # ModelParams rejects it, so no welfare call can receive it
        with pytest.raises(ValueError, match="tau_true must be 0"):
            welfare(replace(paper_params, tau_true=0.2))

    def test_gap_assumption_enforced(self, paper_params):
        with pytest.raises(AssumptionViolation) as info:
            welfare(replace(paper_params, c_h=0.3))
        assert info.value.assumption == "assumption 3"

    def test_unknown_convention_rejected(self, paper_params):
        with pytest.raises(ValueError):
            welfare(paper_params, 0.5, "folk")


class TestFirstBest:
    def test_paper_values(self, paper_params):
        rep = first_best_benchmark(paper_params)
        assert rep.W_A == pytest.approx(1.7, abs=1e-12)
        assert rep.W_B == pytest.approx(1.0, abs=1e-12)
        assert rep.W == pytest.approx(2.7, abs=1e-12)

    def test_additive_in_coordination_payoff(self, paper_params):
        rep = first_best_benchmark(replace(paper_params, M=0.0))
        assert rep.W_A == pytest.approx(0.7, abs=1e-12)

    def test_dominates_every_policy(self, paper_params):
        bench = first_best_benchmark(paper_params).W
        for tau in np.linspace(0.0, 1.0, 21):
            assert bench >= welfare(paper_params, float(tau)).W


class TestPresentBiasLoss:
    def test_paper_values(self, paper_params):
        loss = present_bias_loss(paper_params)
        assert loss.continuation_loss == pytest.approx(8.0 / 49.0 * 0.35, abs=1e-9)
        assert loss.total_shortfall == pytest.approx(8.0 / 49.0 * 0.25, abs=1e-9)

    def test_shortfall_matches_benchmark_difference(self, paper_params):
        loss = present_bias_loss(paper_params)
        diff = first_best_benchmark(paper_params).W - welfare(paper_params, 0.0).W
        assert loss.total_shortfall == pytest.approx(diff, abs=1e-9)

    def test_no_bias_no_loss(self, paper_params):
        # present bias concentrated near 1: nobody is hot at beta* = 2/7
        patient = piecewise_linear_cdf([(0.9, 0.0), (1.0, 1.0)])
        loss = present_bias_loss(replace(paper_params, dist_beta=patient))
        assert loss.continuation_loss == 0.0
        assert loss.total_shortfall == 0.0

    def test_vanishing_gap_vanishing_loss(self, paper_params):
        # just above the gap assumption boundary: all-unsafe regime, r = 1,
        # and the loss degrades to the (tiny) gap itself
        tight = replace(paper_params, c_h=(0.25 + 1e-6) / 0.6)
        loss = present_bias_loss(tight)
        assert loss.continuation_loss == pytest.approx(1e-6, rel=1e-3)


class TestDecomposition:
    def test_paper_point(self, paper_params):
        dec = decomposition(paper_params, 0.5)
        assert dec.deterrence_gain == pytest.approx(0.057692307692308, abs=1e-9)
        assert dec.suppression_loss == pytest.approx(-0.013524936601860, abs=1e-9)
        assert dec.b_loss == pytest.approx(-0.003864267600531, abs=1e-9)
        assert dec.paper_sum == pytest.approx(
            dec.deterrence_gain + dec.suppression_loss + dec.b_loss, abs=1e-15
        )
        assert dec.exact_delta == pytest.approx(0.007970051926096, abs=1e-9)
        assert dec.residual == pytest.approx(dec.exact_delta - dec.paper_sum, abs=1e-15)

    def test_continuity_at_baseline(self, paper_params):
        dec = decomposition(paper_params, 1e-6)
        assert abs(dec.exact_delta) < 1e-5
        assert abs(dec.paper_sum) < 1e-5

    def test_domain_validation(self, paper_params):
        with pytest.raises(ValueError):
            decomposition(paper_params, 0.0)
        with pytest.raises(ValueError):
            decomposition(paper_params, 1.5)


class TestSweep:
    def test_stigma_tracks_policy_on_paper_set(self, paper_params):
        grid = [i / 100 for i in range(101)]
        rows = sweep(paper_params, grid)
        for g, row in zip(grid, rows):
            assert abs(row.S - g) <= 1e-12

    def test_monotone_columns(self, paper_params):
        rows = sweep(paper_params, [i / 100 for i in range(101)])
        r = [row.r for row in rows]
        r_h = [row.R_H for row in rows]
        gap = [row.gap for row in rows]
        assert all(b < a for a, b in zip(r, r[1:]))
        assert all(b <= a for a, b in zip(r_h, r_h[1:]))
        assert all(b >= a for a, b in zip(gap, gap[1:]))

    def test_testing_saturates_below_kink(self, paper_params):
        rows = sweep(paper_params, [0.0, 0.05, 0.1, 0.125])
        assert all(row.R_H == 1.0 for row in rows)

    def test_rows_match_single_point_evaluation(self, paper_params):
        grid = [0.0, 0.25, 0.5, 0.75, 1.0]
        rows = sweep(paper_params, grid)
        for g, row in zip(grid, rows):
            assert row == evaluate_point(paper_params, g)

    def test_grid_validation(self, paper_params):
        with pytest.raises(ValueError):
            sweep(paper_params, [0.5, 0.25])
        with pytest.raises(ValueError):
            sweep(paper_params, [0.0, 1.5])

    def test_chain_runs_once_per_point(self, paper_params, monkeypatch):
        # the package re-exports the function `welfare`, so reach the module
        # through sys.modules
        module = sys.modules["stigmagame.welfare"]
        original = module.period1_outcome
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, "period1_outcome", counting)
        row = evaluate_point(paper_params, 0.3)
        assert len(calls) == 1
        assert row.W == welfare(paper_params, 0.3).W
        calls.clear()
        grid = [i / 16 for i in range(17)]
        sweep(paper_params, grid)
        assert len(calls) == len(grid)
        calls.clear()
        figure_tables(paper_params, "corrected", len(grid))
        assert len(calls) == len(grid)

    def test_mean_of_y_is_computed_once(self, paper_params, monkeypatch):
        # E[y] does not depend on tau: one pass over the knots per spec, then
        # two truncated moments per point (the testing bonus and B's payoff)
        calls = []
        for short in ("distributions", "signaling", "welfare"):
            module = sys.modules[f"stigmagame.{short}"]

            def counting(spec, t, original=module.partial_expectation):
                calls.append(t)
                return original(spec, t)

            monkeypatch.setattr(module, "partial_expectation", counting)
        params = replace(paper_params, dist_y=piecewise_linear_cdf([(0.0, 0.0), (2.0, 1.0)]))
        grid = [i / 16 for i in range(17)]
        rows = sweep(params, grid)
        assert len(calls) == 2 * len(grid) + 1
        assert rows == sweep(paper_params, grid)

    def test_failed_row_identifies_tau(self, paper_params, monkeypatch):
        module = sys.modules["stigmagame.welfare"]
        original = module.policy_state

        def failing(p, tau_hat):
            if tau_hat == 0.25:
                raise ArithmeticError("injected failure")
            return original(p, tau_hat)

        monkeypatch.setattr(module, "policy_state", failing)
        with pytest.raises(SweepError) as info:
            sweep(paper_params, [0.0, 0.25, 1.0])
        assert info.value.tau_hat == 0.25
        assert isinstance(info.value.__cause__, ArithmeticError)

    @pytest.mark.parametrize(
        "change, error",
        [({"c_h": 0.3}, AssumptionViolation), ({"tau_true": 0.2}, ValueError)],
    )
    def test_preconditions_fail_before_any_point(self, paper_params, change, error):
        # tau_true fails in ModelParams, before the sweep is called
        with pytest.raises(error):
            sweep(replace(paper_params, **change), [0.0, 0.5, 1.0])


class TestPolicyValue:
    def test_params_are_built_once_per_command_at_most(self, paper_params, monkeypatch):
        # the evaluated tau_hat is an argument of the chain, so no command
        # copies (and re-validates) ModelParams per point; optimize makes its
        # one M = 0 copy
        original = ModelParams.__post_init__
        calls = []

        def counting(self):
            calls.append(self)
            original(self)

        monkeypatch.setattr(ModelParams, "__post_init__", counting)
        p, grid = paper_params, tau_grid(101)
        commands = {
            "sweep": lambda: sweep(p, grid),
            "optimize": lambda: optimize(p),
            "figure_tables": lambda: figure_tables(p, "corrected", 101),
            "evaluate_point": lambda: [evaluate_point(p, t) for t in grid],
            "welfare": lambda: [welfare(p, t) for t in grid],
            "decomposition": lambda: [decomposition(p, t) for t in grid[1:]],
            "simulate": lambda: simulate(p, SimConfig(n_pairs=100, seed=1, tau_hat=0.3)),
            "check_assumptions": lambda: check_assumptions(p),
        }
        built = {}
        for name, command in commands.items():
            calls.clear()
            command()
            built[name] = len(calls)
        assert built == dict.fromkeys(commands, 0) | {"optimize": 1}

    @pytest.mark.parametrize("convention", ["corrected", "paper_literal"])
    @pytest.mark.parametrize("config", [PAPER_CFG, PIECEWISE_CFG], ids=["paper", "piecewise"])
    def test_configured_tau_does_not_leak(self, config, convention):
        # the same evaluated tau_hat gives the same bits whatever tau_hat the
        # parameters were configured with
        base = load_config(config).params
        variants = [replace(base, tau_hat=t) for t in (0.0, 0.5, 1.0)]
        for tau in (0.0, 0.3, 0.85, 1.0):
            sim = SimConfig(n_pairs=3000, seed=11, tau_hat=tau, convention=convention)
            for results in (
                [evaluate_point(p, tau, convention) for p in variants],
                [welfare(p, tau, convention) for p in variants],
                [simulate(p, sim) for p in variants],
            ):
                assert len({repr(r) for r in results}) == 1, (tau, results)

    @pytest.mark.parametrize("tau", [-0.1, 1.5, math.nan])
    def test_tau_outside_unit_interval_rejected(self, paper_params, tau):
        for evaluate in (evaluate_point, welfare, policy_state):
            with pytest.raises(ValueError, match=r"tau_hat must lie in \[0, 1\]"):
                evaluate(paper_params, tau)


class TestOptimize:
    def test_interior_argmax_on_paper_set(self, paper_params):
        res = optimize(paper_params, tol=1e-6)
        assert 0.25 <= res.tau_star <= 0.50
        w0 = welfare(paper_params, 0.0).W
        w1 = welfare(paper_params, 1.0).W
        assert res.W_star > max(w0, w1)
        assert res.W_star >= max(w0, w1) - 1e-6

    def test_deterministic(self, paper_params):
        a = optimize(paper_params, tol=1e-6)
        b = optimize(paper_params, tol=1e-6)
        assert a.tau_star == b.tau_star
        assert a.W_star == b.W_star
        assert a.trace == b.trace

    def test_argmax_invariant_to_coordination_payoff(self, paper_params):
        stars = [
            optimize(replace(paper_params, M=m), tol=1e-6).tau_star
            for m in (0.0, 1.0, 5.0, 100.0)
        ]
        assert all(s == stars[0] for s in stars)

    def test_no_deterrence_channel_prefers_zero(self, paper_params):
        # nobody is ever hot: the only channel left is suppression
        patient = piecewise_linear_cdf([(0.9, 0.0), (1.0, 1.0)])
        res = optimize(replace(paper_params, dist_beta=patient), tol=1e-6)
        assert res.tau_star <= 1e-6

    def test_validation(self, paper_params):
        for tol in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="tol"):
                optimize(paper_params, tol=tol)
        with pytest.raises(ValueError):
            optimize(paper_params, grid_points=2)
