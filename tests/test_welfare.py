import math
import subprocess
import sys
from fractions import Fraction
from functools import cached_property

import numpy as np
import pytest

from stigmagame import (
    AssumptionViolation,
    DistributionSpec,
    ModelParams,
    analytic_targets,
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
from stigmagame.welfare import _pieces, tau_grid

import exact_chain
from conftest import KINKED_CFG, PAPER_CFG, PIECEWISE_CFG, exact_r, src_env


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

    def test_gap_assumption_enforced(self, paper_params):
        with pytest.raises(AssumptionViolation) as info:
            welfare(paper_params._replace(c_h=0.3), 0.5)
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
        rep = first_best_benchmark(paper_params._replace(M=0.0))
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
        loss = present_bias_loss(paper_params._replace(dist_beta=patient))
        assert loss.continuation_loss == 0.0
        assert loss.total_shortfall == 0.0

    def test_vanishing_gap_vanishing_loss(self, paper_params):
        # just above the gap assumption boundary: all-unsafe regime, r = 1,
        # and the loss degrades to the (tiny) gap itself
        tight = paper_params._replace(c_h=(0.25 + 1e-6) / 0.6)
        loss = present_bias_loss(tight)
        assert loss.continuation_loss == pytest.approx(1e-6, rel=1e-3)


class TestDecomposition:
    def test_paper_point(self, paper_params):
        dec = decomposition(paper_params, 0.5)
        # deterred pairs give up u = 0.1 and escape gap(0) = 0.35
        assert dec.deterrence_gain == pytest.approx(0.025359256128487, abs=1e-9)
        assert dec.suppression_loss == pytest.approx(-0.013524936601860, abs=1e-9)
        assert dec.b_loss == pytest.approx(-0.003864267600531, abs=1e-9)
        assert dec.exact_delta == pytest.approx(0.007970051926096, abs=1e-9)
        assert abs(dec.residual) < 1e-15
        assert dec.residual == dec.exact_delta - (
            dec.deterrence_gain + dec.suppression_loss + dec.b_loss
        )

    def test_paper_point_paper_literal(self, paper_params):
        # deterrence and suppression read only r and the gap, which the
        # convention leaves alone; b_loss is -(1 - R1) * E[y; y < cutoff]
        dec = decomposition(paper_params, 0.5, "paper_literal")
        corrected = decomposition(paper_params, 0.5)
        assert dec.deterrence_gain == corrected.deterrence_gain
        assert dec.suppression_loss == corrected.suppression_loss
        assert dec.b_loss == pytest.approx(-0.246135732399469, abs=1e-9)
        assert dec.exact_delta == pytest.approx(-0.234301412872842, abs=1e-9)
        assert abs(dec.residual) < 1e-15

    def test_continuity_at_baseline(self, paper_params):
        dec = decomposition(paper_params, 1e-6)
        assert abs(dec.exact_delta) < 1e-5
        assert abs(dec.deterrence_gain + dec.suppression_loss + dec.b_loss) < 1e-5

    def test_deterrence_can_lose_welfare(self):
        # gap(0) = 0.05 < u = 0.08: each deterred pair is worse off
        dec = decomposition(load_config(PIECEWISE_CFG).params, 0.5)
        assert dec.deterrence_gain == pytest.approx(-0.025247182488517, abs=1e-9)
        assert dec.exact_delta == pytest.approx(-0.069608388617972, abs=1e-9)
        assert abs(dec.residual) < 1e-15

    def test_domain_validation(self, paper_params):
        with pytest.raises(ValueError):
            decomposition(paper_params, 0.0)
        with pytest.raises(ValueError):
            decomposition(paper_params, 1.5)
        with pytest.raises(ValueError, match="convention"):
            decomposition(paper_params, 0.5, "literal")


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
        with pytest.raises(ValueError, match="^grid must be sorted ascending$"):
            sweep(paper_params, [0.5, 0.25])
        # a point outside [0, 1] is the chain's to reject, as at every point
        with pytest.raises(ValueError, match=r"^tau_hat must lie in \[0, 1\], got 1.5$"):
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
        # the figures add one point, at the configured tau_hat, and the
        # simulation reads its one row
        figure_tables(paper_params, 0.5, len(grid))
        assert len(calls) == len(grid) + 1
        calls.clear()
        simulate(paper_params, 0.5, 10, 1)
        assert len(calls) == 1

    def test_mean_of_y_is_computed_once(self, paper_params, monkeypatch):
        # E[y] does not depend on tau: it is computed once per spec, then each
        # point makes two lookups on the valuation knots, one at the cutoff (S
        # and B's payoff) and one at y* (R_H and the testing bonus)
        params = paper_params._replace(dist_y=piecewise_linear_cdf([(0.0, 0.0), (2.0, 1.0)]))
        lookups = []
        for short in ("distributions", "signaling", "welfare", "coordination"):
            module = sys.modules[f"stigmagame.{short}"]
            for name in ("cdf", "cdf_and_moment", "partial_expectation"):
                if hasattr(module, name):

                    def counting(spec, t, original=getattr(module, name)):
                        if spec is params.dist_y:
                            lookups.append(t)
                        return original(spec, t)

                    monkeypatch.setattr(module, name, counting)
        mean = DistributionSpec.__dict__["mean"]
        means = []

        def counting_mean(spec):
            means.append(spec)
            return mean.func(spec)

        patched = cached_property(counting_mean)
        patched.__set_name__(DistributionSpec, "mean")
        monkeypatch.setattr(DistributionSpec, "mean", patched)
        grid = [i / 16 for i in range(17)]
        rows = sweep(params, grid)
        assert len(lookups) == 2 * len(grid)
        assert means == [params.dist_y]
        assert rows == sweep(paper_params, grid)

    @pytest.mark.parametrize(
        "change, error",
        [({"c_h": 0.3}, AssumptionViolation), ({"tau_hat": 1.5}, ValueError)],
    )
    def test_preconditions_fail_before_any_point(self, paper_params, change, error):
        # tau_hat fails in ModelParams, before the sweep is called
        with pytest.raises(error):
            sweep(paper_params._replace(**change), [0.0, 0.5, 1.0])

    @pytest.mark.parametrize("n", [0, 1])
    def test_a_grid_needs_two_points(self, paper_params, n):
        message = f"a tau_hat grid needs at least 2 points, got {n}"
        with pytest.raises(ValueError, match=message):
            tau_grid(n)
        with pytest.raises(ValueError, match=message):
            figure_tables(paper_params, 0.5, n)
        assert tau_grid(2) == [0.0, 1.0]


class TestPolicyValue:
    def test_params_are_built_once_per_command_at_most(self, paper_params, monkeypatch):
        # the evaluated tau_hat is an argument of the chain, so no command
        # copies (and re-validates) ModelParams per point; optimize makes its
        # one M = 0 copy, through _replace, which validates like the constructor
        original = ModelParams._validate
        calls = []

        def counting(self):
            calls.append(self)
            original(self)

        monkeypatch.setattr(ModelParams, "_validate", counting)
        p, grid = paper_params, tau_grid(101)
        commands = {
            "sweep": lambda: sweep(p, grid),
            "optimize": lambda: optimize(p),
            "figure_tables": lambda: figure_tables(p, 0.5, 101),
            "evaluate_point": lambda: [evaluate_point(p, t) for t in grid],
            "welfare": lambda: [welfare(p, t) for t in grid],
            "decomposition": lambda: [decomposition(p, t) for t in grid[1:]],
            "simulate": lambda: simulate(p, 0.3, 100, 1),
            "check_assumptions": lambda: check_assumptions(p, 0.5),
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
        # parameters were configured with: only the CLI reads params.tau_hat
        base = load_config(config).params
        variants = [base._replace(tau_hat=t) for t in (0.0, 0.5, 1.0)]
        entry_points = [
            lambda p, tau: evaluate_point(p, tau, convention),
            lambda p, tau: welfare(p, tau, convention),
            lambda p, tau: analytic_targets(p, tau, convention),
            lambda p, tau: simulate(p, tau, 3000, 11, convention),
            lambda p, tau: check_assumptions(p, tau),
            lambda p, tau: figure_tables(p, tau, 11, convention),
            lambda p, tau: decomposition(p, tau) if tau > 0.0 else None,
        ]
        for tau in (0.0, 0.3, 0.85, 1.0):
            for entry_point in entry_points:
                results = [entry_point(p, tau) for p in variants]
                assert len({repr(r) for r in results}) == 1, (tau, results)

    @pytest.mark.parametrize("tau", [-0.1, 1.5, math.nan])
    def test_tau_outside_unit_interval_rejected(self, paper_params, tau):
        for evaluate in (
            evaluate_point,
            welfare,
            check_assumptions,
            lambda p, tau: figure_tables(p, tau, 3),
            lambda p, tau: simulate(p, tau, 1, 1),
        ):
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
            optimize(paper_params._replace(M=m), tol=1e-6).tau_star
            for m in (0.0, 1.0, 5.0, 100.0)
        ]
        assert all(s == stars[0] for s in stars)

    def test_no_deterrence_channel_prefers_zero(self, paper_params):
        # nobody is ever hot: the only channel left is suppression
        patient = piecewise_linear_cdf([(0.9, 0.0), (1.0, 1.0)])
        res = optimize(paper_params._replace(dist_beta=patient), tol=1e-6)
        assert res.tau_star <= 1e-6

    def test_kinked_optimum_lies_above_the_natural_level(self):
        # a 101-point grid scan steps over this peak and returned tau_star = 0
        res = optimize(load_config(KINKED_CFG).params)
        assert res.tau_star == pytest.approx(0.946050, abs=1e-6)
        assert res.W_star >= 4.831282414338837  # the peak of a 200001-point grid

    def test_every_interior_piece_end_is_a_kink(self):
        # exact one-sided slopes at +-2**-30 jump at each interior piece end,
        # by far more than they drift one step further out
        params = load_config(KINKED_CFG).params
        h = Fraction(1, 2**30)
        ends = _pieces(params)[1:-1]
        assert ends
        for tau in map(Fraction, ends):
            w = [exact_chain.chain(params, tau + j * h, "corrected")["W"] for j in range(-2, 3)]
            slopes = [(b - a) / h for a, b in zip(w, w[1:])]
            jump = abs(slopes[2] - slopes[1])
            drift = max(abs(slopes[1] - slopes[0]), abs(slopes[3] - slopes[2]))
            assert jump > 0.01 and jump > 1000 * drift, (float(tau), float(jump), float(drift))

    def test_beta_side_points_are_not_kinks(self):
        # r = G(2*beta*) with G continuously differentiable, so no beta knot
        # and no midpoint (x_j + x_k)/2, where G's quadratic changes, is a
        # piece end: exact one-sided slopes of r at +-2**-30 jump there by no
        # more than they drift one step further out, an O(h) change
        spec = load_config(KINKED_CFG).params.dist_beta
        h = Fraction(1, 2**30)
        xs = [Fraction(x) for x in spec.knots_x]
        for beta in sorted({(a + b) / 2 for a in xs for b in xs}):
            r = [exact_r(spec, beta + j * h) for j in range(-2, 3)]
            slopes = [(b - a) / h for a, b in zip(r, r[1:])]
            jump = abs(slopes[2] - slopes[1])
            drift = max(abs(slopes[1] - slopes[0]), abs(slopes[3] - slopes[2]))
            assert jump <= drift, (float(beta), float(jump), float(drift))

    @pytest.mark.parametrize("convention", ["corrected", "paper_literal"])
    @pytest.mark.parametrize("config", [PIECEWISE_CFG, KINKED_CFG], ids=["piecewise", "kinked"])
    def test_no_slope_jump_off_the_piece_ends(self, config, convention):
        # a second difference of W on a 20001-point grid more than 100 times
        # both of its neighbours three steps out, and above rounding (a W
        # linear in tau has second differences of an ulp or 0), is a slope
        # jump; each must lie within two steps of a _pieces end
        params = load_config(config).params
        n = 20_001
        w = np.array([row.W for row in sweep(params, tau_grid(n), convention)])
        d2 = np.abs(np.diff(w, 2))  # d2[k] is centred on grid point k + 1
        k = np.arange(3, len(d2) - 3)
        spike = (d2[k] > 100.0 * np.maximum(d2[k - 3], d2[k + 3])) & (d2[k] > 1e-12)
        spikes = k[spike] + 1
        ends = np.array(_pieces(params)) * (n - 1)
        assert len(spikes) > 0
        far = [i / (n - 1) for i in spikes if np.min(np.abs(ends - i)) > 2.0]
        assert far == []

    def test_many_knot_valuations_end_in_bounded_time(self):
        # every y knot makes up to two pieces; a fresh interpreter under a
        # timeout turns a per-piece cost that grows with the knots into a failure
        code = (
            "import numpy as np\n"
            "from stigmagame import optimize, piecewise_linear_cdf\n"
            "from stigmagame.cli import load_config\n"
            f"params = load_config({str(PAPER_CFG)!r}).params\n"
            "rng = np.random.default_rng(3)\n"
            "xs = np.cumsum(rng.uniform(0.1, 1.0, 3000))\n"
            "ps = np.cumsum(rng.uniform(0.0, 1.0, 3000))\n"
            "knots = list(zip((2.0 * (xs - xs[0]) / (xs[-1] - xs[0])).tolist(),\n"
            "                 ((ps - ps[0]) / (ps[-1] - ps[0])).tolist()))\n"
            "res = optimize(params._replace(dist_y=piecewise_linear_cdf(knots)))\n"
            "print(res.tau_star, len(res.trace))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=src_env(), capture_output=True, text=True, timeout=20
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout.split()[1]) > 3000

    def test_validation(self, paper_params):
        for tol in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="tol"):
                optimize(paper_params, tol=tol)
