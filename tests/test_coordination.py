import math

import numpy as np
import pytest

from stigmagame import (
    AssumptionViolation,
    DistributionSpec,
    cdf,
    cdf_and_moment,
    cli,
    continuation_values,
    high_risk_fraction,
    hot_threshold,
    period1_outcome,
    piecewise_linear_cdf,
    stigma_level,
    uniform,
)

from conftest import (
    PIECEWISE_CFG,
    pair_outcome,
    quadrature_r,
    random_piecewise_beta,
    random_valid_params,
    sample,
)

BETA01 = uniform(0.0, 1.0)


def closed_form_r(beta_star: float) -> float:
    """Unsafe-pair mass for uniform(0,1) present bias, both branches."""
    if 2.0 * beta_star <= 1.0:
        return 2.0 * beta_star**2
    if beta_star >= 1.0:
        return 1.0
    return -2.0 * beta_star**2 + 4.0 * beta_star - 1.0


class TestHotThreshold:
    def test_zero_stigma_paper_value(self):
        assert hot_threshold(0.1, 0.35) == pytest.approx(2.0 / 7.0, abs=1e-12)

    def test_half_stigma_paper_value(self):
        assert hot_threshold(0.1, 0.56875) == pytest.approx(16.0 / 91.0, abs=1e-12)

    def test_large_premium_signals_all_unsafe(self):
        assert hot_threshold(0.5, 0.35) > 1.0

    def test_nonpositive_gap_rejected(self):
        with pytest.raises(AssumptionViolation) as info:
            hot_threshold(0.1, 0.0)
        assert info.value.assumption == "assumption 3"


class TestHotFraction:
    # H = F_beta(u/gap), as period1_outcome reads it, on uniform(0, 1) present bias
    def test_uniform_identity(self, paper_params):
        assert period1_outcome(paper_params, 0.35).H == pytest.approx(2.0 / 7.0, abs=1e-15)

    def test_zero_threshold(self, paper_params):
        assert period1_outcome(paper_params._replace(u=0.0), 0.35).H == 0.0

    def test_threshold_above_one(self, paper_params):
        assert period1_outcome(paper_params._replace(u=0.595), 0.35).H == 1.0


@pytest.mark.parametrize(
    "function", [cdf, cdf_and_moment, high_risk_fraction, hot_threshold],
    ids=lambda f: f.__name__,
)
def test_a_nan_threshold_is_an_error(function):
    # NaN fails every comparison, so unchecked it passes the range tests into
    # an IndexError, a CDF of 1.0 or beta* = NaN; a NaN gap fails assumption 3
    first, error = (0.1, AssumptionViolation) if function is hot_threshold else (BETA01, ValueError)
    with pytest.raises(ValueError, match="got nan") as info:
        function(first, math.nan)
    assert type(info.value) is error


class TestPairOutcome:
    def test_hot_hot_unsafe(self):
        assert pair_outcome(0.1, 0.1, 2.0 / 7.0) == "unsafe"

    def test_mixed_pair_jointly_patient(self):
        assert pair_outcome(0.2, 0.9, 2.0 / 7.0) == "safe"

    def test_mixed_pair_jointly_impatient(self):
        assert pair_outcome(0.3, 0.2, 2.0 / 7.0) == "unsafe"

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            a, b, t = rng.uniform(0.0, 1.0, size=3)
            assert pair_outcome(a, b, t) == pair_outcome(b, a, t)

    def test_ties_resolve_safe(self):
        assert pair_outcome(0.3, 0.3, 0.3) == "safe"  # at-threshold players are cold
        assert pair_outcome(0.2, 0.4, 0.3) == "safe"  # joint bias exactly at 2*beta*


class TestHighRiskFraction:
    def test_paper_points(self):
        assert high_risk_fraction(BETA01, 2.0 / 7.0) == pytest.approx(
            8.0 / 49.0, abs=1e-10
        )
        assert high_risk_fraction(BETA01, 16.0 / 91.0) == pytest.approx(
            512.0 / 8281.0, abs=1e-10
        )

    def test_zero_threshold(self):
        assert high_risk_fraction(BETA01, 0.0) == 0.0

    def test_closed_form_agreement_small_thresholds(self):
        rng = np.random.default_rng(20240810)
        for beta_star in rng.uniform(0.0, 0.5, size=30):
            r = high_risk_fraction(BETA01, float(beta_star))
            assert abs(r - closed_form_r(float(beta_star))) <= 1e-12
            assert abs(r - quadrature_r(BETA01, float(beta_star))) <= 1e-12

    def test_closed_form_agreement_clamped_region(self):
        # 2*beta* beyond the support top exercises the clamp branch
        rng = np.random.default_rng(9)
        for beta_star in rng.uniform(0.5, 1.0, size=20):
            r = high_risk_fraction(BETA01, float(beta_star))
            assert abs(r - closed_form_r(float(beta_star))) <= 1e-12
            assert abs(r - quadrature_r(BETA01, float(beta_star))) <= 1e-12

    def test_random_piecewise_against_quadrature_oracle(self):
        rng = np.random.default_rng(20240810)
        for _ in range(40):
            spec = random_piecewise_beta(rng)
            for beta_star in rng.uniform(0.0, 1.0, size=3):
                r = high_risk_fraction(spec, float(beta_star))
                assert abs(r - quadrature_r(spec, float(beta_star))) <= 1e-12

    @pytest.mark.parametrize("offset", [-1e-4, 5e-5, 3e-4])
    def test_narrow_knot_piece_next_to_joint_threshold(self, offset):
        # half the mass on a 1e-4-wide piece near 2*beta*: unsplit adaptive
        # quadrature stepped over it and missed r by up to 3.3e-4
        spec = piecewise_linear_cdf(
            [(0.0, 0.0), (0.3, 0.4), (0.3001, 0.9), (1.0, 1.0)]
        )
        beta_star = (0.3 + offset) / 2.0
        r = high_risk_fraction(spec, beta_star)
        assert abs(r - quadrature_r(spec, beta_star)) <= 1e-12

    def test_pair_simulation_oracle(self):
        # brute-force oracle: classify a million sampled pairs one by one
        n = 1_000_000
        rng = np.random.default_rng(20240810)
        draws = rng.random(2 * n)
        beta_star = 2.0 / 7.0
        unsafe = sum(
            1
            for i in range(n)
            if pair_outcome(draws[2 * i], draws[2 * i + 1], beta_star) == "unsafe"
        )
        estimate = unsafe / n
        se = (estimate * (1.0 - estimate) / n) ** 0.5
        analytic = high_risk_fraction(BETA01, beta_star)
        assert abs(estimate - analytic) <= 3.0 * se

    def test_no_mixed_mass_collapses_to_hot_square(self):
        # zero density on (0.25, 0.5) makes every mixed pair safe
        flat = piecewise_linear_cdf([(0.0, 0.0), (0.2, 0.5), (0.5, 0.5), (1.0, 1.0)])
        beta_star = 0.25
        h = cdf(flat, beta_star)
        assert h == 0.5
        assert high_risk_fraction(flat, beta_star) == pytest.approx(h * h, abs=1e-10)

    def test_piecewise_distribution_against_pair_oracle(self):
        spec = piecewise_linear_cdf([(0.0, 0.0), (0.3, 0.6), (1.0, 1.0)])
        beta_star = 0.3
        analytic = high_risk_fraction(spec, beta_star)
        n = 400_000
        rng = np.random.default_rng(13)
        draws = sample(spec, rng, 2 * n)
        unsafe = sum(
            1
            for i in range(n)
            if pair_outcome(draws[2 * i], draws[2 * i + 1], beta_star) == "unsafe"
        )
        estimate = unsafe / n
        se = (estimate * (1.0 - estimate) / n) ** 0.5
        assert abs(estimate - analytic) <= 3.0 * se


class TestSumTable:
    def test_a_sweep_builds_the_beta_table_once(self, tmp_path, monkeypatch):
        prop = DistributionSpec.__dict__["sum_cdf_table"]
        built = []

        def counted(spec, build=prop.func):
            built.append(spec)
            return build(spec)

        monkeypatch.setattr(prop, "func", counted)
        argv = ["sweep", "--config", str(PIECEWISE_CFG), "--grid", "1001"]
        assert cli.main(argv + ["--out", str(tmp_path)]) == 0
        params = cli.load_config(PIECEWISE_CFG).params
        assert built == [params.dist_beta]
        assert params.dist_y not in built

    def test_ends_are_exact(self):
        spec = piecewise_linear_cdf([(0.25, 0.0), (0.3, 0.4), (0.9, 1.0)])
        ts = spec.sum_cdf_table[0]
        assert (ts[0], ts[-1]) == (0.5, 1.8)
        assert high_risk_fraction(spec, 0.25) == 0.0
        assert high_risk_fraction(spec, 0.9) == 1.0
        assert high_risk_fraction(spec, 0.9 - 1e-9) < 1.0

    def test_density_above_the_table_limit_is_rejected(self):
        with pytest.raises(ValueError, match="above 1e150"):
            high_risk_fraction(uniform(0.0, 1e-160), 0.0)


class TestPeriod1Outcome:
    def test_paper_zero_stigma(self, paper_params):
        out = period1_outcome(paper_params, 0.35)
        assert out.regime == "interior"
        assert out.beta_star == pytest.approx(2.0 / 7.0, abs=1e-12)
        assert out.H == pytest.approx(2.0 / 7.0, abs=1e-12)
        assert out.r == pytest.approx(8.0 / 49.0, abs=1e-10)

    def test_paper_full_stigma(self, paper_params):
        p = paper_params
        _, _, gap, _ = continuation_values(p, stigma_level(p, 1.0))
        out = period1_outcome(p, gap)
        assert gap == pytest.approx(0.584375, abs=1e-12)
        assert out.beta_star == pytest.approx(0.1 / 0.584375, abs=1e-12)
        assert out.r == pytest.approx(2.0 * (0.1 / 0.584375) ** 2, abs=1e-10)

    def test_all_unsafe_regime(self, paper_params):
        out = period1_outcome(paper_params._replace(u=1.0), 0.35)
        assert out.regime == "all_unsafe"
        assert out.r == 1.0
        assert out.H == 1.0

    def test_boundary_premium_counts_as_all_unsafe(self, paper_params):
        out = period1_outcome(paper_params._replace(u=0.35), 0.35)
        assert out.regime == "all_unsafe"
        assert out.r == 1.0

    @pytest.mark.parametrize(
        "beta_hi, u, regime",
        [(0.5, 0.4, "all_unsafe"), (2.0, 0.7, "interior"), (2.0, 1.2, "all_unsafe")],
    )
    def test_regime_turns_at_the_top_of_the_beta_support(self, paper_params, beta_hi, u, regime):
        # at the paper's gap(0.5) = 0.56875, beta* = u/gap is 0.703, 1.231
        # and 2.110: the pairs are all unsafe once beta* reaches the top of
        # the support, which need not be 1
        params = paper_params._replace(dist_beta=uniform(0.0, beta_hi), u=u)
        out = period1_outcome(params, 0.56875)
        assert out.regime == regime
        assert (out.H == 1.0 and out.r == 1.0) == (regime == "all_unsafe")
        assert out.H == pytest.approx(min(out.beta_star / beta_hi, 1.0), abs=1e-15)


class TestOutcomeBounds:
    def test_high_risk_mass_bracketed_by_hot_fraction(self):
        # hot-hot pairs are always unsafe and only pairs with a hot member
        # can be, so H^2 <= r <= min(1, 2H)
        rng = np.random.default_rng(20240810)
        for _ in range(30):
            p = random_valid_params(rng)
            tau = float(rng.uniform(0.0, 1.0))
            _, _, gap, _ = continuation_values(p, stigma_level(p, tau))
            out = period1_outcome(p, gap)
            assert out.H * out.H - 1e-10 <= out.r <= min(1.0, 2.0 * out.H) + 1e-10


class TestDeterrence:
    def test_high_risk_mass_falls_with_perceived_risk(self):
        rng = np.random.default_rng(20240810)
        for i in range(40):
            p = random_valid_params(rng, piecewise_y=(i % 5 == 0))
            taus = np.sort(rng.uniform(0.0, 1.0, size=8))
            r_prev = 2.0
            for t in taus:
                _, _, gap, _ = continuation_values(p, stigma_level(p, float(t)))
                r = period1_outcome(p, gap).r
                assert r <= r_prev + 1e-10
                r_prev = r
