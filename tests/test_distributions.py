import math

import numpy as np
import pytest

from stigmagame.distributions import (
    QuadratureError,
    cdf,
    density,
    integrate,
    partial_expectation,
    piecewise_linear_cdf,
    uniform,
)

from conftest import ppf, ppf_reference, sample, unit_reference

PW = piecewise_linear_cdf([(0.0, 0.0), (1.0, 0.5), (2.0, 1.0)])


def random_spec(rng, nonneg=False):
    if rng.random() < 0.5:
        lo = rng.uniform(0.0, 1.0) if nonneg else rng.uniform(-2.0, 1.0)
        return uniform(lo, lo + rng.uniform(0.1, 3.0))
    xs = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.0, size=4))])
    ws = rng.uniform(0.05, 1.0, size=4)
    ps = np.concatenate([[0.0], np.cumsum(ws / ws.sum())])
    ps[-1] = 1.0
    return piecewise_linear_cdf(list(zip(xs, ps)))


class TestConstruction:
    def test_uniform_requires_lo_below_hi(self):
        with pytest.raises(ValueError):
            uniform(1.0, 1.0)
        with pytest.raises(ValueError):
            uniform(2.0, 0.0)

    @pytest.mark.parametrize(
        "knots",
        [
            [(0.0, 0.0)],
            [(0.0, 0.0), (0.0, 1.0)],
            [(0.0, 0.0), (1.0, 0.8), (2.0, 0.5)],
            [(0.0, 0.1), (1.0, 1.0)],
            [(0.0, 0.0), (1.0, 0.9)],
            [(1.0, 0.0), (0.5, 1.0)],
            [(0.0, 0.0), (0.5, float("nan")), (1.0, 1.0)],
            [(0.0, float("nan")), (1.0, 1.0)],
        ],
    )
    def test_bad_knots_rejected(self, knots):
        with pytest.raises(ValueError):
            piecewise_linear_cdf(knots)

    def test_knot_squares_must_be_finite(self):
        # partial_expectation squares the knots; 1e160**2 overflows to inf
        for lo, hi in ((0.0, 1e160), (-1e160, 2.0), (0.0, 1.35e154)):
            with pytest.raises(ValueError, match="finite squares"):
                uniform(lo, hi)
        with pytest.raises(ValueError, match="finite squares"):
            piecewise_linear_cdf([(0.0, 0.0), (1.0, 0.5), (1e160, 1.0)])
        spec = uniform(-1.34e154, 1.34e154)
        assert math.isfinite(partial_expectation(spec, spec.support_hi))


class TestCdf:
    def test_uniform_linear(self):
        assert cdf(uniform(0.0, 2.0), 0.5) == 0.25

    def test_below_support(self):
        assert cdf(uniform(0.0, 1.0), -1.0) == 0.0

    def test_piecewise_interpolation(self):
        assert cdf(PW, 1.5) == 0.75

    def test_half_open_convention(self):
        spec = uniform(0.0, 2.0)
        assert cdf(spec, 0.0) == 0.0
        assert cdf(spec, 2.0) == 1.0
        assert cdf(spec, math.inf) == 1.0

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(20240810)
        for _ in range(50):
            spec = random_spec(rng)
            xs = np.sort(rng.uniform(spec.support_lo - 1.0, spec.support_hi + 1.0, 40))
            vals = [cdf(spec, float(x)) for x in xs]
            assert all(0.0 <= v <= 1.0 for v in vals)
            assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestMoments:
    def test_uniform_means(self):
        assert uniform(0.0, 2.0).mean == 1.0
        assert uniform(0.0, 1.0).mean == 0.5

    def test_piecewise_matching_uniform(self):
        assert piecewise_linear_cdf([(0.0, 0.0), (2.0, 1.0)]).mean == 1.0

    def test_partial_expectation_uniform(self):
        spec = uniform(0.0, 2.0)
        assert partial_expectation(spec, 0.8) == pytest.approx(0.16, abs=1e-15)
        assert partial_expectation(spec, 2.0) == 1.0
        assert partial_expectation(spec, 0.0) == 0.0

    def test_partial_expectation_saturates_at_mean(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            spec = random_spec(rng)
            assert partial_expectation(spec, spec.support_hi) == spec.mean
            assert partial_expectation(spec, math.inf) == spec.mean

    def test_partial_expectation_monotone_in_t(self):
        # monotone only on non-negative supports, which is all the model uses
        rng = np.random.default_rng(11)
        for _ in range(20):
            spec = random_spec(rng, nonneg=True)
            ts = np.sort(rng.uniform(spec.support_lo, spec.support_hi, 20))
            vals = [partial_expectation(spec, float(t)) for t in ts]
            assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_closed_form_agrees_with_quadrature(self):
        rng = np.random.default_rng(20240810)
        for _ in range(20):
            spec = random_spec(rng)
            t = rng.uniform(spec.support_lo, spec.support_hi)
            quad = integrate(
                lambda x: x * density(spec, x), spec.support_lo, float(t), 1e-10
            )
            assert partial_expectation(spec, float(t)) == pytest.approx(quad, abs=1e-8)


class TestSampling:
    def test_support_membership(self):
        rng = np.random.default_rng(0)
        x = sample(uniform(0.0, 1.0), rng)
        assert 0.0 <= x < 1.0

    def test_ks_statistic_against_analytic_cdf(self):
        # DKW band at confidence 0.999 for n = 1e5 is ~0.0062 < 0.01
        n = 100_000
        rng = np.random.default_rng(20240810)
        spec = uniform(0.0, 2.0)
        draws = np.sort(sample(spec, rng, n))
        grid = np.arange(1, n + 1) / n
        f = draws / 2.0
        ks = max(np.max(grid - f), np.max(f - (grid - 1.0 / n)))
        eps = math.sqrt(math.log(2.0 / 0.001) / (2.0 * n))
        assert ks < 0.01
        assert ks <= eps

    def test_dkw_band_piecewise(self):
        n = 100_000
        rng = np.random.default_rng(17)
        draws = np.sort(sample(PW, rng, n))
        grid = np.arange(1, n + 1) / n
        f = np.array([cdf(PW, float(x)) for x in draws[::50]])
        sub = grid[::50]
        ks = max(np.max(np.abs(sub - f)), np.max(np.abs(f - sub + 1.0 / n)))
        eps = math.sqrt(math.log(2.0 / 0.001) / (2.0 * n))
        assert ks <= eps + 50.0 / n  # subsampling slack of one stride

    def test_piecewise_knot_probabilities(self):
        n = 100_000
        rng = np.random.default_rng(3)
        draws = sample(PW, rng, n)
        assert np.all(draws >= 0.0) and np.all(draws < 2.0)
        for x_knot, p_knot in [(1.0, 0.5), (0.5, 0.25), (1.5, 0.75)]:
            p_hat = float(np.mean(draws < x_knot))
            se = math.sqrt(p_knot * (1.0 - p_knot) / n)
            assert abs(p_hat - p_knot) <= 3.0 * se

    def test_ppf_inverts_cdf(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            spec = random_spec(rng)
            for q in rng.uniform(0.01, 0.99, 10):
                assert cdf(spec, ppf(spec, float(q))) == pytest.approx(q, abs=1e-12)

    @pytest.mark.parametrize(
        "spec",
        [
            uniform(0.0, 1.0),
            uniform(0.0, 2.0),
            uniform(-1.7, 0.3),
            uniform(0.1, 0.1 + 1e-9),
            piecewise_linear_cdf([(0.25, 0.0), (3.5, 1.0)]),
            piecewise_linear_cdf([(-2.0, 0.0), (1e6, 1.0)]),
        ],
    )
    def test_two_knot_shortcut_is_bit_identical(self, spec):
        counters = np.arange(100_000, dtype=np.uint64)
        u = np.concatenate(
            [[0.0, 1.0 - 2.0**-53], unit_reference(17, counters).ravel()]
        )
        assert len(spec.knots_x) == 2
        got = ppf(spec, u)
        assert np.array_equal(got.view(np.uint64), ppf_reference(spec, u).view(np.uint64))


class TestIntegrate:
    def test_constant(self):
        assert integrate(lambda x: 1.0, 0.0, 1.0, 1e-10) == pytest.approx(1.0, abs=1e-12)

    def test_linear(self):
        assert integrate(lambda x: x, 0.0, 2.0, 1e-10) == pytest.approx(2.0, abs=1e-12)

    def test_closed_form_antiderivative(self):
        val = integrate(lambda x: 0.25 - 0.5 * x, 0.0, 0.5, 1e-10)
        assert val == pytest.approx(0.0625, abs=1e-12)

    def test_empty_interval(self):
        assert integrate(lambda x: 42.0, 1.0, 1.0, 1e-10) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            integrate(lambda x: 1.0, 1.0, 0.0, 1e-10)
        with pytest.raises(ValueError):
            integrate(lambda x: 1.0, 0.0, 1.0, 0.0)

    def test_nonconvergence_carries_estimate(self):
        step = lambda x: 1.0 if x < 1.0 / 3.0 else 0.0
        with pytest.raises(QuadratureError) as info:
            integrate(step, 0.0, 1.0, 1e-16, max_depth=4)
        err = info.value
        assert math.isfinite(err.estimate)
        assert err.error_bound > 0.0
        assert err.estimate == pytest.approx(1.0 / 3.0, abs=0.05)

    def test_kinked_integrand(self):
        kink = lambda x: max(0.25 - 0.5 * x, 0.0)
        val = integrate(kink, 0.0, 2.0, 1e-10)
        assert val == pytest.approx(0.0625, abs=1e-9)
