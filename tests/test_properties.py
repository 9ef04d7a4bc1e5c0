"""Property tests: generated distributions, parameters and config files.

Hypothesis runs derandomized and without an example database, so each run
draws the same examples; conftest.py moves its cache out of the working tree.
"""

import contextlib
import io
import math
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from stigmagame import (
    ModelParams,
    SweepRow,
    WelfareReport,
    decomposition,
    evaluate_point,
    optimize,
    piecewise_linear_cdf,
    sweep,
    uniform,
    welfare,
)
from stigmagame import cli
from stigmagame.coordination import high_risk_fraction
from stigmagame.distributions import cdf, density, partial_expectation
from stigmagame.montecarlo import Estimates, analytic_targets, simulate
from stigmagame.signaling import continuation_values, rejection_cutoff
from stigmagame.welfare import _pieces, assumption3_margin, tau_grid

import exact_chain
from conftest import (
    BETA_ABOVE_ONE_CFG,
    KINKED_CFG,
    PAPER_CFG,
    exact_r,
    partial_expectation_reference,
    point_reference,
    ppf,
    ppf_division_reference,
    ppf_reference,
    quadrature_r,
    random_piecewise_beta,
    unit_reference,
)

PROPERTY = settings(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

@st.composite
def piecewise_specs(draw, lo=0.0, hi=1.0, max_knots=9):
    """Piecewise-linear CDF on a sub-interval of [lo, hi]: 2..max_knots
    knots at least 1e-4 of the range apart, some segments without mass."""
    n = draw(st.integers(2, max_knots))
    steps = draw(st.lists(st.floats(1e-3, 1.0), min_size=n + 1, max_size=n + 1))
    mass = st.just(0.0) | st.floats(1e-3, 1.0)
    masses = draw(st.lists(mass, min_size=n - 1, max_size=n - 1))
    k = draw(st.integers(0, n - 2))
    masses[k] += 0.5
    scale = (hi - lo) / sum(steps)
    xs = [lo + scale * steps[0]]
    for step in steps[1:n]:
        xs.append(xs[-1] + scale * step)
    ps = [0.0]
    total = sum(masses)
    for m in masses[:-1]:
        ps.append(min(ps[-1] + m / total, 1.0))
    ps.append(1.0)
    return piecewise_linear_cdf(list(zip(xs, ps)))


@settings(PROPERTY, max_examples=60)
@given(spec=piecewise_specs(), beta_star=st.floats(0.0, 1.2))
def test_closed_form_r_matches_quadrature(spec, beta_star):
    r = high_risk_fraction(spec, beta_star)
    assert abs(r - quadrature_r(spec, beta_star)) <= 1e-12


@st.composite
def beta_specs(draw):
    """Present-bias CDFs from piecewise_specs() or random_piecewise_beta,
    stretched so that their supports end anywhere from 0.25 to 2.5."""
    stretch = draw(st.sampled_from([1.0, 2.5]) | st.floats(0.25, 2.5))
    if draw(st.booleans()):
        return draw(piecewise_specs(0.0, stretch))
    spec = random_piecewise_beta(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    return piecewise_linear_cdf([(x * stretch, p) for x, p in zip(spec.knots_x, spec.knots_p)])


@settings(PROPERTY, max_examples=200)
@given(spec=beta_specs(), share=st.floats(0.0, 1.2))
def test_r_matches_the_exact_rational_reference(spec, share):
    """r lies within 1e-12 of its exact rational value for beta* from 0 to
    1.2 times the top of the support, past both ends of the table."""
    beta_star = share * spec.support_hi
    assert abs(high_risk_fraction(spec, beta_star) - exact_r(spec, beta_star)) <= 1e-12


@st.composite
def sampling_specs(draw):
    """Piecewise-linear CDFs for the inverse-CDF exactness check: 2-2000
    knots, the first or the second-last at -0.0 or 0.0 or none at zero,
    equal or random segment masses, segments without mass (runs of equal p,
    also at either end), and optionally 31 knots whose p lie within 1e-9 of
    each other."""
    n = draw(st.integers(2, 40) | st.integers(41, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs = np.cumsum(rng.uniform(1e-3, 1.0, n)) + draw(st.sampled_from([-3.5, 1e6]))
    at = draw(st.sampled_from([None, 0, n - 2]))
    if at is not None:
        xs -= xs[at]
        xs[at] = draw(st.sampled_from([-0.0, 0.0]))
    if draw(st.booleans()):
        mass = np.ones(n - 1)
    else:
        mass = rng.uniform(0.0, 1.0, n - 1)
        mass[rng.random(n - 1) < draw(st.sampled_from([0.0, 0.3, 0.8]))] = 0.0
    if draw(st.booleans()):
        mass[[0, -1]] = 0.0
    mass[rng.integers(0, n - 1)] += 0.5
    ps = np.minimum(np.concatenate(([0.0], np.cumsum(mass) / mass.sum())), 1.0)
    if n >= 33 and draw(st.booleans()):
        i = int(rng.integers(1, n - 31))
        ps[i : i + 31] = ps[i] + np.linspace(0.0, 1e-9, 31)
        ps = np.minimum(np.maximum.accumulate(ps), 1.0)
    ps[-1] = 1.0
    return piecewise_linear_cdf(list(zip(xs.tolist(), ps.tolist())))


def sampling_points(spec, seed):
    """0, 2**-53, 1 - 2**-53 and 1.0, every knot p and its neighbouring
    floats, every guide-table bucket edge j/B and the float below it, and
    both halves' draws of 10**4 counters, clipped to [0, 1]."""
    ps = np.asarray(spec.knots_p)
    buckets = 1 << (4 * (len(ps) - 1) - 1).bit_length()
    edges = np.arange(buckets + 1) / buckets
    counters = np.arange(10_000, dtype=np.uint64)
    u = np.concatenate([
        [0.0, 2.0**-53, 1.0 - 2.0**-53, 1.0],
        ps,
        np.nextafter(ps, -1.0),
        np.nextafter(ps, 2.0),
        edges,
        np.nextafter(edges, -1.0),
        unit_reference(seed, counters).ravel(),
    ])
    return np.clip(u, 0.0, 1.0)


# two-knot specs take ppf_from_knots' one-segment branch, x0 + u * slope, which
# sampling_specs draws in about 1 example of 80
@settings(PROPERTY, max_examples=150)
@example(spec=uniform(0.0, 1.0), seed=1)
@example(spec=uniform(0.0, 2.0), seed=2)
@example(spec=piecewise_linear_cdf([(-0.0, 0.0), (1.5, 1.0)]), seed=3)
@example(spec=piecewise_linear_cdf([(0.25, -0.0), (1.5, 1.0)]), seed=4)
@example(spec=uniform(1e6, 1e6 + 3.5), seed=5)
@example(spec=uniform(0.0, 1e-150), seed=6)
@example(spec=uniform(-0.0, 1e150), seed=7)
@given(spec=sampling_specs(), seed=st.integers(0, 2**64 - 1))
def test_inverse_cdf_is_bit_identical_to_search(spec, seed):
    """The kernel's inverse CDF equals the search formula bit for bit at
    sampling_points."""
    u = sampling_points(spec, seed)
    got = ppf(spec, u).view(np.uint64)
    want = ppf_reference(spec, u).view(np.uint64)
    bad = np.flatnonzero(got != want)
    assert bad.size == 0, (u[bad[:5]].tolist(), got[bad[:5]], want[bad[:5]])


# a segment across 0: the product (u - p0) * slope runs up to the width 1.69,
# whose ulp is twice that of max(|x0|, |x1|) = 0.98, and the two forms differ
# there by 4 ulp of 0.98 (2 of 1.69)
@settings(PROPERTY, max_examples=150)
@example(spec=piecewise_linear_cdf([(-0.98, 0.0), (0.71, 0.65), (1.71, 1.0)]), seed=1)
@given(spec=sampling_specs(), seed=st.integers(0, 2**64 - 1))
def test_slope_form_is_within_two_ulp_of_division_form(spec, seed):
    """The inverse CDF's x0 + (u - p0) * slope, its slope rounded once per
    segment, lies within 2 ulp of max(|x0|, |x1|, x1 - x0) of the division
    form x0 + (u - p0) * (x1 - x0) / (p1 - p0), at sampling_points."""
    xs, ps = np.asarray(spec.knots_x), np.asarray(spec.knots_p)
    u = sampling_points(spec, seed)
    k = np.clip(np.searchsorted(ps, u, side="right") - 1, 0, len(ps) - 2)
    scale = np.maximum.reduce([np.abs(xs[k]), np.abs(xs[k + 1]), xs[k + 1] - xs[k]])
    gap = np.abs(ppf(spec, u) - ppf_division_reference(spec, u))
    bad = np.flatnonzero(gap > 2.0 * np.spacing(scale))
    assert bad.size == 0, (u[bad[:5]].tolist(), gap[bad[:5]], scale[bad[:5]])


# the largest overshoot seen in 3e7 random segments; u = 1.0 takes it past
# support_hi, 0.007984655906805842, to 0.007984655906805846
OVERSHOOT = piecewise_linear_cdf([
    (-1.0, 0.0), (-0.0036716622367961227, 0.42921268802839097), (0.007984655906805842, 1.0)
])


def test_the_largest_overshoot_is_two_ulp():
    xs = OVERSHOOT.knots_x
    x = ppf(OVERSHOOT, np.array([1.0]))[0]
    assert x - xs[-1] == 2.0 * np.spacing(xs[-1] - xs[-2]) > 0.0


@settings(PROPERTY, max_examples=150)
@example(spec=OVERSHOOT)
@example(spec=piecewise_linear_cdf([(-0.98, 0.0), (0.71, 0.65), (1.71, 1.0)]))
@given(spec=sampling_specs())
def test_inverse_cdf_overshoots_its_segment_by_at_most_two_ulp(spec):
    """At u = 1.0 and at the two floats below each knot p, where u - p0 is
    about the segment's whole mass, the inverse CDF lies at or above the
    segment's left end x0 and at most 2 ulp of max(|x0|, |x1|, x1 - x0)
    above its right end x1."""
    xs, ps = np.asarray(spec.knots_x), np.asarray(spec.knots_p)
    below = np.nextafter(ps, -1.0)
    u = np.clip(np.concatenate([[1.0], below, np.nextafter(below, -1.0)]), 0.0, 1.0)
    k = np.clip(np.searchsorted(ps, u, side="right") - 1, 0, len(ps) - 2)
    x0, x1 = xs[k], xs[k + 1]
    scale = np.maximum.reduce([np.abs(x0), np.abs(x1), x1 - x0])
    x = ppf(spec, u)
    bad = np.flatnonzero((x < x0) | (x - x1 > 2.0 * np.spacing(scale)))
    assert bad.size == 0, (u[bad[:5]].tolist(), x[bad[:5]], x1[bad[:5]])


@PROPERTY
@example(beta_star=5e-324, a=1.0, b=1.0)
@example(beta_star=3e-310, a=2e-310, b=1.0)
@example(beta_star=1e150, a=1e300, b=1e150)
@example(beta_star=2.0**1023, a=2.0**1023, b=1e308)
@example(beta_star=1.7976931348623157e308, a=1e308, b=1e308)
@example(beta_star=math.inf, a=1e308, b=1e308)
@given(
    beta_star=st.floats(5e-324, math.inf) | st.floats(1e150, math.inf),
    a=st.floats(0.0, 1.7976931348623157e308),
    b=st.floats(0.0, 1.7976931348623157e308),
)
def test_pair_sum_sorts_both_hot_and_both_cold_pairs(beta_star, a, b):
    """The kernel calls a pair unsafe iff b1 + b2 < 2 beta*, with no separate
    both-hot term: two draws below beta*, each at most prev(beta*) and below
    2**1023 as every knot is, add, rounded, to less than 2 beta* (exact, or
    inf from beta* = 2**1023 up); two draws at or above it add to at least
    2 beta*. Subnormal beta*, beta* >= 1e150 and 2 beta* = inf included."""
    top = min(math.nextafter(beta_star, 0.0), math.nextafter(2.0**1023, 0.0))
    hot_a, hot_b = min(a, top), min(b, top)
    assert hot_a < beta_star and hot_b < beta_star
    assert hot_a + hot_b < 2.0 * beta_star
    assert max(a, beta_star) + max(b, beta_star) >= 2.0 * beta_star


@settings(PROPERTY, max_examples=60)
@given(spec=sampling_specs(), seed=st.integers(0, 2**32 - 1))
def test_truncated_moment_is_bit_identical_to_the_segment_loop(spec, seed):
    """partial_expectation, read from the spec's table of running sums,
    equals the segment-by-segment loop bit for bit at both ends of the
    support, at up to 64 other knots and their neighbouring floats, at -inf
    and +inf, and at 200 points drawn across and past the support; spec.mean
    is the loop's value at support_hi."""
    rng = np.random.default_rng(seed)
    xs = np.asarray(spec.knots_x)
    lo, hi = xs[0], xs[-1]
    knots = np.concatenate([[lo, hi], rng.choice(xs, min(len(xs), 64), replace=False)])
    ts = np.concatenate([
        [-math.inf, math.inf],
        knots,
        np.nextafter(knots, -math.inf),
        np.nextafter(knots, math.inf),
        rng.uniform(lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo), 200),
    ]).tolist()
    got = [partial_expectation(spec, t).hex() for t in ts]
    want = [partial_expectation_reference(spec, t).hex() for t in ts]
    assert got == want
    assert spec.mean.hex() == partial_expectation_reference(spec, spec.support_hi).hex()


@PROPERTY
@given(lo=st.floats(-1e6, 1e6), width=st.floats(1e-6, 1e6), data=st.data())
def test_uniform_cdf_and_density_are_the_closed_forms(lo, width, data):
    """A uniform is the two-knot piecewise-linear CDF; the general knot
    formulas give its closed forms bit for bit on the closed support."""
    hi = lo + width
    x = data.draw(st.floats(lo, hi))
    spec = uniform(lo, hi)
    assert cdf(spec, x) == (x - lo) / (hi - lo)
    assert density(spec, x) == 1.0 / (hi - lo)


@st.composite
def valid_params(draw, wide_y=False, wide=False):
    """Parameters that satisfy assumptions 1 and 3 by construction, with a
    uniform or piecewise present-bias and valuation distribution; wide_y
    stretches the valuation support by up to 10^17, capped at 1e17. wide
    draws present-bias supports that start at 0 to 1 and are up to 2.5 wide,
    valuation supports that may start above 0, u up to 1.5 (into the
    all-unsafe regime), z up to 8 and M up to 5."""
    theta_L = draw(st.floats(0.05, 0.45))
    theta_H = draw(st.floats(theta_L + 0.1, 0.95))
    v = draw(st.floats(0.5, 2.0))
    lo, hi = theta_L * v, theta_H * v
    c = draw(st.floats(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo)))
    net = theta_H * v - c
    c_h = net / (theta_H - theta_L) * draw(st.floats(1.05, 3.0))
    y_hi = draw(st.floats(0.5, 3.0))
    if wide_y:
        y_hi = min(y_hi * 10.0 ** draw(st.integers(0, 17)), 1e17)
    b_lo, b_hi, y_lo = 0.0, 1.0, 0.0
    if wide:
        b_lo = draw(st.floats(0.0, 1.0))
        b_hi = b_lo + draw(st.floats(0.05, 2.5))
        y_lo = y_hi * draw(st.just(0.0) | st.floats(0.0, 0.9))
    return ModelParams(
        theta_L=theta_L,
        theta_H=theta_H,
        v=v,
        c=c,
        c_h=c_h,
        z=draw(st.floats(0.5, 8.0 if wide else 4.0)),
        u=draw(st.floats(0.0, 1.5 if wide else 0.5)),
        dist_beta=draw(st.just(uniform(b_lo, b_hi)) | piecewise_specs(b_lo, b_hi)),
        dist_y=draw(st.just(uniform(y_lo, y_hi)) | piecewise_specs(y_lo, y_hi)),
        tau_hat=0.0,
        M=draw(st.floats(0.0, 5.0 if wide else 2.0)),
    )


@settings(PROPERTY, max_examples=100)
@given(params=valid_params(), taus=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
def test_chain_is_monotone_in_tau(params, taus):
    lo, hi = (evaluate_point(params, t) for t in sorted(taus))
    assert hi.S >= lo.S - 1e-12
    assert hi.gap >= lo.gap - 1e-12
    for name in ("r", "R_H", "R"):
        assert getattr(hi, name) <= getattr(lo, name) + 1e-12, name


@settings(PROPERTY, max_examples=100)
@given(params=valid_params(wide_y=True), taus=st.lists(st.floats(0.0, 1.0), max_size=5))
def test_gap_never_falls_below_the_assumption3_margin(params, taus):
    margin = assumption3_margin(params)
    assert continuation_values(params, 0.0)[2] == margin
    assert all(evaluate_point(params, t).gap >= margin for t in [0.0, 1.0] + taus)
    rows = sweep(params, tau_grid(5))
    assert all(math.isfinite(x) for row in rows for x in row)


@settings(PROPERTY, max_examples=60)
@given(
    params=st.one_of(valid_params(), valid_params(wide=True), valid_params(wide_y=True)),
    convention=st.sampled_from(["corrected", "paper_literal"]),
)
def test_optimize_beats_every_grid_point_and_piece_end(params, convention):
    """At tol 1e-9 no point of a 2001-point grid and no end of a smooth
    piece of W has a welfare above W_star by more than 1e-12 * max(1, |W_star|)."""
    res = optimize(params, tol=1e-9, convention=convention)
    bound = res.W_star + 1e-12 * max(1.0, abs(res.W_star))
    for tau in tau_grid(2001) + _pieces(params):
        assert welfare(params, tau, convention).W <= bound, tau


@settings(PROPERTY, max_examples=100)
@given(
    params=st.one_of(valid_params(wide=True), valid_params(wide_y=True)),
    tau=st.floats(0.0, 1.0, exclude_min=True),
)
def test_decomposition_is_exact(params, tau):
    """W_A = M + EV_L - u - r*(gap - u), so deterrence prices each deterred
    pair at gap(0) - u, and the three terms add up to W(tau) - W(0) but for
    rounding."""
    dec = decomposition(params, tau)
    row0, row1 = evaluate_point(params, 0.0), evaluate_point(params, tau)
    assert dec.deterrence_gain == (row0.r - row1.r) * (row0.gap - params.u)
    assert abs(dec.residual) <= 1e-12 * max(1.0, abs(row1.W))


def _near(got, exact):
    return abs(got - exact) <= 1e-12 * max(1, abs(exact))


@settings(PROPERTY, max_examples=100)
@given(
    params=st.one_of(valid_params(wide=True), valid_params(wide_y=True)),
    tau=st.floats(0.0, 1.0),
    convention=st.sampled_from(["corrected", "paper_literal"]),
)
def test_chain_matches_the_exact_rational_chain(params, tau, convention):
    """Every sweep-row field lies within 1e-12 * max(1, |exact|) of the chain
    evaluated in exact rationals, and so do the decomposition's deterrence,
    suppression and b_loss = W_B(tau) - W_B(0) terms."""
    row = evaluate_point(params, tau, convention)
    exact = exact_chain.chain(params, tau, convention)
    for name, got in row._asdict().items():
        assert _near(got, exact[name]), (name, got, exact[name])
    if tau == 0.0:
        return
    dec = decomposition(params, tau)
    e0 = exact_chain.chain(params, 0.0, "corrected")
    e1 = exact if convention == "corrected" else exact_chain.chain(params, tau, "corrected")
    deterrence = (e0["r"] - e1["r"]) * (e0["gap"] - Fraction(params.u))
    assert _near(dec.deterrence_gain, deterrence), (dec.deterrence_gain, deterrence)
    suppression = e1["r"] * (e0["gap"] - e1["gap"])
    assert _near(dec.suppression_loss, suppression), (dec.suppression_loss, suppression)
    b_loss = e1["W_B"] - e0["W_B"]
    assert _near(dec.b_loss, b_loss), (dec.b_loss, b_loss)


@settings(PROPERTY, max_examples=100)
@given(
    params=valid_params(wide=True) | valid_params(wide_y=True),
    convention=st.sampled_from(["corrected", "paper_literal"]),
    taus=st.lists(st.floats(0.0, 1.0), max_size=8),
)
@example(cli.load_config(BETA_ABOVE_ONE_CFG).params, "corrected", [0.5])
@example(cli.load_config(BETA_ABOVE_ONE_CFG).params, "paper_literal", [0.5])
@example(cli.load_config(KINKED_CFG).params, "corrected", [0.94605])
@example(cli.load_config(KINKED_CFG).params, "paper_literal", [0.94605])
def test_point_is_bit_identical_to_the_link_by_link_chain(params, convention, taus):
    """At 0, 1, every end of a smooth piece of W and the drawn taus, every
    SweepRow and WelfareReport field equals conftest.point_reference's by
    float.hex, and so does the decomposition's b_loss = -R * E[y; y < cutoff].
    tau = 0 puts the cutoff at 0, so S = 0 and y* = +inf."""
    for tau in [0.0, 1.0, *_pieces(params), *taus]:
        row, report = point_reference(params, tau, convention)
        assert tau > 0.0 or row.S == 0.0
        for name, got, want in zip(
            SweepRow._fields + WelfareReport._fields,
            evaluate_point(params, tau, convention) + welfare(params, tau, convention),
            row + report,
        ):
            assert got.hex() == want.hex(), (tau, name, got, want)
        if tau > 0.0:
            pe = partial_expectation_reference(params.dist_y, rejection_cutoff(params, tau))
            want = -row.R * pe  # R does not depend on the convention
            assert decomposition(params, tau).b_loss.hex() == want.hex(), tau


@settings(PROPERTY, max_examples=100)
@given(
    params=valid_params(wide=True),
    tau=st.floats(0.0, 1.0),
    convention=st.sampled_from(["corrected", "paper_literal"]),
    seed=st.integers(0, 2**64 - 1),
)
def test_simulation_agrees_with_the_chain(params, tau, convention, seed):
    """Each simulated estimate lies within 5.5 standard errors of its
    analytic target (a Bonferroni-sized bound over 100 examples x 5
    estimates). A rate's standard error is at least the binomial one at the
    target over its sampling unit, so an estimate that happens to sit at 0
    or 1 is not exact by fiat. Every standard error is at least 4 ulps of
    the target, the rounding floor: where every pair has the same welfare,
    the sample spread of W is rounding noise (3.5e-18 on a target near 3),
    and the estimate may miss the target by an ulp or two."""
    n = 2**14
    res = simulate(params, tau, n, seed, convention)
    targets = analytic_targets(params, tau, convention)
    units = {"r": n, "R": 2 * n, "S": 2 * n, "R_H": 2 * n * res.hat.r}
    for name, hat, se, target in zip(Estimates._fields, res.hat, res.stderr, targets):
        if name == "R_H" and math.isnan(hat):
            continue  # no unsafe pair, so no high-risk player to test
        if name in units:
            se = max(se, math.sqrt(max(target * (1.0 - target), 0.0) / units[name]))
        se = max(se, 4.0 * math.ulp(target))
        assert abs(hat - target) / se < 5.5, (name, hat, target, se)


def _config_lines():
    lines = {}
    for line in PAPER_CFG.read_text(encoding="utf-8").splitlines():
        text = line.split("#", 1)[0]
        if "=" in text:
            key, value = (part.strip() for part in text.split("=", 1))
            lines[key] = value
    return lines


PAPER_LINES = _config_lines()
COMMANDS = ("check", "evaluate", "sweep", "optimize", "simulate", "figures")
SCALARS = ("theta_L", "theta_H", "v", "c", "c_h", "z", "u", "M", "tau_hat", "tau_true")
REMOVE = object()

plausible = st.floats(0.0, 3.0)
number = plausible | st.floats(allow_nan=True, allow_infinity=True)
junk = st.sampled_from(["", "fast", "1e999", "-inf", "nan", "0x10", "1,2"])
knot_rows = st.lists(
    st.tuples(number, number).map(lambda xp: f"{xp[0]!r},{xp[1]!r}") | junk, max_size=6
)
dist_text = st.one_of(
    piecewise_specs(0.0, 2.0).map(
        lambda d: ["x,p"] + [f"{x!r},{p!r}" for x, p in zip(d.knots_x, d.knots_p)]
    ),
    st.tuples(plausible, plausible).map(lambda ab: f"uniform({min(ab)!r},{max(ab)!r})"),
    st.tuples(number, number).map(lambda ab: f"uniform({ab[0]!r},{ab[1]!r})"),
    knot_rows,
    st.sampled_from(["uniform(0)", "normal(0,1)", "piecewise:nope.csv", "uniform(1,1)"]),
)


def weighted(*choices):
    """Draw from one of the (weight, strategy) choices, picked in proportion
    to its weight. st.one_of cannot weight: it drops a repeated strategy."""
    pool = [strategy for weight, strategy in choices for _ in range(weight)]
    return st.sampled_from(pool).flatmap(lambda strategy: strategy)


def scalar_text(key):
    """The paper value scaled by 0.5-1.5 (mostly still valid), any float, junk
    or a missing key."""
    base = float(PAPER_LINES.get(key, "1" if key == "M" else "0"))
    near = st.floats(0.5, 1.5).map(lambda f: repr(base * f))
    # weighted towards configs that reach the chain
    return weighted((3, near), (1, number.map(repr)), (1, junk), (1, st.just(REMOVE)))


overrides = st.lists(
    st.sampled_from(SCALARS).flatmap(lambda k: st.tuples(st.just(k), scalar_text(k))),
    max_size=2,
)
# a flag outside its range exits in the parser, before the config is read, so
# each flag is out of range in only one example in 20 (--tau in about one in
# 40), and most examples go on to read the fuzzed config
tau_flag = weighted(
    (10, st.none()), (9, st.floats(0.0, 1.0)), (1, st.floats(-0.5, 1.5))
)
# each range-checked run setting: values inside its range, values outside
FLAG_RANGES = {
    "--grid": ([3, 5], [2, cli.MAX_GRID + 1]),
    "--pairs": ([1, 2000], [0, -5]),
    "--tol": ([1e-3, 1e-6], [0.0, -1.0, math.nan, math.inf]),
    "--seed": ([0, 2**64 - 1], [-1, 2**64]),
}
flag_values = st.fixed_dictionaries({
    flag: weighted((19, st.sampled_from(inside)), (1, st.sampled_from(outside)))
    for flag, (inside, outside) in FLAG_RANGES.items()
})
# the run settings each command takes; any other flag would exit 2 unread
COMMAND_FLAGS = {
    "check": ("--tau", "--strict"),
    "evaluate": ("--tau",),
    "sweep": ("--grid",),
    "optimize": ("--tol",),
    "simulate": ("--tau", "--pairs", "--seed"),
    "figures": ("--tau", "--grid", "--svg"),
}


@settings(PROPERTY, max_examples=250)
@given(
    command=st.sampled_from(COMMANDS),
    edits=overrides,
    dists=st.dictionaries(st.sampled_from(["dist_beta", "dist_y"]), dist_text),
    convention=st.sampled_from(["corrected", "paper_literal"] * 2 + ["paper"]),
    extra=st.sampled_from([""] * 6 + ["gamma = 1", "theta_L = 0.2", "no equals sign"]),
    tau=tau_flag,
    switch=st.booleans(),
    flags=flag_values,
)
def test_config_fuzz_exits_with_a_documented_code(
    command, edits, dists, convention, extra, tau, switch, flags
):
    """Every generated config ends within 1 s in exit 0, 2 or 3, and a
    successful evaluate prints only finite numbers; a flag outside its
    range exits 2 and names the (first such) flag. Each command gets only
    the flags it takes, `switch` turning on its --strict or --svg."""
    lines = dict(PAPER_LINES, convention=convention)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for key, value in edits + list(dists.items()):
            if value is REMOVE:
                lines.pop(key, None)
            elif isinstance(value, list):  # rows of a knot file
                (tmp / f"{key}.csv").write_text("\n".join(value) + "\n")
                lines[key] = f"piecewise:{key}.csv"
            else:
                lines[key] = value
        text = "\n".join(f"{k} = {v}" for k, v in lines.items()) + f"\n{extra}\n"
        (tmp / "fuzz.cfg").write_text(text)
        argv = [command, "--config", str(tmp / "fuzz.cfg"), "--out", str(tmp)]
        if tau is not None:
            flags = {**flags, "--tau": tau}
        takes = COMMAND_FLAGS[command]
        flags = {flag: value for flag, value in flags.items() if flag in takes}
        argv += [f"{flag}={value!r}" for flag, value in flags.items()]
        argv += [flag for flag in ("--strict", "--svg") if switch and flag in takes]
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        elapsed = time.perf_counter() - t0
    assert rc in (0, 2, 3), (rc, err.getvalue())
    assert elapsed < 1.0
    inside = {flag: values for flag, (values, _) in FLAG_RANGES.items()}
    outside = [
        flag for flag, value in flags.items()
        if not (0.0 <= value <= 1.0 if flag == "--tau" else value in inside[flag])
    ]
    if outside:
        assert rc == 2
        assert f"error: argument {outside[0]}: {outside[0]} " in err.getvalue()
    if command == "evaluate" and rc == 0:
        printed = out.getvalue()
        assert "nan" not in printed and "inf" not in printed, printed
        row = printed.splitlines()[-1].split(",")
        assert all(math.isfinite(float(x)) for x in row)
