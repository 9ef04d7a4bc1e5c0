"""Utilitarian welfare evaluation, the stigma-policy analysis and the
assumption report.

Welfare is experience utility: the present-bias weight is set to 1 when
summing payoffs, so choosing unsafe out of impatience registers as a loss.
The chain for a policy value tau_hat is

    tau_hat -> S -> (EV_L, EV_H, gap) -> (beta*, H, r) -> (R_H, R) -> W.

It is evaluated by _point with one lookup on the valuation knots per
threshold: the one at the cutoff tau_hat*theta_H*z gives S and
E[y; y <= cutoff], the one at y* gives R_H and the testing bonus. A point
builds only its SweepRow; welfare() wraps the group terms in a WelfareReport.

Two bookkeeping conventions exist for population B's welfare. Under
"corrected" (the default) a discriminating B player forgoes her valuation
exactly when matched with a tested partner, so
W_B = E[y] - R * E[y; y < cutoff]. Under "paper_literal" the
discriminators' term enters with the opposite weighting,
W_B = R * E[y; y < cutoff] + E[y; y >= cutoff], which prices the rejected
meeting instead of the accepted ones. Only the corrected convention makes
full stigma beat zero stigma on the bundled parameter set; the literal one
is kept selectable for comparison.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from operator import itemgetter
from typing import NamedTuple

from .coordination import period1_outcome
from .signaling import (
    AssumptionViolation,
    ModelParams,
    _check_tau,
    continuation_values,
    rejection_cutoff,
    stigma_level,
)
from .distributions import cdf, cdf_and_moment
# unused here; perfbench/tracer.py patches this name, so it must still resolve
from .distributions import partial_expectation  # noqa: F401

__all__ = [
    "CONVENTIONS",
    "AssumptionReport",
    "WelfareReport",
    "PolicyDecomposition",
    "PresentBiasLoss",
    "SweepRow",
    "OptimizeResult",
    "assumption3_margin",
    "check_assumptions",
    "welfare",
    "evaluate_point",
    "first_best_benchmark",
    "present_bias_loss",
    "decomposition",
    "sweep",
    "tau_grid",
    "optimize",
]

CONVENTIONS = ("corrected", "paper_literal")


class WelfareReport(NamedTuple):
    """W = W_A + W_B; W_A sums the high- and low-risk welfare, W_B the
    discriminators' and the accepters' terms."""

    W_A: float
    W_B: float
    W: float
    welfare_high: float
    welfare_low: float
    welfare_B_discriminators: float
    welfare_B_accepters: float


class PolicyDecomposition(NamedTuple):
    """Three-term welfare decomposition of moving tau_hat off zero.

    Since W_A = M + EV_L - u - r*(gap - u) and EV_L does not depend on tau_hat,
    the three terms sum to exact_delta = W(tau_hat) - W(0) under either
    convention, and residual (exact_delta minus their sum) is rounding only.
    deterrence_gain: (r0 - r1)*(gap0 - u), the switchers' gain, negative when
    gap0 < u; suppression_loss: stayers' drop in EV_H, r1*(gap0 - gap1);
    b_loss: discriminators' forgone valuations, -R1*E[y; y < cutoff] under
    corrected and -(1 - R1)*E[y; y < cutoff] under paper_literal.
    """

    deterrence_gain: float
    suppression_loss: float
    b_loss: float
    exact_delta: float
    residual: float


class PresentBiasLoss(NamedTuple):
    """Welfare cost of present bias at zero stigma.

    continuation_loss is r(0)*gap(0), the aggregate continuation-value loss
    of those coordinating on unsafe. total_shortfall is the full distance
    to the error-free benchmark, r(0)*(gap(0) - u), which also credits the
    period-1 premium those pairs enjoy.
    """

    continuation_loss: float
    total_shortfall: float


class SweepRow(NamedTuple):
    """One point of the policy sweep; the field order is the sweep CSV header."""

    tau_hat: float
    S: float
    gap: float
    H: float
    r: float
    R_H: float
    R: float
    W_A: float
    W_B: float
    W: float


class OptimizeResult(NamedTuple):
    """tau_star, W_star and every evaluation as a (stage, tau_hat, W) row:
    "end" at each end of a smooth piece of W and "refine" inside one, both
    with M = 0, then the "final" row with the true M."""

    tau_star: float
    W_star: float
    trace: tuple[tuple[str, float, float], ...]


class AssumptionReport(NamedTuple):
    """Numeric margins for the three maintained assumptions.

    Assumption 1 always holds here, since ModelParams rejects a violation.

    a2 is enforced by construction in the interaction best response (an
    untested partner is always accepted), so it is reported as the mass of
    B players whose valuation falls below the population-average risk
    cutoff instead of as a hard failure.
    """

    a1_margin: float
    a2_violating_mass: float
    a3_holds: bool
    a3_margin: float
    h_bar: float


def assumption3_margin(params: ModelParams) -> float:
    """c_h*(theta_H-theta_L) - (theta_H*v-c): the continuation gap at S = 0.

    Assumption 3 requires it to be positive.
    """
    return params.c_h * (params.theta_H - params.theta_L) - (
        params.theta_H * params.v - params.c
    )


def _require_preconditions(params: ModelParams, convention: str) -> None:
    """Reject what no point of the welfare chain can evaluate.

    Public entry points call this once, before any chain evaluation.
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}, got {convention!r}")
    gap0 = assumption3_margin(params)
    if gap0 <= 0.0:
        raise AssumptionViolation(
            "assumption 3",
            f"c_h*(theta_H-theta_L) - (theta_H*v-c) = {gap0!r} must be positive",
        )


def check_assumptions(params: ModelParams, tau_hat: float) -> AssumptionReport:
    """Report the three maintained assumptions with their numeric margins.

    Purely diagnostic: a failing assumption raises nothing here (strict
    enforcement is a CLI concern). The a2 mass is evaluated at the
    equilibrium infection rate at the policy value tau_hat, which requires
    running the period-1 chain; when the continuation gap is non-positive
    every pair coordinates on unsafe, so r = 1 there.
    """
    a1_margin = min(
        params.c - params.theta_L * params.v,
        params.theta_H * params.v - params.c,
    )
    a3_margin = assumption3_margin(params)
    _check_tau(tau_hat)
    gap = continuation_values(params, stigma_level(params, tau_hat))[2]
    r = 1.0 if gap <= 0.0 else period1_outcome(params, gap).r
    h_bar = r * params.theta_H + (1.0 - r) * params.theta_L
    a2_mass = cdf(params.dist_y, tau_hat * h_bar * params.z)
    return AssumptionReport(
        a1_margin=a1_margin,
        a2_violating_mass=a2_mass,
        a3_holds=a3_margin > 0.0,
        a3_margin=a3_margin,
        h_bar=h_bar,
    )


def welfare(
    params: ModelParams, tau_hat: float, convention: str = "corrected"
) -> WelfareReport:
    """Experience-utility welfare of the full population at the policy value
    tau_hat.

    Population A's welfare weights the per-type totals by the equilibrium
    composition; population B's follows the selected convention.
    """
    _require_preconditions(params, convention)
    row, terms, _ = _point(params, tau_hat, convention)
    return WelfareReport(row.W_A, row.W_B, row.W, *terms)


def first_best_benchmark(params: ModelParams) -> WelfareReport:
    """Welfare with neither error: no present bias and no perceived risk.

    Every pair plays safe, testing carries no signal, and every interaction
    is accepted, so W_A = M - u + EV_L and W_B = E[y].
    """
    mu = params.dist_y.mean
    w_a = params.M - params.u + mu - params.theta_L * params.c_h
    return WelfareReport(
        W_A=w_a,
        W_B=mu,
        W=w_a + mu,
        welfare_high=0.0,
        welfare_low=w_a,
        welfare_B_discriminators=0.0,
        welfare_B_accepters=mu,
    )


def present_bias_loss(params: ModelParams) -> PresentBiasLoss:
    """Welfare lost to present bias when stigma is at its natural level 0.

    In the all-unsafe regime (beta* = u/gap at or above the top of the
    present-bias support) the composition term uses r = 1, so the loss
    degrades continuously to gap(0) as the gap closes.
    """
    _require_preconditions(params, "corrected")
    row = _point(params, 0.0, "corrected")[0]
    return PresentBiasLoss(
        continuation_loss=row.r * row.gap,
        total_shortfall=row.r * (row.gap - params.u),
    )


def decomposition(
    params: ModelParams, tau_hat: float, convention: str = "corrected"
) -> PolicyDecomposition:
    """Exact three-term account of W(tau_hat) - W(0) under the convention."""
    if not 0.0 < tau_hat <= 1.0:
        raise ValueError(f"tau_hat must lie in (0, 1], got {tau_hat!r}")
    _require_preconditions(params, convention)
    row0 = _point(params, 0.0, convention)[0]
    row1, _, pe1 = _point(params, tau_hat, convention)
    # EV_L does not depend on S, so EV_H(tau_hat) - EV_H(0) is gap(0) - gap(tau_hat)
    deterrence = (row0.r - row1.r) * (row0.gap - params.u)
    suppression = row1.r * (row0.gap - row1.gap)
    # W_B = E[y] - w*E[y; y < cutoff], with w = R (corrected) or 1 - R
    # (paper_literal); the cutoff is 0 at tau_hat = 0, so W_B(0) = E[y]
    b_loss = -(row1.R if convention == "corrected" else 1.0 - row1.R) * pe1
    exact = row1.W - row0.W
    return PolicyDecomposition(
        deterrence_gain=deterrence,
        suppression_loss=suppression,
        b_loss=b_loss,
        exact_delta=exact,
        residual=exact - (deterrence + suppression + b_loss),
    )


def _point(
    p: ModelParams, tau_hat: float, convention: str
) -> tuple[SweepRow, tuple[float, float, float, float], float]:
    """One evaluation of the chain tau_hat -> S -> gap -> beta* -> r -> R -> W:
    the sweep row, WelfareReport's four group terms (welfare_high to
    welfare_B_accepters) and the discriminators' moment E[y; y <= cutoff].
    The caller has checked the preconditions.
    """
    _check_tau(tau_hat)
    s, pe = cdf_and_moment(p.dist_y, rejection_cutoff(p, tau_hat))
    ev_l, ev_h, gap, r_h = continuation_values(p, s)
    p1 = period1_outcome(p, gap)
    r = p1.r
    r_pop = r * r_h
    w_high = r * (p.M + ev_h)
    w_low = (1.0 - r) * (p.M - p.u + ev_l)
    w_disc = ((1.0 - r_pop) if convention == "corrected" else r_pop) * pe
    w_acc = p.dist_y.mean - pe
    w_a = w_high + w_low
    w_b = w_disc + w_acc
    w = w_a + w_b
    row = SweepRow(tau_hat, s, gap, p1.H, r, r_h, r_pop, w_a, w_b, w)
    return row, (w_high, w_low, w_disc, w_acc), pe


def evaluate_point(
    params: ModelParams, tau_hat: float, convention: str = "corrected"
) -> SweepRow:
    """One row of the sweep schema; the chain is evaluated once."""
    _require_preconditions(params, convention)
    return _point(params, tau_hat, convention)[0]


def tau_grid(n: int) -> list[float]:
    """n >= 2 evenly spaced policy values from 0 to 1 inclusive."""
    if n < 2:
        raise ValueError(f"a tau_hat grid needs at least 2 points, got {n!r}")
    return [i / (n - 1) for i in range(n)]


def sweep(
    params: ModelParams, grid, convention: str = "corrected"
) -> list[SweepRow]:
    """Evaluate the full chain on a sorted tau_hat grid, one row per point;
    past the preconditions every point in [0, 1] evaluates, since the gap
    never falls below the assumption-3 margin."""
    _require_preconditions(params, convention)
    grid = [float(g) for g in grid]
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be sorted ascending")
    return [_point(params, g, convention)[0] for g in grid]


def _pieces(params: ModelParams) -> list[float]:
    """0, 1 and each tau_hat in (0, 1) where W's slope can jump, sorted: where
    the cutoff tau_hat*theta_H*z or y* = (theta_H*v - c)/S crosses a y knot.
    The beta side adds none, since r = G(2*beta*) with G continuously
    differentiable."""
    a = params.theta_H * params.z
    xs, ps = params.dist_y.knots_x, params.dist_y.knots_p
    net = params.theta_H * params.v - params.c
    cutoffs = list(xs)
    for s in (net / x for x in xs if x >= net):  # y* = x where S = G_y(cutoff) = net/x
        k = bisect_left(ps, s)  # 0 < s <= 1, so k >= 1 and ps[k] > ps[k - 1]
        cutoffs.append(xs[k - 1] + (s - ps[k - 1]) * (xs[k] - xs[k - 1]) / (ps[k] - ps[k - 1]))
    return sorted({0.0, 1.0, *(c / a for c in cutoffs if 0.0 < c < a)})


_INVPHI = (5.0**0.5 - 1.0) / 2.0


def optimize(
    params: ModelParams, tol: float = 1e-6, convention: str = "corrected"
) -> OptimizeResult:
    """Locate the welfare-maximizing tau_hat on [0, 1].

    W is smooth between the ends of _pieces: it is evaluated at every end,
    then golden section refines each piece to tol. tau_star is the first
    best point of the trace, so a flat W gives 0. The search runs with M = 0
    (M shifts W uniformly), which keeps the argmax bit-identical across M;
    W_star is then computed with the true M.
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    search = params._replace(M=0.0)
    trace: list[tuple[str, float, float]] = []

    def objective(stage: str, tau: float) -> float:
        w = welfare(search, tau, convention).W
        trace.append((stage, tau, w))
        return w

    ends = _pieces(params)
    for t in ends:
        objective("end", t)
    for a, b in zip(ends, ends[1:]):
        x1 = b - _INVPHI * (b - a)
        x2 = a + _INVPHI * (b - a)
        f1 = objective("refine", x1)
        f2 = objective("refine", x2)
        # the probes stop being strictly inside the piece once it is a few
        # ulps wide; a only rises and b only falls, so this ends for any tol
        while b - a > tol and a < x1 < x2 < b:
            if f1 < f2:
                a, x1, f1 = x1, x2, f2
                x2 = a + _INVPHI * (b - a)
                f2 = objective("refine", x2)
            else:
                b, x2, f2 = x2, x1, f1
                x1 = b - _INVPHI * (b - a)
                f1 = objective("refine", x1)
    tau_star = max(trace, key=itemgetter(2))[1]
    w_star = welfare(params, tau_star, convention).W
    trace.append(("final", tau_star, w_star))
    return OptimizeResult(tau_star=tau_star, W_star=w_star, trace=tuple(trace))
