"""Utilitarian welfare evaluation and the stigma-policy analysis.

Welfare is experience utility: the present-bias weight is set to 1 when
summing payoffs, so choosing unsafe out of impatience registers as a loss.
The chain for a policy value tau_hat is

    tau_hat -> S -> (EV_L, EV_H, gap) -> (beta*, H, r) -> (R_H, R) -> W.

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
from dataclasses import dataclass, replace
from typing import NamedTuple

from .coordination import period1_outcome
from .signaling import (
    AssumptionViolation,
    ModelParams,
    assumption3_margin,
    policy_state,
    rejection_cutoff,
    testing_rates,
)
# unused here; perfbench/tracer.py patches these names, so they must still resolve
from .signaling import continuation_values, stigma_level  # noqa: F401
from .distributions import mean, partial_expectation

__all__ = [
    "CONVENTIONS",
    "WelfareReport",
    "PolicyDecomposition",
    "PresentBiasLoss",
    "SweepRow",
    "SweepError",
    "OptimizeResult",
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


@dataclass(frozen=True)
class WelfareReport:
    """W = W_A + W_B; W_A sums the high- and low-risk welfare, W_B the
    discriminators' and the accepters' terms."""

    W_A: float
    W_B: float
    W: float
    welfare_high: float
    welfare_low: float
    welfare_B_discriminators: float
    welfare_B_accepters: float


@dataclass(frozen=True)
class PolicyDecomposition:
    """Three-term welfare decomposition of moving tau_hat off zero.

    deterrence_gain: switchers valued at the new continuation gap;
    suppression_loss: stayers' drop in EV_H (negative);
    b_loss: discriminators' forgone valuations (negative);
    paper_sum: the three terms added up; exact_delta: the actual welfare
    difference W(tau_hat) - W(0) under the corrected convention. The
    residual between them is reported, never forced to zero (the three-term
    sum ignores the switchers' period-1 saving and prices them at the new
    gap rather than the old).
    """

    deterrence_gain: float
    suppression_loss: float
    b_loss: float
    paper_sum: float
    exact_delta: float
    residual: float


@dataclass(frozen=True)
class PresentBiasLoss:
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


class SweepError(RuntimeError):
    def __init__(self, tau_hat: float, cause: Exception):
        self.tau_hat = tau_hat
        super().__init__(f"sweep failed at tau_hat={tau_hat!r}: {cause}")


@dataclass(frozen=True)
class OptimizeResult:
    tau_star: float
    W_star: float
    trace: tuple[tuple[str, float, float], ...]


def _check_convention(convention: str) -> str:
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}, got {convention!r}")
    return convention


def _require_preconditions(params: ModelParams, convention: str) -> None:
    """Reject what no point of the welfare chain can evaluate.

    Public entry points call this once, before any chain evaluation.
    """
    _check_convention(convention)
    gap0 = assumption3_margin(params)
    if gap0 <= 0.0:
        raise AssumptionViolation(
            "assumption 3",
            f"c_h*(theta_H-theta_L) - (theta_H*v-c) = {gap0!r} must be positive",
        )


def welfare(
    params: ModelParams,
    tau_hat: float | None = None,
    convention: str = "corrected",
) -> WelfareReport:
    """Experience-utility welfare of the full population at a policy value.

    tau_hat overrides the value stored in params when given. Population A's
    welfare weights the per-type totals by the equilibrium composition;
    population B's follows the selected convention.
    """
    _require_preconditions(params, convention)
    tau = params.tau_hat if tau_hat is None else tau_hat
    return _point(params, tau, convention)[1]


def first_best_benchmark(params: ModelParams) -> WelfareReport:
    """Welfare with neither error: no present bias and no perceived risk.

    Every pair plays safe, testing carries no signal, and every interaction
    is accepted, so W_A = M - u + EV_L and W_B = E[y].
    """
    mu = mean(params.dist_y)
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

    In the all-unsafe regime (u >= gap) the composition term uses r = 1,
    so the loss degrades continuously to gap(0) as the gap closes.
    """
    _require_preconditions(params, "corrected")
    row = _point(params, 0.0, "corrected")[0]
    return PresentBiasLoss(
        continuation_loss=row.r * row.gap,
        total_shortfall=row.r * (row.gap - params.u),
    )


def decomposition(params: ModelParams, tau_hat: float) -> PolicyDecomposition:
    """Three-term account of W(tau_hat) - W(0) plus the exact difference."""
    if not 0.0 < tau_hat <= 1.0:
        raise ValueError(f"tau_hat must lie in (0, 1], got {tau_hat!r}")
    _require_preconditions(params, "corrected")
    row0 = _point(params, 0.0, "corrected")[0]
    row1 = _point(params, tau_hat, "corrected")[0]
    # EV_L does not depend on S, so EV_L - EV_H(tau_hat) is gap(tau_hat) and
    # EV_H(tau_hat) - EV_H(0) is gap(0) - gap(tau_hat)
    deterrence = (row0.r - row1.r) * row1.gap
    suppression = row1.r * (row0.gap - row1.gap)
    cutoff = rejection_cutoff(params, tau_hat)
    b_loss = -row1.R * partial_expectation(params.dist_y, cutoff)
    paper_sum = deterrence + suppression + b_loss
    exact = row1.W - row0.W
    return PolicyDecomposition(
        deterrence_gain=deterrence,
        suppression_loss=suppression,
        b_loss=b_loss,
        paper_sum=paper_sum,
        exact_delta=exact,
        residual=exact - paper_sum,
    )


def _point(
    p: ModelParams, tau_hat: float, convention: str
) -> tuple[SweepRow, WelfareReport]:
    """Sweep row and welfare report from one evaluation of the chain
    tau_hat -> S -> gap -> beta* -> r -> R -> W.

    The caller has checked the preconditions; p.tau_hat is not read.
    """
    _, _, s, ev_l, ev_h, gap = policy_state(p, tau_hat)
    p1 = period1_outcome(p, gap)
    r = p1.r
    r_h, r_pop = testing_rates(p, s, r)
    w_high = r * (p.M + ev_h)
    w_low = (1.0 - r) * (p.M - p.u + ev_l)
    pe = partial_expectation(p.dist_y, rejection_cutoff(p, tau_hat))
    w_disc = ((1.0 - r_pop) if convention == "corrected" else r_pop) * pe
    w_acc = mean(p.dist_y) - pe
    w_a = w_high + w_low
    w_b = w_disc + w_acc
    w = w_a + w_b
    row = SweepRow(tau_hat, s, gap, p1.H, r, r_h, r_pop, w_a, w_b, w)
    return row, WelfareReport(w_a, w_b, w, w_high, w_low, w_disc, w_acc)


def evaluate_point(
    params: ModelParams, tau_hat: float, convention: str = "corrected"
) -> SweepRow:
    """One row of the sweep schema; the chain is evaluated once."""
    _require_preconditions(params, convention)
    return _point(params, tau_hat, convention)[0]


def _sweep_points(
    params: ModelParams, grid, convention: str
) -> list[tuple[SweepRow, WelfareReport]]:
    """Row and report at each point of a sorted tau_hat grid.

    The caller has checked the preconditions, so a SweepError names a
    failure inside the chain at one point.
    """
    grid = [float(g) for g in grid]
    if any(not 0.0 <= g <= 1.0 for g in grid):
        raise ValueError("grid values must lie in [0, 1]")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be sorted ascending")
    points = []
    for g in grid:
        try:
            points.append(_point(params, g, convention))
        except Exception as exc:
            raise SweepError(g, exc) from exc
    return points


def tau_grid(n: int) -> list[float]:
    """n evenly spaced policy values from 0 to 1 inclusive."""
    return [i / (n - 1) for i in range(n)]


def sweep(
    params: ModelParams, grid, convention: str = "corrected"
) -> list[SweepRow]:
    """Evaluate the full chain on a sorted tau_hat grid, one row per point."""
    _require_preconditions(params, convention)
    return [row for row, _ in _sweep_points(params, grid, convention)]


_INVPHI = (5.0**0.5 - 1.0) / 2.0


def optimize(
    params: ModelParams,
    tol: float = 1e-6,
    convention: str = "corrected",
    grid_points: int = 101,
) -> OptimizeResult:
    """Locate the welfare-maximizing tau_hat on [0, 1].

    Coarse grid scan, then golden-section refinement on the bracketing
    interval; derivative-free because the curve has kinks where the testing
    threshold leaves the valuation support. The search objective is
    evaluated with M = 0 (M shifts W uniformly), which keeps the returned
    argmax bit-identical across M; W_star is then computed with the true M.
    Trace entries carry the M = 0 objective except the final row.
    """
    _check_convention(convention)
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if grid_points < 3:
        raise ValueError("grid_points must be >= 3")
    search = replace(params, M=0.0)

    trace: list[tuple[str, float, float]] = []

    def objective(tau: float) -> float:
        w = welfare(search, tau, convention).W
        return w

    n = grid_points
    taus = tau_grid(n)
    values = []
    for t in taus:
        w = objective(t)
        values.append(w)
        trace.append(("grid", t, w))
    best = max(range(n), key=lambda i: values[i])
    a = taus[max(best - 1, 0)]
    b = taus[min(best + 1, n - 1)]

    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1 = objective(x1)
    f2 = objective(x2)
    trace.append(("refine", x1, f1))
    trace.append(("refine", x2, f2))
    # the probes stop being strictly inside the bracket once it is a few ulps
    # wide; a only rises and b only falls, so this ends for any tol
    while b - a > tol and a < x1 < x2 < b:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = objective(x2)
            trace.append(("refine", x2, f2))
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = objective(x1)
            trace.append(("refine", x1, f1))
    tau_star, f_star = (x1, f1) if f1 >= f2 else (x2, f2)
    # kinks can break unimodality on the bracket; never do worse than the grid
    if values[best] > f_star:
        tau_star = taus[best]
    w_star = welfare(params, tau_star, convention).W
    trace.append(("final", tau_star, w_star))
    return OptimizeResult(tau_star=tau_star, W_star=w_star, trace=tuple(trace))
