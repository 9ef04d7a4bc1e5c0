"""First-period coordination outcomes under heterogeneous present bias.

Players discounting the future below the threshold beta* = u/gap ("hot")
prefer the unsafe equilibrium; the rest ("cold") prefer safe. Matched pairs
settle on the equilibrium both prefer, with mixed pairs resolved by the
joint-welfare rule: unsafe iff beta_1 + beta_2 < 2*beta*. The resulting
high-risk fraction is computed exactly in closed form: its mixed-pair
integrand is piecewise linear for every supported distribution.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .distributions import DistributionSpec, cdf, density
# unused here; perfbench/tracer.py times this name, so it must still resolve
from .distributions import integrate  # noqa: F401
from .signaling import AssumptionViolation, ModelParams

__all__ = [
    "Period1Outcome",
    "hot_threshold",
    "hot_fraction",
    "high_risk_fraction",
    "period1_outcome",
]

INTERIOR = "interior"
ALL_UNSAFE = "all_unsafe"


class Period1Outcome(NamedTuple):
    beta_star: float
    H: float
    r: float
    regime: str


def hot_threshold(u: float, gap: float) -> float:
    """u/gap. Players with present bias below it are hot; once it reaches
    the top of the present-bias support, every player is."""
    if gap <= 0.0:
        raise AssumptionViolation(
            "assumption 3", f"continuation gap must be positive, got {gap!r}"
        )
    return u / gap


def hot_fraction(dist_beta: DistributionSpec, beta_star: float) -> float:
    """Mass of players below the hot threshold."""
    if beta_star < 0.0:
        raise ValueError(f"beta_star must be >= 0, got {beta_star!r}")
    return cdf(dist_beta, beta_star)


def high_risk_fraction(dist_beta: DistributionSpec, beta_star: float) -> float:
    """Mass of players ending up in unsafe pairs, exact in closed form.

    H^2 of hot-hot pairs plus twice the mixed-pair mass
    integral_{lo}^{hi} F(2*beta* - b) f(b) db, with the limits clamped to
    the support (lo = max(beta*, support_lo), hi = min(2*beta*, support_hi)).
    Between the knots x_k and their mirrors 2*beta* - x_k the density is
    constant and F(2*beta* - b) is linear, so the trapezoid rule over those
    breakpoints is exact; math.fsum adds the pieces.
    """
    h = hot_fraction(dist_beta, beta_star)
    lo = max(beta_star, dist_beta.support_lo)
    hi = min(2.0 * beta_star, dist_beta.support_hi)
    if hi <= lo:
        return h * h
    twice = 2.0 * beta_star
    cuts = {lo, hi}
    for x in dist_beta.knots_x:
        if lo < x < hi:
            cuts.add(x)
        if lo < twice - x < hi:
            cuts.add(twice - x)
    pts = sorted(cuts)
    mirrored = [cdf(dist_beta, twice - b) for b in pts]
    mixed = math.fsum(
        (b - a) * density(dist_beta, 0.5 * (a + b)) * (fa + fb) * 0.5
        for a, b, fa, fb in zip(pts, pts[1:], mirrored, mirrored[1:])
    )
    return h * h + 2.0 * mixed


def period1_outcome(params: ModelParams, gap: float) -> Period1Outcome:
    """Hot threshold, hot fraction, and high-risk fraction for a given gap.

    The regime is all-unsafe when beta* reaches the top of the present-bias
    support (weak inequality): every player is hot, and H = r = 1 exactly.
    """
    beta_star = hot_threshold(params.u, gap)
    dist = params.dist_beta
    return Period1Outcome(
        beta_star=beta_star,
        H=hot_fraction(dist, beta_star),
        r=high_risk_fraction(dist, beta_star),
        regime=ALL_UNSAFE if beta_star >= dist.support_hi else INTERIOR,
    )
