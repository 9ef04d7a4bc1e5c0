"""First-period coordination outcomes under heterogeneous present bias.

Players discounting the future below the threshold beta* = u/gap ("hot")
prefer the unsafe equilibrium; the rest ("cold") prefer safe. Matched pairs
settle on the equilibrium both prefer, with mixed pairs resolved by the
joint-welfare rule: unsafe iff beta_1 + beta_2 < 2*beta*. Hot pairs always
pass it and cold pairs never do, so r = G(2*beta*), G the CDF of a sum of two
draws, tabulated once per distribution; G is C^1 (r'' jumps at (x_j + x_k)/2).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import NamedTuple

from .distributions import DistributionSpec, cdf
# unused here; perfbench/tracer.py counts and times these names, so they must still resolve
from .distributions import density, integrate  # noqa: F401
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
    """Mass of players in unsafe pairs, G(2*beta*) from dist_beta.sum_cdf_table:
    exactly 0 up to T[0] = 2 support_lo and exactly 1 from T[-1] = 2 support_hi."""
    ts, coef, (g_div, slope_div, curv_div) = dist_beta.sum_cdf_table
    s = 2.0 * beta_star
    m = bisect_right(ts, s)
    if not 0 < m < len(ts):
        return float(m > 0)  # 0 below T[0], 1 from T[-1] up
    g, slope, curv = coef[m - 1]
    d = s - ts[m - 1]
    return g / g_div + d * (slope / slope_div + d * (curv / curv_div))


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
