"""The pair-simulation kernel: one vectorized numpy body, no reductions.

This is the only module that imports numpy, and it holds the inverse CDF
the kernel samples through. montecarlo.simulate imports it on first use,
so the analytic chain and the other commands never load numpy.

Draws come from a counter-based RNG (splitmix64 output function keyed on
(seed, global draw counter)). Pair i consumes counters 6i..6i+5 for
(beta_1, beta_2, y_a1, y_a2, y_b1, y_b2), so a pair's outputs depend only
on the seed and its global index: the caller may run any contiguous range
of pairs, in any chunking, and a smaller run is a prefix of a larger one.
"""

from __future__ import annotations

import numpy as np

from .distributions import DistributionSpec
from .signaling import PolicyState, rejection_cutoff

__all__ = ["active_backend", "knot_arrays", "ppf_from_knots", "simulate_pairs"]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_ONE = np.uint64(1)
_SIX = np.uint64(6)
_INV53 = 1.0 / 9007199254740992.0  # 2**-53


def active_backend() -> str:
    # perfbench/run.py writes this into its run record
    return "numpy"


def knot_arrays(spec: DistributionSpec) -> tuple[np.ndarray, np.ndarray]:
    """CDF knots as float64 arrays for vectorized inverse sampling."""
    return (
        np.asarray(spec.knots_x, dtype=np.float64),
        np.asarray(spec.knots_p, dtype=np.float64),
    )


def ppf_from_knots(u, xs: np.ndarray, ps: np.ndarray):
    """Inverse CDF for u in [0, 1) given knot arrays. Vectorized.

    Two knots with a rising CDF (every uniform) take the general formula
    with k = 0 directly, skipping the search; the results are bit-identical.
    """
    u = np.asarray(u, dtype=np.float64)
    if len(ps) == 2 and ps[1] - ps[0] > 0.0:
        return xs[0] + (u - ps[0]) * (xs[1] - xs[0]) / (ps[1] - ps[0])
    k = np.searchsorted(ps, u, side="right") - 1
    k = np.clip(k, 0, len(ps) - 2)
    p0 = ps[k]
    den = ps[k + 1] - p0
    safe = np.where(den > 0.0, den, 1.0)
    x = xs[k] + (u - p0) * (xs[k + 1] - xs[k]) / safe
    return np.where(den > 0.0, x, xs[k])


def _unit_array(seed: np.uint64, counters: np.ndarray) -> np.ndarray:
    """Uniform [0, 1) doubles from uint64 counters (splitmix64 output fn)."""
    z = seed + (counters + _ONE) * _GOLDEN
    z = (z ^ (z >> _S30)) * _MIX1
    z = (z ^ (z >> _S27)) * _MIX2
    z = z ^ (z >> _S31)
    return (z >> _S11) * _INV53


def simulate_pairs(
    seed: int,
    first_pair: int,
    n_pairs: int,
    state: PolicyState,
    beta_star: float,
    literal_b: bool,
):
    """Per-pair arrays for pairs first_pair .. first_pair + n_pairs - 1.

    state supplies the stigma level S and the parameters: the model
    scalars, the rejection cutoff and both distributions. beta_star is the
    hot threshold; literal_b selects the paper_literal welfare of B.
    Returns (w, unsafe, nhot, ntest, ndisc, nlowtest, nuntestrej): pair
    welfare as float64, then uint8 flags and per-pair counts (0-2).
    """
    p, stigma = state.params, state.S
    cutoff = rejection_cutoff(p)
    beta_xs, beta_ps = knot_arrays(p.dist_beta)
    y_xs, y_ps = knot_arrays(p.dist_y)
    s = np.uint64(seed)
    base = (np.arange(n_pairs, dtype=np.uint64) + np.uint64(first_pair)) * _SIX
    b1 = ppf_from_knots(_unit_array(s, base), beta_xs, beta_ps)
    b2 = ppf_from_knots(_unit_array(s, base + np.uint64(1)), beta_xs, beta_ps)
    ya1 = ppf_from_knots(_unit_array(s, base + np.uint64(2)), y_xs, y_ps)
    ya2 = ppf_from_knots(_unit_array(s, base + np.uint64(3)), y_xs, y_ps)
    yb1 = ppf_from_knots(_unit_array(s, base + np.uint64(4)), y_xs, y_ps)
    yb2 = ppf_from_knots(_unit_array(s, base + np.uint64(5)), y_xs, y_ps)

    hot1 = b1 < beta_star
    hot2 = b2 < beta_star
    unsafe = (hot1 & hot2) | ((hot1 ^ hot2) & (b1 + b2 < 2.0 * beta_star))
    theta = np.where(unsafe, p.theta_H, p.theta_L)
    pay1 = np.where(unsafe, p.M, p.M - p.u)

    net = theta * p.v - p.c
    t1 = net - stigma * ya1 > 0.0
    t2 = net - stigma * ya2 > 0.0
    d1 = yb1 < cutoff
    d2 = yb2 < cutoff
    m1 = ~(d1 & t1)
    m2 = ~(d2 & t2)

    t1f = t1.astype(np.float64)
    t2f = t2.astype(np.float64)
    m1f = m1.astype(np.float64)
    m2f = m2.astype(np.float64)
    ua1 = pay1 + t1f * net - theta * p.c_h + m1f * ya1
    ua2 = pay1 + t2f * net - theta * p.c_h + m2f * ya2
    if literal_b:
        ub1 = np.where(d1, t1f, 1.0) * yb1
        ub2 = np.where(d2, t2f, 1.0) * yb2
    else:
        ub1 = m1f * yb1
        ub2 = m2f * yb2
    w = 0.5 * (ua1 + ua2 + ub1 + ub2)

    nhot = hot1.astype(np.uint8) + hot2.astype(np.uint8)
    ntest = t1.astype(np.uint8) + t2.astype(np.uint8)
    ndisc = d1.astype(np.uint8) + d2.astype(np.uint8)
    safe_mask = ~unsafe
    nlowtest = (safe_mask & t1).astype(np.uint8) + (safe_mask & t2).astype(np.uint8)
    nuntestrej = (~t1 & ~m1).astype(np.uint8) + (~t2 & ~m2).astype(np.uint8)
    return w, unsafe.astype(np.uint8), nhot, ntest, ndisc, nlowtest, nuntestrej
