"""The pair-simulation kernel: one vectorized numpy body, no reductions.

This is the only module that imports numpy, and it holds the inverse CDF
the kernel samples through, a guide table over u in [0, 1] (1.0 gives the
last segment's value). montecarlo.simulate imports it on first use,
so the analytic chain and the other commands never load numpy.

Draws come from a counter-based RNG (splitmix64 output function keyed on
(seed, global draw counter)). Pair i consumes counters 6i..6i+5 for
(beta_1, beta_2, y_a1, y_a2, y_b1, y_b2), so a pair's outputs depend only
on the seed and its global index: the caller may run any contiguous range
of pairs, in any chunking, and a smaller run is a prefix of a larger one.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .distributions import DistributionSpec
from .signaling import PolicyState, rejection_cutoff

__all__ = ["InverseCdf", "active_backend", "knot_arrays", "ppf_from_knots", "simulate_pairs"]

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


class InverseCdf(NamedTuple):
    """A distribution's inverse-CDF guide table (Chen & Asau 1974; Devroye
    1986, III.2.4). segments: rows x0, p0, dx, safe per segment. Bucket j of
    B = len(lo) - 1 holds u in [j/B, (j+1)/B) (bucket B: u = 1.0), starts in
    segment lo[j] and steps once when u >= step[j]; slow (None if empty) flags
    buckets with more than one knot boundary, where that step may fall short."""

    ps: np.ndarray
    segments: np.ndarray
    lo: np.ndarray
    step: np.ndarray
    slow: np.ndarray | None


def knot_arrays(spec: DistributionSpec) -> InverseCdf:
    """The inverse-CDF table of spec. B is the smallest power of two >= 4
    segments, so u*B and j/B are exact."""
    xs = np.asarray(spec.knots_x, dtype=np.float64)
    ps = np.asarray(spec.knots_p, dtype=np.float64)
    last, den = len(ps) - 2, ps[1:] - ps[:-1]
    buckets = 1 << (4 * last + 3).bit_length()
    edges = np.arange(buckets + 1) / buckets
    lo = np.minimum(np.searchsorted(ps, edges, side="right") - 1, last)
    slow = np.searchsorted(ps, edges[1:], side="left") - 1 - lo[:-1] > 1
    # a segment without mass gets dx = -0.0, see ppf_from_knots
    dx = np.where(den > 0.0, xs[1:] - xs[:-1], -0.0)
    segments = np.array([xs[:-1], ps[:-1], dx, np.where(den > 0.0, den, 1.0)])
    step = np.append(ps[1:-1], np.inf)[lo]
    return InverseCdf(ps, segments, lo, step, np.append(slow, False) if slow.any() else None)


def ppf_from_knots(u, table: InverseCdf):
    """Inverse CDF for u in [0, 1], vectorized: a draw takes its bucket's
    segment and at most one step; only draws in slow buckets search. Every
    value, u = 1.0 included, equals the search formula bit for bit: segment
    k = clip(searchsorted(ps, u, "right") - 1, 0, n - 2), then x0 + (u - p0)
    * (x1 - x0) / (p1 - p0), or x0 if the segment has no mass. That happens
    only at u = 1.0 = p0, where dx = -0.0 gives x0 + (-0.0) = x0 exactly,
    x0 = -0.0 included. One segment (every uniform) needs no table."""
    t, v = table, np.asarray(u, dtype=np.float64).reshape(-1)
    k = [0]
    if t.segments.shape[1] > 1:
        j = (v * (len(t.lo) - 1)).astype(np.intp)
        k = t.lo[j] + (t.step[j] <= v)
        if t.slow is not None:
            s = np.flatnonzero(t.slow[j])
            k[s] = np.searchsorted(t.ps, v[s], side="right") - 1
    x0, p0, dx, safe = np.take(t.segments, k, axis=1)
    return (x0 + (v - p0) * dx / safe).reshape(np.shape(u))


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
    beta_cdf: InverseCdf,
    y_cdf: InverseCdf,
):
    """Per-pair arrays for pairs first_pair .. first_pair + n_pairs - 1.

    state supplies the stigma level S and the parameters, beta_cdf and
    y_cdf the knot_arrays tables of its two distributions. beta_star is the
    hot threshold; literal_b selects the paper_literal welfare of B.
    Returns (w, unsafe, nhot, ntest, ndisc, nlowtest, nuntestrej): pair
    welfare as float64, then uint8 flags and per-pair counts (0-2).
    """
    p, stigma = state.params, state.S
    cutoff = rejection_cutoff(p)
    s = np.uint64(seed)
    base = (np.arange(n_pairs, dtype=np.uint64) + np.uint64(first_pair)) * _SIX
    b1 = ppf_from_knots(_unit_array(s, base), beta_cdf)
    b2 = ppf_from_knots(_unit_array(s, base + np.uint64(1)), beta_cdf)
    ya1 = ppf_from_knots(_unit_array(s, base + np.uint64(2)), y_cdf)
    ya2 = ppf_from_knots(_unit_array(s, base + np.uint64(3)), y_cdf)
    yb1 = ppf_from_knots(_unit_array(s, base + np.uint64(4)), y_cdf)
    yb2 = ppf_from_knots(_unit_array(s, base + np.uint64(5)), y_cdf)

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
