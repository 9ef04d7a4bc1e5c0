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

Intermediates go to per-thread scratch arrays (numpy out=) that later
calls reuse, so a call allocates only the arrays it returns.
"""

from __future__ import annotations

import threading
from typing import NamedTuple

import numpy as np

from .distributions import DistributionSpec
from .signaling import PolicyState, rejection_cutoff

__all__ = ["InverseCdf", "active_backend", "knot_arrays", "ppf_from_knots", "simulate_pairs"]

_GOLDEN = 0x9E3779B97F4A7C15  # splitmix64's increment
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_INV53 = 1.0 / 9007199254740992.0  # 2**-53


def active_backend() -> str:
    # perfbench/run.py writes this into its run record
    return "numpy"


_local = threading.local()


def _rows(owner: str, dtype, count: int, n: int) -> np.ndarray:
    """owner's count scratch rows of n dtype values in this thread, kept for
    later calls and replaced only for a larger n; threads never share them."""
    block = getattr(_local, owner, None)
    if block is None or block.shape[1] < n:
        block = np.empty((count, n), dtype)
        setattr(_local, owner, block)
    return block[:, :n]


class InverseCdf(NamedTuple):
    """A distribution's inverse-CDF guide table (Chen & Asau 1974; Devroye
    1986, III.2.4). segments: rows x0, p0, dx, safe per segment. Bucket j of
    B = len(lo) - 1 holds u in [j/B, (j+1)/B) (bucket B: u = 1.0), starts in
    segment lo[j] and steps once when u >= step[j]; slow (None if empty) flags
    buckets with more than one knot boundary, where that step may fall short.
    One segment (every uniform) has no guide: lo, step and slow are None."""

    ps: np.ndarray
    segments: np.ndarray
    lo: np.ndarray | None
    step: np.ndarray | None
    slow: np.ndarray | None


def knot_arrays(spec: DistributionSpec) -> InverseCdf:
    """The inverse-CDF table of spec. B is the smallest power of two >= 4
    segments, so u*B and j/B are exact."""
    xs = np.asarray(spec.knots_x, dtype=np.float64)
    ps = np.asarray(spec.knots_p, dtype=np.float64)
    last, den = len(ps) - 2, ps[1:] - ps[:-1]
    # a segment without mass gets dx = -0.0, see ppf_from_knots
    dx = np.where(den > 0.0, xs[1:] - xs[:-1], -0.0)
    segments = np.array([xs[:-1], ps[:-1], dx, np.where(den > 0.0, den, 1.0)])
    if not last:
        return InverseCdf(ps, segments, None, None, None)
    buckets = 1 << (4 * last + 3).bit_length()
    edges = np.arange(buckets + 1) / buckets
    lo = np.minimum(np.searchsorted(ps, edges, side="right") - 1, last)
    slow = np.searchsorted(ps, edges[1:], side="left") - 1 - lo[:-1] > 1
    step = np.append(ps[1:-1], np.inf)[lo]
    return InverseCdf(ps, segments, lo, step, np.append(slow, False) if slow.any() else None)


def ppf_from_knots(u, table: InverseCdf, out=None):
    """Inverse CDF for u in [0, 1], vectorized, into out (a float64 array of
    u's size) or a new array: a draw takes its bucket's segment and at most
    one step; only draws in slow buckets search. Every value, u = 1.0
    included, equals the search formula bit for bit: segment k = clip(
    searchsorted(ps, u, "right") - 1, 0, n - 2), then x0 + (u - p0) * (x1 -
    x0) / (p1 - p0), or x0 if the segment has no mass. That happens only at
    u = 1.0 = p0, where dx = -0.0 gives x0 + (-0.0) = x0 exactly, x0 = -0.0
    included."""
    t, v = table, np.asarray(u, dtype=np.float64).reshape(-1)
    if t.lo is None:  # one segment (every uniform): no guide
        def column(row):  # x0, p0, dx, safe
            return t.segments[row, 0]
    else:
        (g,), (flag,) = _rows("ppf_f64", float, 1, v.size), _rows("ppf_bool", bool, 1, v.size)
        j, k = _rows("ppf_intp", np.intp, 2, v.size)
        np.copyto(j, np.multiply(v, len(t.lo) - 1, out=g), casting="unsafe")
        # indices are in range; mode="raise" would stage out in a copy
        np.take(t.lo, j, out=k, mode="clip")
        np.add(k, np.less_equal(np.take(t.step, j, out=g, mode="clip"), v, out=flag), out=k)
        if t.slow is not None:
            s = np.flatnonzero(np.take(t.slow, j, out=flag, mode="clip"))
            k[s] = np.searchsorted(t.ps, v[s], side="right") - 1

        def column(row):
            return np.take(t.segments[row], k, out=g, mode="clip")
    x = np.subtract(v, column(1), out=np.empty_like(v) if out is None else out)
    np.multiply(x, column(2), out=x)
    np.divide(x, column(3), out=x)
    np.add(column(0), x, out=x)
    return x.reshape(np.shape(u))


def _unit_array(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Uniform [0, 1) doubles into out (float64, z's size): splitmix64's
    output function of the keyed states z = seed + (counter + 1) * GOLDEN
    mod 2**64 (uint64), which it overwrites. out is its shift scratch until
    the last pass writes the doubles."""
    shift = out.view(np.uint64)
    for s, mix in ((_S30, _MIX1), (_S27, _MIX2)):
        np.bitwise_xor(z, np.right_shift(z, s, out=shift), out=z)
        np.multiply(z, mix, out=z)
    np.bitwise_xor(z, np.right_shift(z, _S31, out=shift), out=z)
    np.right_shift(z, _S11, out=z)
    # z < 2**53 now, so its int64 view converts the same and faster
    return np.multiply(z.view(np.int64), _INV53, out=out)


def _floats(flags: np.ndarray, out: np.ndarray) -> np.ndarray:
    """flags as 1.0 and 0.0 in out: a copy and a float product cost less than
    numpy's bool-by-float loop, with the same bits."""
    np.copyto(out, flags)
    return out


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

    state supplies the policy value tau_hat, the stigma level S and the
    parameters, beta_cdf and y_cdf the knot_arrays tables of its two
    distributions. beta_star is the hot threshold; literal_b selects the
    paper_literal welfare of B.
    Returns (w, code), both new: pair welfare as float64, and as uint8 the
    pair's outcome code unsafe + 2 nhot + 6 ntest + 18 ndisc (0-53), where
    unsafe is 1 for a pair that plays unsafe and nhot, ntest and ndisc count
    its hot players, testing A players and discriminating B players (0-2).
    """
    p, stigma, n = state.params, state.S, n_pairs
    cutoff = rejection_cutoff(p, state.tau_hat)
    golden = getattr(_local, "golden", None)  # 6 i GOLDEN for i < n, kept across calls
    if golden is None or len(golden) < n:
        golden = _local.golden = np.arange(n, dtype=np.uint64) * np.uint64(6 * _GOLDEN % 2**64)
    tmp, b1, b2, ya1, ya2, yb1, yb2, net = _rows("f64", float, 8, n)
    hot1, hot2, unsafe, t1, t2, d1, d2, m1, m2, e = _rows("bool", bool, 10, n)

    for k, x in enumerate((b1, b2, ya1, ya2, yb1, yb2)):  # x holds the RNG states until drawn
        # counter 6 (first_pair + i) + k keyed as seed + (counter + 1) GOLDEN, mod 2**64
        key = np.uint64(((6 * first_pair + k + 1) * _GOLDEN + seed) % 2**64)
        u = _unit_array(np.add(golden[:n], key, out=x.view(np.uint64)), out=tmp)
        ppf_from_knots(u, beta_cdf if k < 2 else y_cdf, out=x)

    np.less(b1, beta_star, out=hot1)
    np.less(b2, beta_star, out=hot2)
    # (hot1 & hot2) | ((hot1 ^ hot2) & (b1 + b2 < 2 beta*))
    np.less(np.add(b1, b2, out=tmp), 2.0 * beta_star, out=unsafe)
    np.logical_and(unsafe, np.logical_xor(hot1, hot2, out=e), out=unsafe)
    np.logical_or(unsafe, np.logical_and(hot1, hot2, out=e), out=unsafe)

    # the net gain from testing theta v - c, and ua = pay1 + t net - theta c_h
    # + m y_a less its last term, as tables by 2 unsafe + t (the gain does not
    # depend on t), each value in the per-pair expression's operation order
    theta, pay1 = (p.theta_L, p.theta_H), (p.M - p.u, p.M)
    gain = [theta[i // 2] * p.v - p.c for i in range(4)]
    base = [pay1[i // 2] + (i % 2) * gain[i] - theta[i // 2] * p.c_h for i in range(4)]
    gain, base = np.array(gain), np.array(base)
    row, index = b1.view(np.intp), b2.view(np.intp)  # in the beta draws' rows, no longer needed
    np.copyto(row, unsafe)
    np.add(row, row, out=row)
    np.take(gain, row, out=net, mode="clip")  # in range; "raise" would stage out in a copy
    w, ua2 = np.empty(n), ya1  # w holds ua1 until ua2 is added; ya1 is done by then
    for t, m, d, ya, yb, ua in ((t1, m1, d1, ya1, yb1, w), (t2, m2, d2, ya2, yb2, ua2)):
        # t: tests, net - S y_a > 0; d: y_b below the cutoff; m: not (d and t)
        np.greater(np.subtract(net, np.multiply(stigma, ya, out=tmp), out=tmp), 0.0, out=t)
        np.less(yb, cutoff, out=d)
        np.logical_not(np.logical_and(d, t, out=m), out=m)
        np.take(base, np.add(row, t, out=index), out=ua, mode="clip")
        np.add(ua, np.multiply(_floats(m, tmp), ya, out=tmp), out=ua)

    # w = 0.5 (ua1 + ua2 + ub1 + ub2); ub = m y_b, or (t if d else 1) y_b literally
    np.add(w, ua2, out=w)
    for t, m, d, yb in ((t1, m1, d1, yb1), (t2, m2, d2, yb2)):
        accepts = np.logical_or(np.logical_not(d, out=e), t, out=e) if literal_b else m
        np.add(w, np.multiply(_floats(accepts, tmp), yb, out=tmp), out=w)
    np.multiply(w, 0.5, out=w)

    # code = ((ndisc 3 + ntest) 3 + nhot) 2 + unsafe, each count a sum of two bool rows
    code = np.add(d1.view(np.uint8), d2.view(np.uint8))
    for radix, flags in ((3, (t1, t2)), (3, (hot1, hot2)), (2, (unsafe,))):
        np.multiply(code, radix, out=code)
        for flag in flags:
            np.add(code, flag.view(np.uint8), out=code)
    return w, code
