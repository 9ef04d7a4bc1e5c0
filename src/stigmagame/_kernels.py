"""The pair-simulation kernel: one vectorized numpy body, no reductions.

This is the only module that imports numpy at module level, and it holds
the inverse CDF the kernel samples through, a guide table over u in [0, 1].
montecarlo.simulate imports it (and numpy, for its reductions) on first
use, so the analytic chain and the other commands never load numpy.

Draws come from a counter-based RNG (splitmix64 output function keyed on
(seed, global counter)). Pair i hashes counters 3i..3i+2, whose outputs'
low and high 32 bits, times 2**-32, are (beta_1, beta_2), (y_a1, y_a2) and
(y_b1, y_b2); so a pair's draws depend only on the seed and its index, any
chunking of a pair range gives the same pairs, and a smaller run is a
prefix of a larger one.

Intermediates go to per-thread scratch arrays (numpy out=) that later
calls reuse, so a call allocates only the arrays it returns.
"""

from __future__ import annotations

import sys
import threading
from typing import NamedTuple

import numpy as np

from .coordination import hot_threshold
from .distributions import DistributionSpec
from .signaling import ModelParams, rejection_cutoff
from .welfare import SweepRow

__all__ = ["InverseCdf", "active_backend", "knot_arrays", "ppf_from_knots", "simulate_pairs"]

_GOLDEN = 0x9E3779B97F4A7C15  # splitmix64's increment
# 0-d arrays, not numpy scalars: a ufunc call with one costs ~0.4 us less
_MIX1, _MIX2, _S30, _S27, _S31 = (
    np.array(c, np.uint64) for c in (0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 30, 27, 31)
)
_INV32 = np.array(2.0**-32)
_LOW, _HIGH = (0, 1) if sys.byteorder == "little" else (1, 0)  # offsets in a uint32 view


def active_backend() -> str:
    # perfbench/run.py writes this into its run record
    return "numpy"


_local = threading.local()


def _rows(owner: str, dtype, count: int, n: int) -> np.ndarray:
    """owner's contiguous (count, n) dtype scratch in this thread, kept for
    later calls and replaced only for a larger one; threads never share it."""
    block = getattr(_local, owner, None)
    if block is None or block.size < count * n:
        block = np.empty(count * n, dtype)
        setattr(_local, owner, block)
    return block[:count * n].reshape(count, n)


class InverseCdf(NamedTuple):
    """A distribution's inverse-CDF guide table (Chen & Asau 1974; Devroye
    1986, III.2.4). segments: rows x0, p0, slope (width over mass, or -0.0)
    per segment. Bucket j of B = len(lo) - 1 holds u in [j/B, (j+1)/B) (bucket
    B: u = 1.0), starts in segment lo[j] and steps once when u >= step[j]; slow
    (None if empty) flags buckets with more than one knot boundary, where that
    step may fall short. One segment has no guide (lo, step, slow None)."""

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
    # finite where den > 0 (DistributionSpec checks it); -0.0 elsewhere, see ppf_from_knots
    slope = np.divide(xs[1:] - xs[:-1], den, out=np.full(last + 1, -0.0), where=den > 0.0)
    segments = np.array([xs[:-1], ps[:-1], slope])
    if not last:
        return InverseCdf(ps, segments, None, None, None)
    buckets = 1 << (4 * last + 3).bit_length()
    edges = np.arange(buckets + 1) / buckets
    lo = np.minimum(np.searchsorted(ps, edges, side="right") - 1, last)
    slow = np.searchsorted(ps, edges[1:], side="left") - 1 - lo[:-1] > 1
    step = np.append(ps[1:-1], np.inf)[lo]
    return InverseCdf(ps, segments, lo, step, np.append(slow, False) if slow.any() else None)


def ppf_from_knots(u, table: InverseCdf, out=None, scratch=None):
    """Inverse CDF for u in [0, 1], vectorized, into out (a float64 array of
    u's size) or a new array, gathering into scratch (a float64 and a bool
    array of u's size; None: this thread's own). A draw takes its bucket's
    segment and at most one step; only draws in slow buckets search. Every
    value equals the search formula bit for bit: segment k = clip(searchsorted(
    ps, u, "right") - 1, 0, n - 2), the last with p0 <= u, then x0 + (u - p0) *
    slope. Only u = 1.0 finds a segment without mass (p0 = 1.0, by the clip;
    bucket B never steps): (+0.0) * (-0.0) = -0.0, and x0 + (-0.0) = x0 exactly,
    x0 = -0.0 included. One segment is x0 + u * slope: its p0 is +-0.0 and p1 -
    p0 is 1.0, so slope = x1 - x0 and u - p0 = u for u >= +0.0. A value is
    never below its segment's x0 but can lie above its x1, support_hi
    included: the rounded slope and product carry u = 1.0, or u within a few
    ulp below a knot's p, up to 2 ulp of max(|x0|, |x1|, x1 - x0) past x1."""
    t, v = table, np.asarray(u, dtype=np.float64).reshape(-1)
    x = np.empty_like(v) if out is None else out
    if t.lo is None:  # one segment (every uniform): no guide
        x0, _, slope = t.segments[:, 0]
        return np.add(x0, np.multiply(v, slope, out=x), out=x).reshape(np.shape(u))
    if scratch is None:  # this thread's own rows
        scratch = _rows("ppf_f64", float, 1, v.size)[0], _rows("ppf_bool", bool, 1, v.size)[0]
    (g, flag), (j, k) = scratch, _rows("ppf_intp", np.intp, 2, v.size)
    np.copyto(j, np.multiply(v, len(t.lo) - 1, out=g), casting="unsafe")
    # indices are in range; mode="raise" would stage out in a copy. The
    # method, not np.take's Python wrapper: about 1 us less per call
    t.lo.take(j, out=k, mode="clip")
    np.add(k, np.less_equal(t.step.take(j, out=g, mode="clip"), v, out=flag), out=k)
    if t.slow is not None:
        s = np.flatnonzero(t.slow.take(j, out=flag, mode="clip"))
        k[s] = np.searchsorted(t.ps, v[s], side="right") - 1
    # x0 + (u - p0) * slope, each column gathered by segment into g
    np.subtract(v, t.segments[1].take(k, out=g, mode="clip"), out=x)
    np.multiply(x, t.segments[2].take(k, out=g, mode="clip"), out=x)
    return np.add(t.segments[0].take(k, out=g, mode="clip"), x, out=x).reshape(np.shape(u))


def _floats(flags: np.ndarray, out: np.ndarray) -> np.ndarray:
    """flags as 1.0 and 0.0 in out: a copy and a float product cost less than
    numpy's bool-by-float loop, with the same bits."""
    np.copyto(out, flags)
    return out


def simulate_pairs(
    seed: int,
    first_pair: int,
    n_pairs: int,
    params: ModelParams,
    row: SweepRow,
    literal_b: bool,
    beta_cdf: InverseCdf,
    y_cdf: InverseCdf,
):
    """Per-pair arrays for pairs first_pair .. first_pair + n_pairs - 1.

    row, the welfare.SweepRow of params at the policy value, supplies
    tau_hat, the stigma level S and the gap (and so the hot threshold
    beta*); beta_cdf and y_cdf are the knot_arrays tables of params' two
    distributions, each read by one inverse-CDF call per counter, on the
    2 n_pairs draws it gives. literal_b selects the paper_literal welfare of B.
    Returns (w, code), both new: pair welfare as float64, and as uint8 the
    pair's outcome code unsafe + 2 nhot + 6 ntest + 18 ndisc (0-53), where
    unsafe is 1 for a pair that plays unsafe and nhot, ntest and ndisc count
    its hot players, testing A players and discriminating B players (0-2).
    """
    p, stigma, n = params, row.S, n_pairs
    beta_star = hot_threshold(p.u, row.gap)
    cutoff = rejection_cutoff(p, row.tau_hat)
    golden = getattr(_local, "golden", None)  # 3 i GOLDEN for i < n, kept across calls
    if golden is None or len(golden) < n:
        golden = _local.golden = np.arange(n, dtype=np.uint64) * np.uint64(3 * _GOLDEN % 2**64)
    b1, b2, ya1, ya2, yb1, yb2, tmp, spare = f64 = _rows("f64", float, 8, n)
    hot1, hot2, unsafe, t1, t2, d1, d2, m = bools = _rows("bool", bool, 8, n)

    # rows 2j and 2j + 1 (draws, one contiguous view) take the low and high halves
    # of counter 3 (first_pair + i) + j's output, keyed as seed + (counter + 1)
    # GOLDEN mod 2**64, hashed in tmp's row with spare's as the shift scratch. One
    # inverse-CDF call maps both rows, gathering into tmp and spare, flags in hot1, hot2
    z, shift = tmp.view(np.uint64), spare.view(np.uint64)
    scratch = f64[6:].reshape(-1), bools[:2].reshape(-1)
    for j, (draws, table) in enumerate(zip(f64[:6].reshape(3, -1), (beta_cdf, y_cdf, y_cdf))):
        key = np.array(((3 * first_pair + j + 1) * _GOLDEN + seed) % 2**64, np.uint64)
        np.add(golden[:n], key, out=z)
        for s, mix in ((_S30, _MIX1), (_S27, _MIX2)):
            np.bitwise_xor(z, np.right_shift(z, s, out=shift), out=z)
            np.multiply(z, mix, out=z)
        np.bitwise_xor(z, np.right_shift(z, _S31, out=shift), out=z)
        np.multiply(z.view(np.uint32)[_LOW::2], _INV32, out=draws[:n])
        np.multiply(z.view(np.uint32)[_HIGH::2], _INV32, out=draws[n:])
        ppf_from_knots(draws, table, out=draws, scratch=scratch)

    np.less(f64[:2], beta_star, out=bools[:2])  # hot1, hot2
    # unsafe iff b1 + b2 < 2 beta*, the mixed pairs' rule: cold pairs add, rounded,
    # to >= 2 beta* (exact or inf), and hot pairs, each draw <= prev(beta*) and,
    # like every knot, far below 2**1023, to a finite sum <= 2 prev(beta*) < 2 beta*
    np.less(np.add(b1, b2, out=tmp), 2.0 * beta_star, out=unsafe)

    # a player tests iff unsafe and S y_a < theta_H v - c (a - b > 0 iff b < a in
    # floats): assumption 1 puts theta_L v - c below 0 <= S y_a, so safe pairs never
    # test. ua = pay1 + t (theta v - c) - theta c_h + m y_a less its last term, as a
    # table by 2 unsafe + t, each value in the per-pair expression's operation order
    theta, pay1 = (p.theta_L, p.theta_H), (p.M - p.u, p.M)
    gain = [x * p.v - p.c for x in theta]
    base = np.array([pay1[i // 2] + (i % 2) * gain[i // 2] - theta[i // 2] * p.c_h for i in range(4)])
    # 2 unsafe, and index 2 unsafe + t, in the beta draws' rows, no longer needed
    twice, index = b1.view(np.intp), b2.view(np.intp)
    np.copyto(twice, unsafe)
    np.add(twice, twice, out=twice)
    w, ua2 = np.empty(n), spare  # w holds ua1 until ua2 is added
    for t, d, ya, yb, ua in ((t1, d1, ya1, yb1, w), (t2, d2, ya2, yb2, ua2)):
        # t: tests; d: y_b below the cutoff; m: not (d and t), then as floats in tmp
        np.less(np.multiply(stigma, ya, out=tmp), gain[1], out=t)
        np.logical_and(t, unsafe, out=t)
        np.less(yb, cutoff, out=d)
        np.logical_not(np.logical_and(d, t, out=m), out=m)
        base.take(np.add(twice, t, out=index), out=ua, mode="clip")  # "raise" would copy
        np.add(ua, np.multiply(_floats(m, tmp), ya, out=ya), out=ua)
        if not literal_b:  # ub = m y_b, from the same float row
            np.multiply(tmp, yb, out=yb)

    # w = 0.5 (ua1 + ua2 + ub1 + ub2); ub, in yb, or literally (t if d else 1) y_b
    np.add(w, ua2, out=w)
    for t, d, yb in ((t1, d1, yb1), (t2, d2, yb2)):
        if literal_b:
            accepts = np.logical_or(np.logical_not(d, out=m), t, out=m)
            yb = np.multiply(_floats(accepts, tmp), yb, out=tmp)
        np.add(w, yb, out=w)
    np.multiply(w, 0.5, out=w)

    # code = ((ndisc 3 + ntest) 3 + nhot) 2 + unsafe, each count a sum of two bool rows
    code = np.add(d1.view(np.uint8), d2.view(np.uint8))
    for radix, flags in ((3, (t1, t2)), (3, (hot1, hot2)), (2, (unsafe,))):
        np.multiply(code, radix, out=code)
        for flag in flags:
            np.add(code, flag.view(np.uint8), out=code)
    return w, code
