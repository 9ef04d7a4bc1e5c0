"""Agent-based cross-check of the analytic chain.

Finite populations are pushed through both periods using only the
pair-level decision rules: draw present bias for 2*n_pairs players, settle
each pair's coordination (the hot threshold beta* is the single analytic
input), assign risk types, then draw valuations and play out testing and
interaction. Per-capita experience utility (bias weight 1) estimates W.

Payoffs are expected values in the risk type; actual infection status never
enters the utility calculus, so sampling it would only add variance.
Matching is one B partner per A player.

Results are deterministic for a fixed (params, seed, n_pairs): pairs own
counter-derived substreams, keyed on their global index. The pairs stream
through the kernel in fixed chunks of CHUNK, each reduced at once to
sufficient statistics (pairs per outcome code by one np.bincount, and
the welfare sum and centred sum of squares), merged in chunk order.
Memory therefore does not grow with n_pairs, and a smaller run is a
prefix of a larger one.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .coordination import hot_threshold
from .signaling import ModelParams, _Checked, policy_state
# unused here; perfbench/tracer.py patches these names, so they must still resolve
from .coordination import period1_outcome  # noqa: F401
from .signaling import continuation_values, stigma_level  # noqa: F401
from .welfare import CONVENTIONS, _require_preconditions, evaluate_point

__all__ = [
    "SimConfig",
    "SimResult",
    "PairCounts",
    "Estimates",
    "simulate",
    "analytic_targets",
]

CHUNK = 2**14  # pairs per kernel call; bounds the per-pair arrays held at once
CODES = 54  # pair outcome codes unsafe + 2 nhot + 6 ntest + 18 ndisc of the kernel


def _decode(code: int) -> tuple[int, int, int, int]:
    """(unsafe, nhot, ntest, ndisc) of a pair outcome code."""
    return code % 2, code // 2 % 3, code // 6 % 3, code // 18


class _SimConfig(NamedTuple):
    n_pairs: int
    seed: int
    tau_hat: float
    convention: str = "corrected"


class SimConfig(_Checked, _SimConfig):
    __slots__ = ()

    def _validate(self):
        # exactly int: a float seed keys other streams, and bool is no count
        if type(self.n_pairs) is not int or self.n_pairs < 1:
            raise ValueError(f"n_pairs must be an int >= 1, got {self.n_pairs!r}")
        if type(self.seed) is not int or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an int in [0, 2**64), got {self.seed!r}")
        if not 0.0 <= self.tau_hat <= 1.0:
            raise ValueError(f"tau_hat must lie in [0, 1], got {self.tau_hat!r}")
        if self.convention not in CONVENTIONS:
            raise ValueError(f"convention must be one of {CONVENTIONS}")


class PairCounts(NamedTuple):
    hot_hot: int
    cold_cold: int
    hot_cold_unsafe: int
    hot_cold_safe: int


class Estimates(NamedTuple):
    """One value per estimated quantity, in report order; each name is also
    the SweepRow field that holds its analytic target."""

    r: float
    R: float
    R_H: float
    S: float
    W: float


class SimResult(NamedTuple):
    """Empirical rates and welfare (hat) with standard errors (stderr) and
    pair taxonomy.

    Rate standard errors are binomial over their sampling unit (pairs for
    r, B players for S, high-risk players for R_H); R and W use the
    between-pair standard deviation, which absorbs the within-pair
    correlation induced by the shared coordination outcome.
    """

    n_pairs: int
    hat: Estimates
    stderr: Estimates
    counts: PairCounts


def _binom_se(p: float, n: int) -> float:
    if n <= 0:
        return math.nan
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def simulate(params: ModelParams, config: SimConfig) -> SimResult:
    """Run one finite-population replication and reduce it to a SimResult."""
    # numpy loads here, on the first simulation, and not with the package
    import numpy as np

    from . import _kernels

    _require_preconditions(params, config.convention)
    n, p = config.n_pairs, params
    bound = p.M + p.u + p.v + p.c + p.c_h + 2.0 * p.dist_y.support_hi  # of every pair's |w|
    if not 4.0 * bound * bound * n < math.inf:  # so the sums and squares below stay finite
        raise ValueError(f"pair welfare up to {bound:.3g} overflows a float over {n} pairs")
    state = policy_state(params, config.tau_hat)
    beta_star = hot_threshold(params.u, state.gap)
    literal_b = config.convention == "paper_literal"
    cdfs = [_kernels.knot_arrays(d) for d in (params.dist_beta, params.dist_y)]

    tally = np.zeros(CODES, dtype=np.int64)  # pairs per outcome code
    w_sums = []
    w_run = 0.0  # plain running sum; it only scales the merge's correction
    w_m2 = 0.0
    for first in range(0, n, CHUNK):
        m = min(CHUNK, n - first)
        w, code = _kernels.simulate_pairs(config.seed, first, m, state, beta_star, literal_b, *cdfs)
        # Chan, Golub & LeVeque (1979): add the chunk's centred sum of squares
        # (in place on w, a new array) plus the shift between the two means
        w_sum = float(np.sum(w))
        w -= w_sum / m
        w *= w
        w_m2 += float(np.sum(w))
        if first:
            delta = w_sum / m - w_run / first
            w_m2 += delta * delta * first * m / (first + m)
        w_sums.append(w_sum)
        w_run += w_sum
        # np.bincount counts intp; the codes take w's spent bytes as intp, not
        # a new 8 B/pair copy that would page-fault on every call
        codes = w.view(np.intp)
        np.copyto(codes, code)
        tally += np.bincount(codes, minlength=CODES)

    # exact integer counts: pairs by nhot and by ntest, unsafe pairs (also
    # the mixed ones among them) and discriminating B players
    by_hot, by_tests = [0, 0, 0], [0, 0, 0]
    n_unsafe = mixed_unsafe = disclosures = 0
    for c, pairs in enumerate(tally.tolist()):
        unsafe, nhot, ntest, ndisc = _decode(c)
        by_hot[nhot] += pairs
        by_tests[ntest] += pairs
        n_unsafe += unsafe * pairs
        mixed_unsafe += unsafe * (nhot == 1) * pairs
        disclosures += ndisc * pairs

    agents = 2 * n
    r_hat = n_unsafe / n
    one, two = by_tests[1], by_tests[2]
    tests_total = one + 2 * two
    r_pop_hat = tests_total / agents
    # only high-risk players test (assumption 1 with y >= 0), and those are
    # the players of unsafe pairs
    n_high_agents = 2 * n_unsafe
    r_h_hat = tests_total / n_high_agents if n_high_agents else math.nan
    s_hat = disclosures / agents
    w_hat = math.fsum(w_sums) / n

    if n > 1:
        # per-pair test share x = ntest / 2: sample variance of x from the
        # exact integer sums of ntest and ntest**2
        tests_sq = n * (one + 4 * two) - tests_total**2
        se_r_pop = math.sqrt(tests_sq / (4 * n * (n - 1))) / math.sqrt(n)
        se_w = math.sqrt(w_m2 / (n - 1)) / math.sqrt(n)
    else:
        se_r_pop = se_w = math.nan
    return SimResult(
        n_pairs=n,
        hat=Estimates(r_hat, r_pop_hat, r_h_hat, s_hat, w_hat),
        stderr=Estimates(
            r=_binom_se(r_hat, n),
            R=se_r_pop,
            R_H=_binom_se(r_h_hat, n_high_agents),
            S=_binom_se(s_hat, agents),
            W=se_w,
        ),
        counts=PairCounts(
            hot_hot=by_hot[2],
            cold_cold=by_hot[0],
            hot_cold_unsafe=mixed_unsafe,
            hot_cold_safe=by_hot[1] - mixed_unsafe,
        ),
    )


def analytic_targets(
    params: ModelParams, tau_hat: float, convention: str = "corrected"
) -> Estimates:
    """Model-chain values the simulation estimates."""
    row = evaluate_point(params, tau_hat, convention)
    return Estimates(row.r, row.R, row.R_H, row.S, row.W)
