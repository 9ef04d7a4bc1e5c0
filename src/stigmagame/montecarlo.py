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
sufficient statistics (exact integer counts, and the welfare sum and
centred sum of squares), merged in chunk order. Memory therefore does not
grow with n_pairs, and a smaller run is a prefix of a larger one.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import NamedTuple

from .coordination import hot_threshold
from .signaling import ModelParams, policy_state
# unused here; perfbench/tracer.py patches these names, so they must still resolve
from .coordination import period1_outcome  # noqa: F401
from .signaling import continuation_values, stigma_level  # noqa: F401
from .welfare import CONVENTIONS, evaluate_point

__all__ = [
    "SimConfig",
    "SimResult",
    "PairCounts",
    "Estimates",
    "ConvergenceRow",
    "simulate",
    "convergence_report",
    "analytic_targets",
]

CHUNK = 2**16  # pairs per kernel call; bounds the per-pair arrays held at once


@dataclass(frozen=True)
class SimConfig:
    n_pairs: int
    seed: int
    tau_hat: float
    convention: str = "corrected"

    def __post_init__(self):
        if self.n_pairs < 1:
            raise ValueError(f"n_pairs must be >= 1, got {self.n_pairs!r}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if not 0.0 <= self.tau_hat <= 1.0:
            raise ValueError(f"tau_hat must lie in [0, 1], got {self.tau_hat!r}")
        if self.convention not in CONVENTIONS:
            raise ValueError(f"convention must be one of {CONVENTIONS}")


@dataclass(frozen=True)
class PairCounts:
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


@dataclass(frozen=True)
class SimResult:
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
    low_risk_tests: int
    untested_rejections: int


def _binom_se(p: float, n: int) -> float:
    if n <= 0:
        return math.nan
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def simulate(params: ModelParams, config: SimConfig) -> SimResult:
    """Run one finite-population replication and reduce it to a SimResult."""
    # numpy loads here, on the first simulation, and not with the package
    import numpy as np

    from . import _kernels

    def count(mask) -> int:
        return int(np.count_nonzero(mask))

    state = policy_state(params, config.tau_hat)
    beta_star = hot_threshold(state.params.u, state.gap)
    literal_b = config.convention == "paper_literal"
    cdfs = [_kernels.knot_arrays(d) for d in (state.params.dist_beta, state.params.dist_y)]

    n = config.n_pairs
    tally = Counter()
    w_sums = []
    w_m2 = 0.0
    for first in range(0, n, CHUNK):
        m = min(CHUNK, n - first)
        w, unsafe, nhot, ntest, ndisc, nlow, nrej = _kernels.simulate_pairs(
            config.seed, first, m, state, beta_star, literal_b, *cdfs
        )
        unsafe_b = unsafe.astype(bool)
        mixed = nhot == 1
        tally.update(
            hot_hot=count(nhot == 2),
            cold_cold=count(nhot == 0),
            hot_cold_unsafe=count(mixed & unsafe_b),
            hot_cold_safe=count(mixed & ~unsafe_b),
            unsafe=count(unsafe_b),
            one_test=count(ntest == 1),
            two_tests=count(ntest == 2),
            low_tests=int(np.sum(nlow)),
            disclosures=int(np.sum(ndisc)),
            untested_rejections=int(np.sum(nrej)),
        )
        # Chan, Golub & LeVeque (1979): add the chunk's centred sum of
        # squares plus the shift between its mean and the running mean
        w_sum = float(np.sum(w))
        dev = w - w_sum / m
        w_m2 += float(np.sum(dev * dev))
        if first:
            delta = w_sum / m - math.fsum(w_sums) / first
            w_m2 += delta * delta * first * m / (first + m)
        w_sums.append(w_sum)

    agents = 2 * n
    n_unsafe = tally["unsafe"]
    r_hat = n_unsafe / n
    one, two = tally["one_test"], tally["two_tests"]
    tests_total = one + 2 * two
    low_tests = tally["low_tests"]
    r_pop_hat = tests_total / agents
    n_high_agents = 2 * n_unsafe
    high_tests = tests_total - low_tests
    r_h_hat = high_tests / n_high_agents if n_high_agents else math.nan
    s_hat = tally["disclosures"] / agents
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
            hot_hot=tally["hot_hot"],
            cold_cold=tally["cold_cold"],
            hot_cold_unsafe=tally["hot_cold_unsafe"],
            hot_cold_safe=tally["hot_cold_safe"],
        ),
        low_risk_tests=low_tests,
        untested_rejections=tally["untested_rejections"],
    )


def analytic_targets(
    params: ModelParams, tau_hat: float, convention: str = "corrected"
) -> Estimates:
    """Model-chain values the simulation estimates."""
    row = evaluate_point(params, tau_hat, convention)
    return Estimates(row.r, row.R, row.R_H, row.S, row.W)


@dataclass(frozen=True)
class ConvergenceRow:
    n_pairs: int
    estimates: Estimates
    stderrs: Estimates
    gaps: Estimates
    targets: Estimates


def convergence_report(
    params: ModelParams, config: SimConfig, batch_sizes
) -> list[ConvergenceRow]:
    """Re-run the simulation at increasing sizes against fixed targets.

    Batches share the master seed, so smaller batches are prefixes of
    larger ones and the estimate sequence converges along one sample path.
    """
    sizes = [int(b) for b in batch_sizes]
    if any(b2 <= b1 for b1, b2 in zip(sizes, sizes[1:])):
        raise ValueError("batch sizes must be strictly increasing")
    targets = analytic_targets(params, config.tau_hat, config.convention)
    rows = []
    for size in sizes:
        res = simulate(params, replace(config, n_pairs=size))
        gaps = Estimates(*(abs(e - t) for e, t in zip(res.hat, targets)))
        rows.append(ConvergenceRow(size, res.hat, res.stderr, gaps, targets))
    return rows
