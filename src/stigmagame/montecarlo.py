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

import numpy as np

from . import _kernels
from .coordination import hot_threshold
from .distributions import knot_arrays
from .signaling import ModelParams, policy_state
# unused here; perfbench/tracer.py patches these names, so they must still resolve
from .coordination import period1_outcome  # noqa: F401
from .signaling import continuation_values, stigma_level  # noqa: F401
from .welfare import CONVENTIONS, evaluate_point

__all__ = [
    "SimConfig",
    "SimResult",
    "PairCounts",
    "StatErrors",
    "ConvergenceRow",
    "ESTIMATES",
    "simulate",
    "convergence_report",
    "analytic_targets",
]

CHUNK = 2**16  # pairs per kernel call; bounds the per-pair arrays held at once
# the estimated quantities, in report order: SimResult.<name>_hat,
# StatErrors.<name> and the SweepRow field of the analytic target
ESTIMATES = ("r", "R", "R_H", "S", "W")


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


@dataclass(frozen=True)
class StatErrors:
    r: float
    R: float
    R_H: float
    S: float
    W: float


@dataclass(frozen=True)
class SimResult:
    """Empirical rates and welfare with standard errors and pair taxonomy.

    Rate standard errors are binomial over their sampling unit (pairs for
    r, B players for S, high-risk players for R_H); R and W use the
    between-pair standard deviation, which absorbs the within-pair
    correlation induced by the shared coordination outcome.
    """

    n_pairs: int
    r_hat: float
    R_hat: float
    R_H_hat: float
    S_hat: float
    W_hat: float
    stderr: StatErrors
    counts: PairCounts
    low_risk_tests: int
    untested_rejections: int


def _count(mask: np.ndarray) -> int:
    return int(np.count_nonzero(mask))


def _binom_se(p: float, n: int) -> float:
    if n <= 0:
        return math.nan
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def simulate(params: ModelParams, config: SimConfig) -> SimResult:
    """Run one finite-population replication and reduce it to a SimResult."""
    state = policy_state(params, config.tau_hat)
    p, s = state.params, state.S
    beta_star = hot_threshold(p.u, state.gap)
    cutoff = p.tau_hat * p.theta_H * p.z
    beta_xs, beta_ps = knot_arrays(p.dist_beta)
    y_xs, y_ps = knot_arrays(p.dist_y)
    model = (
        beta_star,
        s,
        cutoff,
        p.theta_L,
        p.theta_H,
        p.v,
        p.c,
        p.c_h,
        p.M,
        p.u,
        beta_xs,
        beta_ps,
        y_xs,
        y_ps,
        config.convention == "paper_literal",
    )

    n = config.n_pairs
    tally = Counter()
    w_sums = []
    w_m2 = 0.0
    for first in range(0, n, CHUNK):
        m = min(CHUNK, n - first)
        w, unsafe, nhot, ntest, ndisc, nlow, nrej = _kernels.simulate_pairs(
            config.seed, first, m, *model
        )
        unsafe_b = unsafe.astype(bool)
        mixed = nhot == 1
        tally.update(
            hot_hot=_count(nhot == 2),
            cold_cold=_count(nhot == 0),
            hot_cold_unsafe=_count(mixed & unsafe_b),
            hot_cold_safe=_count(mixed & ~unsafe_b),
            unsafe=_count(unsafe_b),
            one_test=_count(ntest == 1),
            two_tests=_count(ntest == 2),
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
    errors = StatErrors(
        r=_binom_se(r_hat, n),
        R=se_r_pop,
        R_H=_binom_se(r_h_hat, n_high_agents) if n_high_agents else math.nan,
        S=_binom_se(s_hat, agents),
        W=se_w,
    )
    return SimResult(
        n_pairs=n,
        r_hat=r_hat,
        R_hat=r_pop_hat,
        R_H_hat=r_h_hat,
        S_hat=s_hat,
        W_hat=w_hat,
        stderr=errors,
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
) -> dict[str, float]:
    """Model-chain values the simulation estimates: r, R, R_H, S, W."""
    row = evaluate_point(params, tau_hat, convention)
    return {name: getattr(row, name) for name in ESTIMATES}


@dataclass(frozen=True)
class ConvergenceRow:
    n_pairs: int
    estimates: dict[str, float]
    stderrs: dict[str, float]
    gaps: dict[str, float]
    targets: dict[str, float]


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
        est = {name: getattr(res, f"{name}_hat") for name in ESTIMATES}
        ses = {name: getattr(res.stderr, name) for name in ESTIMATES}
        gaps = {k: abs(est[k] - targets[k]) for k in est}
        rows.append(
            ConvergenceRow(
                n_pairs=size, estimates=est, stderrs=ses, gaps=gaps, targets=targets
            )
        )
    return rows
