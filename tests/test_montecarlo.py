import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from stigmagame import (
    Estimates,
    SimConfig,
    analytic_targets,
    convergence_report,
    evaluate_point,
    simulate,
)
from stigmagame import _kernels
from stigmagame.cli import load_config
from stigmagame.montecarlo import CHUNK, PairCounts

from conftest import PIECEWISE_CFG

class TestConfigValidation:
    def test_zero_pairs_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(n_pairs=0, seed=1, tau_hat=0.5)

    def test_bad_convention_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(n_pairs=10, seed=1, tau_hat=0.5, convention="folk")

    def test_tau_range(self):
        with pytest.raises(ValueError):
            SimConfig(n_pairs=10, seed=1, tau_hat=-0.1)


class TestDeterminism:
    def test_identical_runs_identical_results(self, paper_params):
        cfg = SimConfig(n_pairs=50_000, seed=123, tau_hat=0.5)
        assert simulate(paper_params, cfg) == simulate(paper_params, cfg)

    def test_seed_changes_results(self, paper_params):
        a = simulate(paper_params, SimConfig(n_pairs=50_000, seed=1, tau_hat=0.5))
        b = simulate(paper_params, SimConfig(n_pairs=50_000, seed=2, tau_hat=0.5))
        assert a.hat.W != b.hat.W


# SimResult of the 33-knot piecewise beta and y config at seed 41 and
# 3 * CHUNK + 5 pairs: hat and stderr as hex floats, then hot_hot,
# cold_cold, hot_cold_unsafe, hot_cold_safe, low_risk_tests and
# untested_rejections
PIECEWISE_GOLDEN = {
    ("corrected", 0.3): (
        ("0x1.7ac0336a54f97p-3", "0x1.2950bb241d6e8p-4", "0x1.91ea21d63185ep-2", "0x1.54231e70229a7p-2", "0x1.5a4faeaf02562p+1"),
        ("0x1.cb0fd6026f4efp-11", "0x1.f7e0b67621e6ep-12", "0x1.daad86608f43ep-10", "0x1.89c93ed9571dfp-11", "0x1.5e8e264ff0396p-10"),
        (18626, 94353, 17735, 65899, 0, 0),
    ),
    ("corrected", 0.85): (
        ("0x1.2273713f98960p-3", "0x1.963d5aef131c3p-6", "0x1.660e074571bbap-3", "0x1.c097145988c02p-1", "0x1.593174607be86p+1"),
        ("0x1.9c8001725619ap-11", "0x1.17efba506d098p-12", "0x1.a5a08836732e2p-10", "0x1.136957a943588p-11", "0x1.653117c9d8ca9p-10"),
        (13938, 105856, 13946, 62873, 0, 0),
    ),
    ("paper_literal", 0.3): (
        ("0x1.7ac0336a54f97p-3", "0x1.2950bb241d6e8p-4", "0x1.91ea21d63185ep-2", "0x1.54231e70229a7p-2", "0x1.50015bfaf5031p+1"),
        ("0x1.cb0fd6026f4efp-11", "0x1.f7e0b67621e6ep-12", "0x1.daad86608f43ep-10", "0x1.89c93ed9571dfp-11", "0x1.7481719d78cddp-10"),
        (18626, 94353, 17735, 65899, 0, 0),
    ),
    ("paper_literal", 0.85): (
        ("0x1.2273713f98960p-3", "0x1.963d5aef131c3p-6", "0x1.660e074571bbap-3", "0x1.c097145988c02p-1", "0x1.ff3cbe235d8e5p+0"),
        ("0x1.9c8001725619ap-11", "0x1.17efba506d098p-12", "0x1.a5a08836732e2p-10", "0x1.136957a943588p-11", "0x1.57c32594d8d60p-10"),
        (13938, 105856, 13946, 62873, 0, 0),
    ),
}


@pytest.mark.parametrize("convention, tau", sorted(PIECEWISE_GOLDEN))
def test_piecewise_results_are_pinned(convention, tau):
    hat, stderr, counts = PIECEWISE_GOLDEN[convention, tau]
    cfg = SimConfig(n_pairs=3 * CHUNK + 5, seed=41, tau_hat=tau, convention=convention)
    res = simulate(load_config(PIECEWISE_CFG).params, cfg)
    assert tuple(x.hex() for x in res.hat) == hat
    assert tuple(x.hex() for x in res.stderr) == stderr
    c = res.counts
    assert (c.hot_hot, c.cold_cold, c.hot_cold_unsafe, c.hot_cold_safe,
            res.low_risk_tests, res.untested_rejections) == counts


def run_recording_kernel(monkeypatch, params, cfg):
    """simulate() plus the argument tuples of its kernel calls."""
    kernel = _kernels.simulate_pairs
    calls = []

    def recording(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(_kernels, "simulate_pairs", recording)
    res = simulate(params, cfg)
    monkeypatch.setattr(_kernels, "simulate_pairs", kernel)
    return res, calls


def whole_array_stats(w, unsafe, nhot, ntest, ndisc, nlow, nrej):
    """The reductions over per-pair arrays of the whole run at once."""
    n = len(w)
    unsafe_b = unsafe.astype(bool)
    mixed = nhot == 1
    tests = int(np.sum(ntest))
    low = int(np.sum(nlow))
    return {
        "counts": PairCounts(
            hot_hot=int(np.sum(nhot == 2)),
            cold_cold=int(np.sum(nhot == 0)),
            hot_cold_unsafe=int(np.sum(mixed & unsafe_b)),
            hot_cold_safe=int(np.sum(mixed & ~unsafe_b)),
        ),
        "hat": Estimates(
            r=int(np.sum(unsafe_b)) / n,
            R=tests / (2 * n),
            R_H=(tests - low) / (2 * int(np.sum(unsafe_b))),
            S=int(np.sum(ndisc)) / (2 * n),
            W=float(np.sum(w)) / n,
        ),
        "low_risk_tests": low,
        "untested_rejections": int(np.sum(nrej)),
        "se_W": float(np.std(w, ddof=1)) / math.sqrt(n),
        "se_R": float(np.std(ntest * 0.5, ddof=1)) / math.sqrt(n),
    }


class TestStreaming:
    @pytest.mark.parametrize(
        "n", [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5]
    )
    def test_chunked_reduction_matches_whole_array(self, paper_params, monkeypatch, n):
        cfg = SimConfig(n_pairs=n, seed=31, tau_hat=0.4, convention="paper_literal")
        res, calls = run_recording_kernel(monkeypatch, paper_params, cfg)
        assert [(c[1], c[2]) for c in calls] == [
            (first, min(CHUNK, n - first)) for first in range(0, n, CHUNK)
        ]
        seed, _, _, *model = calls[0]
        ref = whole_array_stats(*_kernels.simulate_pairs(seed, 0, n, *model))
        assert res.counts == ref["counts"]
        assert {type(c) for c in vars(res.counts).values()} == {int}
        for key in ("r", "R", "R_H", "S"):
            assert getattr(res.hat, key) == getattr(ref["hat"], key), key
        for key in ("low_risk_tests", "untested_rejections"):
            assert getattr(res, key) == ref[key], key
        assert res.hat.W == pytest.approx(ref["hat"].W, rel=1e-12, abs=0.0)
        assert res.stderr.W == pytest.approx(ref["se_W"], rel=1e-12, abs=0.0)
        assert res.stderr.R == pytest.approx(ref["se_R"], rel=1e-12, abs=0.0)

    def test_shorter_run_is_prefix_of_longer(self, paper_params, monkeypatch):
        n = CHUNK + 7
        cfg = SimConfig(n_pairs=n, seed=8, tau_hat=0.5)
        _, calls = run_recording_kernel(monkeypatch, paper_params, cfg)
        seed, _, _, *model = calls[0]
        short = _kernels.simulate_pairs(seed, 0, n, *model)
        longer = _kernels.simulate_pairs(seed, 0, n + CHUNK, *model)
        tail = _kernels.simulate_pairs(seed, n, CHUNK, *model)
        for a, b, c in zip(short, longer, tail):
            assert np.array_equal(b[:n], a)
            assert np.array_equal(b[n:], c)

    def test_peak_memory_does_not_grow_with_pairs(self, paper_params):
        mib = 2**20
        peaks = []
        for n in (2**20, 2**21):
            tracemalloc.start()
            try:
                simulate(paper_params, SimConfig(n_pairs=n, seed=2, tau_hat=0.5))
                peaks.append(tracemalloc.get_traced_memory()[1] / mib)
            finally:
                tracemalloc.stop()
        assert peaks[0] < 24.0
        assert abs(peaks[1] - peaks[0]) < 2.0


class TestAgainstAnalyticChain:
    def test_three_sigma_agreement(self, paper_params):
        for tau in (0.0, 0.5, 1.0):
            cfg = SimConfig(n_pairs=100_000, seed=20240810, tau_hat=tau)
            res = simulate(paper_params, cfg)
            targets = analytic_targets(paper_params, tau)
            for key in ("r", "R", "R_H", "W"):
                gap = abs(getattr(res.hat, key) - getattr(targets, key))
                assert gap <= 3.0 * getattr(res.stderr, key) + 1e-12, key

    def test_zero_policy_exact_acceptance(self, paper_params):
        res = simulate(paper_params, SimConfig(n_pairs=20_000, seed=3, tau_hat=0.0))
        assert res.hat.S == 0.0
        assert res.untested_rejections == 0
        assert res.hat.R_H == 1.0  # every high-risk player tests when S = 0

    def test_full_policy_full_stigma(self, paper_params):
        res = simulate(paper_params, SimConfig(n_pairs=20_000, seed=3, tau_hat=1.0))
        assert res.hat.S == 1.0

    def test_low_risk_players_never_test(self, paper_params):
        for seed in (1, 7, 42):
            res = simulate(
                paper_params, SimConfig(n_pairs=50_000, seed=seed, tau_hat=0.6)
            )
            assert res.low_risk_tests == 0

    def test_untested_always_accepted(self, paper_params):
        for tau in (0.3, 0.8):
            res = simulate(
                paper_params, SimConfig(n_pairs=50_000, seed=11, tau_hat=tau)
            )
            assert res.untested_rejections == 0

    def test_all_unsafe_regime_exact(self, paper_params):
        res = simulate(
            replace(paper_params, u=1.0),
            SimConfig(n_pairs=20_000, seed=9, tau_hat=0.5),
        )
        assert res.hat.r == 1.0
        assert res.counts.hot_hot == 20_000

    def test_count_identity(self, paper_params):
        res = simulate(paper_params, SimConfig(n_pairs=40_000, seed=21, tau_hat=0.5))
        c = res.counts
        n = res.n_pairs
        assert c.hot_hot + c.cold_cold + c.hot_cold_unsafe + c.hot_cold_safe == n
        assert res.hat.r == (2 * c.hot_hot + 2 * c.hot_cold_unsafe) / (2 * n)

    def test_literal_convention_shifts_b_payoffs(self, paper_params):
        cfg_c = SimConfig(n_pairs=50_000, seed=4, tau_hat=0.5, convention="corrected")
        cfg_l = SimConfig(
            n_pairs=50_000, seed=4, tau_hat=0.5, convention="paper_literal"
        )
        res_c = simulate(paper_params, cfg_c)
        res_l = simulate(paper_params, cfg_l)
        tgt_c = analytic_targets(paper_params, 0.5, "corrected")
        tgt_l = analytic_targets(paper_params, 0.5, "paper_literal")
        assert abs(res_c.hat.W - tgt_c.W) <= 3.0 * res_c.stderr.W
        assert abs(res_l.hat.W - tgt_l.W) <= 3.0 * res_l.stderr.W
        assert res_c.hat.W > res_l.hat.W  # corrected credits non-rejected meetings


class TestTargets:
    def test_targets_match_sweep_row(self, paper_params):
        row = evaluate_point(paper_params, 0.5)
        tgt = analytic_targets(paper_params, 0.5)
        want = {"r": row.r, "R": row.R, "R_H": row.R_H, "S": row.S, "W": row.W}
        assert tgt._asdict() == want


class TestConvergence:
    def test_errors_shrink_and_targets_fixed(self, paper_params):
        cfg = SimConfig(n_pairs=1, seed=20240810, tau_hat=0.5)
        rows = convergence_report(paper_params, cfg, [1_000, 10_000, 100_000])
        ses = [row.stderrs.r for row in rows]
        assert ses[0] > ses[1] > ses[2]
        for row in rows:
            assert row.targets == rows[0].targets
            for key in ("r", "R", "W"):
                assert getattr(row.gaps, key) <= 4.0 * getattr(row.stderrs, key)

    def test_batch_sizes_must_increase(self, paper_params):
        cfg = SimConfig(n_pairs=1, seed=1, tau_hat=0.5)
        with pytest.raises(ValueError):
            convergence_report(paper_params, cfg, [100, 100])

    def test_large_batches_usually_closer(self, paper_params):
        # root-N convergence along one sample path, replicated over seeds
        closer = 0
        n_seeds = 50
        for seed in range(n_seeds):
            cfg = SimConfig(n_pairs=1, seed=seed, tau_hat=0.5)
            rows = convergence_report(paper_params, cfg, [1_000, 100_000])
            if rows[1].gaps.W <= rows[0].gaps.W:
                closer += 1
        assert closer >= 0.9 * n_seeds
