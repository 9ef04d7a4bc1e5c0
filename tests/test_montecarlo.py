import itertools
import math
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from stigmagame import (
    AssumptionViolation,
    Estimates,
    analytic_targets,
    evaluate_point,
    simulate,
)
from stigmagame import _kernels
from stigmagame.cli import load_config
from stigmagame.montecarlo import CHUNK, CODES, PairCounts
from stigmagame.signaling import policy_state, rejection_cutoff

from conftest import (
    BETA_ABOVE_ONE_CFG,
    PAPER_CFG,
    PIECEWISE_CFG,
    best_response_interact,
    best_response_test,
    simulate_pairs_reference,
    src_env,
)


def simulate_with(params, **changes):
    """simulate at tau_hat 0.5, 10 pairs and seed 1, less the given changes."""
    return simulate(params, **{"tau_hat": 0.5, "n_pairs": 10, "seed": 1, **changes})


# the two checks simulate runs itself; tau_hat and the convention are checked
# by policy_state and _require_preconditions, as for evaluate_point
INT_MESSAGES = {
    "n_pairs": "n_pairs must be an int >= 1",
    "seed": "seed must be an int in [0, 2**64)",
}


class TestConfigValidation:
    """simulate's run arguments; the parameters are checked by ModelParams."""

    def test_zero_pairs_rejected(self, paper_params):
        with pytest.raises(ValueError) as err:
            simulate_with(paper_params, n_pairs=0)
        assert str(err.value) == "n_pairs must be an int >= 1, got 0"

    def test_bad_convention_rejected(self, paper_params):
        with pytest.raises(ValueError) as err:
            simulate_with(paper_params, convention="folk")
        assert str(err.value) == (
            "convention must be one of ('corrected', 'paper_literal'), got 'folk'"
        )

    def test_tau_range(self, paper_params):
        with pytest.raises(ValueError) as err:
            simulate_with(paper_params, tau_hat=-0.1)
        assert str(err.value) == "tau_hat must lie in [0, 1], got -0.1"

    @pytest.mark.parametrize(
        "field, value",
        [("seed", 1.0), ("seed", 1.5), ("seed", True), ("n_pairs", 1000.0), ("n_pairs", True)],
    )
    def test_non_int_seed_and_pairs_rejected(self, paper_params, field, value):
        # a float seed used to pass and key other streams than its int (W 2.6597
        # at seed 1.0 and at 1.5, 2.6206 at seed 1, paper.cfg, 1000 pairs), and
        # a float n_pairs failed later inside range()
        with pytest.raises(ValueError) as err:
            simulate_with(paper_params, **{field: value})
        assert str(err.value) == f"{INT_MESSAGES[field]}, got {value!r}"

    def test_rejects_what_evaluate_point_rejects(self, paper_params):
        params = paper_params._replace(c_h=0.3)
        with pytest.raises(AssumptionViolation):
            evaluate_point(params, 0.5)
        with pytest.raises(AssumptionViolation):
            simulate(params, 0.5, 10_000, 1)


class TestDeterminism:
    def test_identical_runs_identical_results(self, paper_params):
        run = (paper_params, 0.5, 50_000, 123)
        assert simulate(*run) == simulate(*run)

    def test_seed_changes_results(self, paper_params):
        a = simulate(paper_params, 0.5, 50_000, 1)
        b = simulate(paper_params, 0.5, 50_000, 2)
        assert a.hat.W != b.hat.W


# SimResult of the 33-knot piecewise beta and y config at seed 41 and
# 196613 pairs: hat and stderr as hex floats, then hot_hot, cold_cold,
# hot_cold_unsafe and hot_cold_safe
PIECEWISE_GOLDEN = {
    ("corrected", 0.3): (
        ("0x1.7ac0336a54f97p-3", "0x1.2950bb241d6e8p-4", "0x1.91ea21d63185ep-2", "0x1.54231e70229a7p-2", "0x1.5a4faeaf02562p+1"),
        ("0x1.cb0fd6026f4efp-11", "0x1.f7e0b67621e6ep-12", "0x1.daad86608f43ep-10", "0x1.89c93ed9571dfp-11", "0x1.5e8e264ff0396p-10"),
        (18626, 94353, 17735, 65899),
    ),
    ("corrected", 0.85): (
        ("0x1.2273713f98960p-3", "0x1.963d5aef131c3p-6", "0x1.660e074571bbap-3", "0x1.c097145988c02p-1", "0x1.593174607be84p+1"),
        ("0x1.9c8001725619ap-11", "0x1.17efba506d098p-12", "0x1.a5a08836732e2p-10", "0x1.136957a943588p-11", "0x1.653117c9d8ca8p-10"),
        (13938, 105856, 13946, 62873),
    ),
    ("paper_literal", 0.3): (
        ("0x1.7ac0336a54f97p-3", "0x1.2950bb241d6e8p-4", "0x1.91ea21d63185ep-2", "0x1.54231e70229a7p-2", "0x1.50015bfaf5030p+1"),
        ("0x1.cb0fd6026f4efp-11", "0x1.f7e0b67621e6ep-12", "0x1.daad86608f43ep-10", "0x1.89c93ed9571dfp-11", "0x1.7481719d78cddp-10"),
        (18626, 94353, 17735, 65899),
    ),
    ("paper_literal", 0.85): (
        ("0x1.2273713f98960p-3", "0x1.963d5aef131c3p-6", "0x1.660e074571bbap-3", "0x1.c097145988c02p-1", "0x1.ff3cbe235d8e5p+0"),
        ("0x1.9c8001725619ap-11", "0x1.17efba506d098p-12", "0x1.a5a08836732e2p-10", "0x1.136957a943588p-11", "0x1.57c32594d8d60p-10"),
        (13938, 105856, 13946, 62873),
    ),
}


@pytest.mark.parametrize("convention, tau", sorted(PIECEWISE_GOLDEN))
def test_piecewise_results_are_pinned(convention, tau):
    hat, stderr, counts = PIECEWISE_GOLDEN[convention, tau]
    res = simulate(load_config(PIECEWISE_CFG).params, tau, 196_613, 41, convention)
    assert tuple(x.hex() for x in res.hat) == hat
    assert tuple(x.hex() for x in res.stderr) == stderr
    c = res.counts
    assert (c.hot_hot, c.cold_cold, c.hot_cold_unsafe, c.hot_cold_safe) == counts


def run_recording_kernel(monkeypatch, params, *args):
    """simulate(params, *args) plus the argument tuples of its kernel calls."""
    kernel = _kernels.simulate_pairs
    calls = []

    def recording(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(_kernels, "simulate_pairs", recording)
    res = simulate(params, *args)
    monkeypatch.setattr(_kernels, "simulate_pairs", kernel)
    return res, calls


def decoded(code):
    """Per-pair (unsafe, nhot, ntest, ndisc) arrays of outcome codes."""
    code = code.astype(np.int64)
    return code % 2, code // 2 % 3, code // 6 % 3, code // 18


def whole_array_stats(w, code):
    """The reductions over per-pair arrays of the whole run at once."""
    n = len(w)
    unsafe, nhot, ntest, ndisc = decoded(code)
    unsafe_b = unsafe.astype(bool)
    mixed = nhot == 1
    tests = int(np.sum(ntest))
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
            R_H=tests / (2 * int(np.sum(unsafe_b))),
            S=int(np.sum(ndisc)) / (2 * n),
            W=float(np.sum(w)) / n,
        ),
        "se_W": float(np.std(w, ddof=1)) / math.sqrt(n),
        "se_R": float(np.std(ntest * 0.5, ddof=1)) / math.sqrt(n),
    }


class TestStreaming:
    @pytest.mark.parametrize(
        "n", [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5]
    )
    def test_chunked_reduction_matches_whole_array(self, paper_params, monkeypatch, n):
        res, calls = run_recording_kernel(monkeypatch, paper_params, 0.4, n, 31, "paper_literal")
        assert [(c[1], c[2]) for c in calls] == [
            (first, min(CHUNK, n - first)) for first in range(0, n, CHUNK)
        ]
        seed, _, _, *model = calls[0]
        ref = whole_array_stats(*_kernels.simulate_pairs(seed, 0, n, *model))
        assert res.counts == ref["counts"]
        assert {type(c) for c in res.counts._asdict().values()} == {int}
        for key in ("r", "R", "R_H", "S"):
            assert getattr(res.hat, key) == getattr(ref["hat"], key), key
        assert res.hat.W == pytest.approx(ref["hat"].W, rel=1e-12, abs=0.0)
        assert res.stderr.W == pytest.approx(ref["se_W"], rel=1e-12, abs=0.0)
        assert res.stderr.R == pytest.approx(ref["se_R"], rel=1e-12, abs=0.0)

    def test_shorter_run_is_prefix_of_longer(self, paper_params, monkeypatch):
        n = CHUNK + 7
        _, calls = run_recording_kernel(monkeypatch, paper_params, 0.5, n, 8)
        seed, _, _, *model = calls[0]
        short = _kernels.simulate_pairs(seed, 0, n, *model)
        longer = _kernels.simulate_pairs(seed, 0, n + CHUNK, *model)
        tail = _kernels.simulate_pairs(seed, n, CHUNK, *model)
        for a, b, c in zip(short, longer, tail):
            assert np.array_equal(b[:n], a)
            assert np.array_equal(b[n:], c)

    def test_peak_memory_does_not_grow_with_pairs(self):
        # each run in a new thread, so that each peak includes allocating
        # that thread's kernel workspace. 4 MiB holds a 2**14-pair chunk
        # (~2 MiB), not a 2**16-pair one (6.3 MiB paper, 7.8 MiB piecewise)
        mib = 2**20
        for config in (PAPER_CFG, PIECEWISE_CFG):
            params = load_config(config).params
            peaks = []
            for n in (2**20, 2**21):
                tracemalloc.start()
                try:
                    with ThreadPoolExecutor(max_workers=1) as pool:
                        pool.submit(simulate, params, 0.5, n, 2).result(timeout=60)
                    peaks.append(tracemalloc.get_traced_memory()[1] / mib)
                finally:
                    tracemalloc.stop()
            assert peaks[0] < 4.0, (config.name, peaks)
            assert abs(peaks[1] - peaks[0]) < 2.0, (config.name, peaks)


class TestWorkspace:
    @pytest.mark.parametrize("tau", [0.0, 0.3, 0.85, 1.0])
    @pytest.mark.parametrize("convention", ["corrected", "paper_literal"])
    @pytest.mark.parametrize("config", [PAPER_CFG, PIECEWISE_CFG], ids=["paper", "piecewise"])
    def test_kernel_equals_reference(self, config, convention, tau):
        # largest call first, so a stale workspace row would show in the
        # smaller ones; all results are held until the end, so one that a
        # later call overwrote would show too
        state = policy_state(load_config(config).params, tau)
        p = state.params
        model = (state, convention == "paper_literal")
        tables = [_kernels.knot_arrays(d) for d in (p.dist_beta, p.dist_y)]
        ranges = [(0, 3 * CHUNK + 5), (7, CHUNK), (12345, 1000), (0, 1)]
        got = [_kernels.simulate_pairs(97, first, n, *model, *tables) for first, n in ranges]
        for (first, n), out in zip(ranges, got):
            ref = simulate_pairs_reference(97, first, n, *model)
            assert [a.dtype for a in out] == [np.float64, np.uint8]
            for name, a, b in zip(("w", "code"), out, ref):
                assert a.tobytes() == b.tobytes(), (first, n, name)

    @pytest.mark.parametrize("first", [2**61 - 3, 2**61 + 12345])
    def test_rng_keys_wrap_like_the_reference(self, first):
        # the kernel keys a draw with one add of the scalar ((6 first + k + 1)
        # GOLDEN + seed) mod 2**64 to its cached 6 i GOLDEN; at seed 2**64 - 1
        # and counters near 6 * 2**61 every key wraps, and the outputs must
        # still be those of unit_reference's uint64 arithmetic
        seed = 2**64 - 1
        state = policy_state(load_config(PIECEWISE_CFG).params, 0.5)
        p = state.params
        model = (state, False)
        tables = [_kernels.knot_arrays(d) for d in (p.dist_beta, p.dist_y)]
        got = _kernels.simulate_pairs(seed, first, 1000, *model, *tables)
        want = simulate_pairs_reference(seed, first, 1000, *model)
        for name, a, b in zip(("w", "code"), got, want):
            assert a.tobytes() == b.tobytes(), name

    def test_outcome_codes_round_trip(self):
        # each (unsafe, nhot, ntest, ndisc) has its own code below CODES, and
        # montecarlo's tally of the codes, reshaped to (3, 3, 3, 2), holds
        # code c at index (ndisc, ntest, nhot, unsafe)
        fields = list(itertools.product(range(2), range(3), range(3), range(3)))
        codes = [u + 2 * h + 6 * t + 18 * d for u, h, t, d in fields]
        assert sorted(codes) == list(range(CODES))
        tally = np.arange(CODES).reshape(3, 3, 3, 2)
        assert [int(tally[d, t, h, u]) for u, h, t, d in fields] == codes
        per_pair = decoded(np.array(codes, np.uint8))
        assert list(zip(*(a.tolist() for a in per_pair))) == fields

    def test_concurrent_threads_match_serial(self):
        # more threads than cores, switching often; results as when run one
        # at a time, so no two threads write the same buffers
        jobs = [
            (load_config(cfg).params, 0.5, CHUNK + 3 * seed, seed)
            for seed, cfg in enumerate([PAPER_CFG, PIECEWISE_CFG] * 3, start=1)
        ]
        serial = [simulate(*job) for job in jobs]
        start = threading.Barrier(len(jobs))

        def run(job):
            start.wait(timeout=30)
            return [simulate(*job) for _ in range(3)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
                results = [f.result(timeout=120) for f in [pool.submit(run, j) for j in jobs]]
        finally:
            sys.setswitchinterval(interval)
        assert results == [[want] * 3 for want in serial]

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_minflt is Linux's")
    def test_repeated_calls_do_not_page_fault(self):
        # every intermediate lives in the reused workspace; what may fault is
        # the returned arrays (9 B/pair) and the reductions' temporaries. A
        # fresh interpreter, because freeing a large array raises malloc's mmap
        # threshold for the rest of the process, which hides the faults. A
        # literal count of many chunks: fresh per-call workspaces fault about
        # 675 times per call here, and 2^16-pair chunks about 224; this makes 0
        proc = subprocess.run(
            [sys.executable, "-c", FAULTS, str(PAPER_CFG), str(10**6)],
            env=src_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) / 10 <= 64


# minor page faults of ten simulations after one warm-up
FAULTS = """
import resource, sys
from stigmagame import simulate
from stigmagame.cli import load_config
params = load_config(sys.argv[1]).params
run = (params, 0.5, int(sys.argv[2]), 3)
simulate(*run)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    simulate(*run)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestAgainstAnalyticChain:
    def test_three_sigma_agreement(self, paper_params):
        for tau in (0.0, 0.5, 1.0):
            res = simulate(paper_params, tau, 100_000, 20240810)
            targets = analytic_targets(paper_params, tau)
            for key in ("r", "R", "R_H", "W"):
                gap = abs(getattr(res.hat, key) - getattr(targets, key))
                assert gap <= 3.0 * getattr(res.stderr, key) + 1e-12, key

    def test_beta_support_above_one_agrees(self):
        # beta on [0, 2] with beta* = 1.23: the cold players above beta* keep
        # r near 0.70, where capping beta* at 1 reported r = 1 (~410 SE off)
        params = load_config(BETA_ABOVE_ONE_CFG).params
        res = simulate(params, 0.5, 400_000, 1)
        targets = analytic_targets(params, 0.5)
        for key in ("r", "R", "W"):
            z = (getattr(res.hat, key) - getattr(targets, key)) / getattr(res.stderr, key)
            assert abs(z) < 5.5, (key, z)

    def test_zero_policy_exact_acceptance(self, paper_params):
        res = simulate(paper_params, 0.0, 20_000, 3)
        assert res.hat.S == 0.0
        assert res.hat.R_H == 1.0  # every high-risk player tests when S = 0

    def test_full_policy_full_stigma(self, paper_params):
        res = simulate(paper_params, 1.0, 20_000, 3)
        assert res.hat.S == 1.0

    def test_low_risk_players_never_test(self, paper_params):
        # simulate counts every test as a high-risk one. The scalar rule:
        # theta_L v - c < 0 (assumption 1) and S y >= 0, at the extremes
        # S, y in {0, 1, the support's end}; and no simulated pair of
        # low-risk players (a safe pair) tests
        p = paper_params
        for s in (0.0, 0.5, 1.0):
            for y in (-0.0, 0.0, 1e-300, 1.0, p.dist_y.support_hi):
                assert best_response_test(p.theta_L, y, s, p) == 0, (s, y)
        state = policy_state(p, 0.6)
        model = (state, False)
        tables = [_kernels.knot_arrays(d) for d in (p.dist_beta, p.dist_y)]
        for seed in (1, 7, 42):
            _, code = _kernels.simulate_pairs(seed, 0, 50_000, *model, *tables)
            unsafe, _, ntest, _ = decoded(code)
            assert ntest.any()
            assert not np.any((ntest > 0) & (unsafe == 0))

    def test_untested_always_accepted(self, paper_params):
        # the scalar rule the kernel's m = not (d and t) encodes: an untested
        # partner is accepted at every valuation, below the cutoff too
        p = paper_params
        for tau in (0.3, 0.8):
            cutoff = rejection_cutoff(p, tau)
            for y in (0.0, 0.5 * cutoff, cutoff, 2.0):
                assert best_response_interact(0, y, p, tau) == 1, (tau, y)
            assert best_response_interact(1, 0.5 * cutoff, p, tau) == 0

    def test_all_unsafe_regime_exact(self, paper_params):
        res = simulate(paper_params._replace(u=1.0), 0.5, 20_000, 9)
        assert res.hat.r == 1.0
        assert res.counts.hot_hot == 20_000

    def test_count_identity(self, paper_params):
        res = simulate(paper_params, 0.5, 40_000, 21)
        c = res.counts
        n = res.n_pairs
        assert c.hot_hot + c.cold_cold + c.hot_cold_unsafe + c.hot_cold_safe == n
        assert res.hat.r == (2 * c.hot_hot + 2 * c.hot_cold_unsafe) / (2 * n)

    def test_literal_convention_shifts_b_payoffs(self, paper_params):
        res_c = simulate(paper_params, 0.5, 50_000, 4, "corrected")
        res_l = simulate(paper_params, 0.5, 50_000, 4, "paper_literal")
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
    # smaller runs are prefixes of larger ones under one seed, so the
    # estimates converge along one sample path to fixed analytic targets
    def test_errors_shrink_and_targets_fixed(self, paper_params):
        targets = analytic_targets(paper_params, 0.5)
        ses = []
        for n in (1_000, 10_000, 100_000):
            res = simulate(paper_params, 0.5, n, 20240810)
            for key in ("r", "R", "W"):
                gap = abs(getattr(res.hat, key) - getattr(targets, key))
                assert gap <= 4.0 * getattr(res.stderr, key), (n, key)
            ses.append(res.stderr.r)
        assert ses[0] > ses[1] > ses[2]

    def test_large_batches_usually_closer(self, paper_params):
        # root-N convergence along one sample path, replicated over seeds
        target = analytic_targets(paper_params, 0.5).W
        closer = 0
        n_seeds = 50
        for seed in range(n_seeds):
            gaps = [
                abs(simulate(paper_params, 0.5, n, seed).hat.W - target)
                for n in (1_000, 100_000)
            ]
            if gaps[1] <= gaps[0]:
                closer += 1
        assert closer >= 0.9 * n_seeds
