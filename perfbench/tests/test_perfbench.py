"""Tests of the benchmark itself: its reference, its gate and its tracer.

Run from the root of a checkout:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gate  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, read_uniform_beta_and_u  # noqa: E402


def closed_form_r_uniform(beta_star: float) -> float:
    """r for beta ~ U(0, 1): 2b^2 up to 1/2, then 1 - 2(1-b)^2, then 1."""
    if beta_star <= 0.5:
        return 2.0 * beta_star * beta_star
    if beta_star < 1.0:
        return 1.0 - 2.0 * (1.0 - beta_star) ** 2
    return 1.0


@pytest.mark.parametrize("beta_star", [1e-6, 0.013, 0.1, 0.25, 0.4999, 0.5, 0.5001, 0.73, 0.999])
def test_exact_reference_equals_closed_form_for_uniform_beta(beta_star):
    got = gate.exact_r((0.0, 1.0), (0.0, 1.0), beta_star)
    assert got == pytest.approx(closed_form_r_uniform(beta_star), rel=1e-15, abs=1e-17)


def test_reference_is_one_when_all_pairs_unsafe():
    assert gate.reference_r((0.0, 1.0), (0.0, 1.0), u=0.2, gap=0.2) == 1.0


def test_gate_counts_only_tolerance_misses_as_correct():
    g = gate.Gate()
    row = {"tau_hat": 0.5, "gap": 0.5, "r": 0.08 + 1e-8}
    assert not g.r_exact("op", row, (0.0, 1.0), (0.0, 1.0), u=0.1)
    assert g.correct and len(g.failures) == 1
    g.exit_code("sweep", 4, "numerical failure")
    assert not g.correct


def test_tally_counts_each_operation_once_over_passes():
    tally = run.Tally()
    for _ in range(3):
        g = gate.Gate()
        g.fail(gate.TOLERANCE, "evaluate_point[4]", "miss")
        g.fail(gate.TOLERANCE, "evaluate_point[9]", "miss")
        tally.add(g, {"sweep", "evaluate_point[4]", "evaluate_point[9]"})
    g = gate.Gate()
    g.fail(gate.EXIT, "sweep", "exit 4")
    tally.add(g, {"sweep", "simulate"})
    assert (tally.attempted, tally.failed) == (4, 3)
    assert [op for _, op, _ in tally.failures] == ["evaluate_point[4]", "evaluate_point[9]", "sweep"]
    assert not tally.correct


def test_end_to_end_takes_each_operations_fastest_run():
    slow, fast = [3.0] * 11, [2.0] * 11
    passes = [
        {"times": {"sweep": [3.0, 2.0], "optimize": [1.0], "figures": [1.0], "simulate": [5.0]},
         "latencies_ms": [1.0, 4.0] + slow},
        {"times": {"simulate": [4.0]},
         "latencies_ms": [2.0, 1.0] + fast},
    ]
    assert run.per_point_ms(passes) == [1.0, 1.0] + fast
    metrics = {name: value for name, (value, _) in run.end_to_end(passes, [0.3, 0.1, 0.2]).items()}
    assert metrics["sweep_s"] == 2.0 and metrics["optimize_s"] == 1.0
    assert metrics["figures_s"] == 1.0 and metrics["simulate_s"] == 4.0
    assert metrics["eval_ms_p50"] == 2.0 and metrics["eval_ms_tail"] == 2.0
    assert metrics["setup_s"] == 0.2
    assert set(run.GATED) <= set(metrics)


def test_gate_reads_beta_and_u_from_the_config(tmp_path):
    config = tmp_path / "x.cfg"
    config.write_text("# u = 9\nu = 0.2\ndist_beta = uniform( 0.1 , 0.9 )  # note\n")
    assert read_uniform_beta_and_u(config) == (((0.1, 0.9), (0.0, 1.0)), 0.2)
    config.write_text("u = 0.2\ndist_beta = piecewise:b.csv\n")
    with pytest.raises(ValueError):
        read_uniform_beta_and_u(config)


def _passes(workload_name, tmp_path):
    """An untraced pass and two traced passes of one workload."""
    r = run.Run(ROOT, WORKLOADS[workload_name], 1, tmp_path / workload_name)

    def csv_bytes():
        return {name: hashlib.sha256(p.read_bytes()).hexdigest()
                for name, p in r.written().items() if name.endswith(".csv")}

    plain = r.one_pass()
    plain_csv = csv_bytes()
    traced = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            result = r.one_pass(tracer)
        finally:
            tracer.uninstall()
        traced.append((result, tracer, csv_bytes()))
    return r, plain, plain_csv, traced


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def passes(request, tmp_path_factory):
    return _passes(request.param, tmp_path_factory.mktemp("bench"))


def test_traced_counts_are_nonzero_and_repeat_exactly(passes):
    r, _, _, traced = passes
    (first, t1, _), (second, t2, _) = traced
    assert t1.counts == t2.counts
    m1 = layer_metrics(t1.spans, t1.counts, first["op_counts"], r.workload.grid)
    m2 = layer_metrics(t2.spans, t2.counts, second["op_counts"], r.workload.grid)
    for name, (value, unit) in m1.items():
        assert value > 0, name
        if unit != "ms" and name != "kernels.ppf_share":  # counts and ratios of counts
            assert m2[name][0] == value, name
    assert m1["welfare.chain_evals_per_point"][0] >= 1.0


def test_traced_pass_writes_the_same_csv_bytes(passes):
    _, _, plain_csv, traced = passes
    assert plain_csv
    for _, _, traced_csv in traced:
        assert traced_csv == plain_csv


def test_tracer_uninstall_restores_the_program(passes):
    import stigmagame.coordination as coordination

    from stigmagame.distributions import cdf

    assert coordination.cdf is cdf


def test_gate_on_each_workload(passes):
    r, plain, _, _ = passes
    g, ops = r.check(plain)
    assert len(ops) == len(run.COMMANDS) + r.workload.grid
    g_peak, peak_ops = r.check(r.peak_simulation())
    assert peak_ops == {run.PEAK} and not g_peak.failures
    assert g.correct
    kinds = {kind for kind, _, _ in g.failures}
    if r.workload.piecewise:
        assert kinds <= {gate.TOLERANCE}
    else:
        assert not kinds


def test_bare_directory_exits_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "paper", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
