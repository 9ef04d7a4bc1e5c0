"""The benchmark's tracer patches program functions by module and name.

perfbench/tracer.py looks each name up in its stigmagame module at install
time, so a refactor that drops or renames one breaks `perfbench/run.py
--trace 1`. These tests load the tracer by file path: one checks that every
name it patches still resolves to a callable, one that every name a module
imports only for the tracer (a `# noqa: F401` import) is one it patches
there, so no such import outlives its use, one that its chain counts
read one period1_outcome per sweep point and one welfare call per optimize
objective evaluation, the others that its kernel hooks still read the pair
count, the output arrays and the inverse-CDF draws of a real simulation,
also in a fresh interpreter where the kernel module is imported by name
rather than by the package.
"""

import ast
import importlib
import importlib.util
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import stigmagame
from stigmagame import optimize, simulate, sweep
from stigmagame.cli import load_config
from stigmagame.montecarlo import CHUNK

from conftest import PAPER_CFG, PIECEWISE_CFG, src_env

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _load_tracer()
    targets = [(short, attr) for short, attr, _ in tracer.SPANS + tracer.COUNTS]
    targets += [(short, "period1_outcome") for short in tracer.PERIOD1_CALLERS]
    assert len(targets) > 20
    missing = [
        f"stigmagame.{short}.{attr}"
        for short, attr in targets
        if not callable(
            getattr(importlib.import_module(f"stigmagame.{short}"), attr, None)
        )
    ]
    assert missing == []


def test_every_unused_import_is_a_traced_name():
    tracer = _load_tracer()
    patched = {(short, attr) for short, attr, _ in tracer.SPANS + tracer.COUNTS}
    patched |= {(short, "period1_outcome") for short in tracer.PERIOD1_CALLERS}
    unused = []
    for path in sorted(Path(stigmagame.__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and any(
                "# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]
            ):
                unused += [(path.stem, alias.asname or alias.name) for alias in node.names]
    assert unused
    assert [name for name in unused if name not in patched] == []


def test_tracer_counts_one_chain_per_point_and_each_objective_call():
    # welfare.chain_evals_per_point reads the traced period1_outcome calls
    # that welfare makes, welfare.optimize_objective_evals the traced calls
    # of welfare.welfare and figures.chain_evals the continuation_values
    # calls under one figure_tables; each must count what the chain really does
    for info in pkgutil.iter_modules(stigmagame.__path__):
        importlib.import_module(f"stigmagame.{info.name}")
    from stigmagame.figures import figure_tables

    params = load_config(PAPER_CFG).params
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        sweep(params, [i / 16 for i in range(17)])
        after_sweep = dict(tracer.counts)
        res = optimize(params)
        after_optimize = dict(tracer.counts)
        figure_tables(params, 0.5, 9)
        after_figures = dict(tracer.counts)
    finally:
        tracer.uninstall()
    assert after_sweep["welfare.period1_outcome"] == 17
    assert after_sweep["signaling.continuation_values"] == 17
    assert after_sweep.get("welfare.welfare", 0) == 0
    assert after_optimize["welfare.welfare"] == len(res.trace)
    chain_evals = (after_figures["signaling.continuation_values"]
                   - after_optimize["signaling.continuation_values"])
    assert chain_evals == 9 + 1  # the grid plus the policy point


@pytest.mark.parametrize("config", [PAPER_CFG, PIECEWISE_CFG], ids=["paper", "piecewise"])
def test_tracer_counts_kernel_pairs_and_bytes(config):
    # the tracer's kernel hook reads args[2] as the pair count and sums each
    # returned array's nbytes: 8 for the float64 welfare, 1 for the uint8
    # outcome code; its inverse-CDF hook counts the draws of args[0], also
    # on the piecewise config's guide-table path
    for info in pkgutil.iter_modules(stigmagame.__path__):
        importlib.import_module(f"stigmagame.{info.name}")
    params = load_config(config).params
    tracer = _load_tracer().Tracer()
    n = CHUNK + 7
    try:
        tracer.install()
        simulate(params, 0.5, n, 5)
    finally:
        tracer.uninstall()
    assert tracer.counts["kernels.pairs"] == n
    assert tracer.counts["kernels.out_bytes"] == 9 * n
    assert tracer.counts["distributions.ppf_values"] == 6 * n
    assert tracer.counts["kernels.simulate_pairs"] == 2


# perfbench/run.py's order: the package, then _kernels by name (the package
# itself does not import it), then untraced runs of every command (its peak
# simulation and first pass, which load figures and montecarlo), then the
# tracer, then a traced CLI run; each command's arguments are built as
# run.py's Run.argv builds them
RUN_ORDER = """
import contextlib, importlib.util, io, json, sys
import stigmagame
from stigmagame import _kernels, cli

def argv(command):
    args = [command, "--config", sys.argv[2], "--out", sys.argv[3]]
    if command == "sweep":
        args += ["--grid", "101"]
    elif command == "figures":
        args += ["--grid", "101", "--svg"]
    elif command == "simulate":
        args += ["--pairs", sys.argv[4], "--seed", "1"]
    return args

for command in ("sweep", "optimize", "figures", "check", "evaluate", "simulate"):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv(command)) == 0, command

spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
tracer = module.Tracer()
tracer.install()
try:
    rc = cli.main(argv("simulate"))
finally:
    tracer.uninstall()
print(json.dumps({"rc": rc, **tracer.counts}))
"""


def test_tracer_counts_a_cli_simulation_in_a_fresh_interpreter(tmp_path):
    n = 1000
    argv = [str(TRACER), str(PAPER_CFG), str(tmp_path), str(n)]
    proc = subprocess.run(
        [sys.executable, "-c", RUN_ORDER, *argv],
        env=src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    counts = json.loads(proc.stdout.splitlines()[-1])
    assert counts["rc"] == 0
    assert counts["kernels.pairs"] == n
    assert counts["kernels.simulate_pairs"] == 1
    assert counts["distributions.ppf_values"] == 6 * n
