"""What the package's modules import and export.

numpy is loaded by the pair simulation only, and numpy.random never. The
analytic chain is pure Python, so `import stigmagame` and the check,
evaluate, sweep, optimize and figures commands must not pay for importing
numpy. Two tests run commands in a fresh interpreter and inspect
sys.modules; another reads the source, so a module-level numpy import is
caught even on a path no command reaches. Importing the CLI builds no
argparse parser either; main() builds it once per process. The set-up path
(import, load a config, evaluate one point) loads none of argparse,
dataclasses and inspect (which dataclasses imports); records are
NamedTuples, and no module imports dataclasses at all.

Each module's `__all__` is its public surface: it names only what exists,
and it lists every public function and class the module defines. The
per-tau entry points share one calling convention. The modules import each
other without a cycle, and only montecarlo imports a module of the package
from inside a function.
"""

import ast
import graphlib
import importlib
import inspect
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import PAPER_CFG, PIECEWISE_CFG, REPO_ROOT, src_env

PACKAGE = REPO_ROOT / "src" / "stigmagame"

SCRIPT = """
import contextlib, io, sys
import stigmagame
from stigmagame import cli

out, configs = sys.argv[1], sys.argv[2:]
for cfg in configs:
    for argv in (["check"], ["evaluate"], ["sweep"], ["optimize"], ["figures", "--svg"]):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv + ["--config", cfg, "--out", out])
        assert rc == 0, (argv, cfg, rc)
before = "numpy" in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(["simulate", "--config", configs[0], "--out", out, "--pairs", "1000"])
assert rc == 0, rc
print(before, "numpy" in sys.modules)
"""


def test_numpy_loads_only_when_a_simulation_runs(tmp_path):
    knots = {"beta.csv": "0,0\n0.3,0.5\n0.6,0.7\n1,1\n", "y.csv": "0,0\n0.5,0.2\n1.2,0.6\n2,1\n"}
    for name, rows in knots.items():
        (tmp_path / name).write_text("x,p\n" + rows, encoding="utf-8")
    lines = PAPER_CFG.read_text(encoding="utf-8").splitlines()
    lines = [line for line in lines if not line.startswith("dist_")]
    lines += ["dist_beta = piecewise:beta.csv", "dist_y = piecewise:y.csv"]
    piecewise = tmp_path / "piecewise.cfg"
    piecewise.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = [str(tmp_path / "out"), str(PAPER_CFG), str(piecewise)]
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, *argv],
        env=src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["False", "True"]


SIMULATE = """
import contextlib, io, sys
from stigmagame import cli

with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(["simulate", "--config", sys.argv[1], "--out", sys.argv[2]])
assert rc == 0, rc
print("numpy" in sys.modules, "numpy.random" in sys.modules)
"""


def test_simulation_leaves_numpy_random_unloaded(tmp_path):
    # the kernel hashes its own draws; importing numpy.random would raise a
    # bare interpreter's max RSS by about 6 MB
    proc = subprocess.run(
        [sys.executable, "-c", SIMULATE, str(PAPER_CFG), str(tmp_path)],
        env=src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["True", "False"]


PARSERS = """
import argparse, contextlib, io, sys
built = []
init = argparse.ArgumentParser.__init__


def counting(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)


argparse.ArgumentParser.__init__ = counting
from stigmagame import cli
counts = [len(built)]
for _ in range(2):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["check", "--config", sys.argv[1]]) == 0
    counts.append(len(built))
print(*counts)
"""


def test_cli_builds_its_parser_on_first_use_only():
    # importing the CLI (the set-up path) builds no parser; the first main()
    # builds the parser and its six subcommand parsers, later calls reuse them
    proc = subprocess.run(
        [sys.executable, "-c", PARSERS, str(PAPER_CFG)],
        env=src_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["0", "7", "7"]


SETUP = """
import sys
import stigmagame
from stigmagame.cli import load_config
cfg = load_config(sys.argv[1])
stigmagame.evaluate_point(cfg.params, cfg.params.tau_hat, cfg.convention)
print(sorted({"argparse", "dataclasses", "inspect"} & set(sys.modules)))
"""


@pytest.mark.parametrize("config", [PAPER_CFG, PIECEWISE_CFG], ids=["paper", "piecewise"])
def test_setup_path_loads_no_argparse_or_dataclasses(config):
    proc = subprocess.run(
        [sys.executable, "-c", SETUP, str(config)],
        env=src_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"


def _module_level(node):
    """Nodes that run at import time: everything outside function bodies."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield child
        yield from _module_level(child)


def _imports(nodes):
    """(line number, imported names) of each import among nodes; a
    from-import names its module and each module.name it takes."""
    for node in nodes:
        if isinstance(node, ast.Import):
            yield node.lineno, [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            yield node.lineno, [module] + [f"{module}.{alias.name}" for alias in node.names]


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _numpy_imports(path: Path) -> list[int]:
    """Line numbers of module-level imports of numpy or of the kernel module,
    which imports numpy itself."""
    return [
        line
        for line, names in _imports(_module_level(_tree(path)))
        if any(n.split(".")[0] == "numpy" or "_kernels" in n.split(".") for n in names)
    ]


def test_only_the_kernel_imports_numpy_at_module_level():
    found = {
        path.relative_to(REPO_ROOT).as_posix(): _numpy_imports(path)
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    kernel = "src/stigmagame/_kernels.py"
    offenders = [
        f"{name}:{line}" for name, lines in found.items() if name != kernel for line in lines
    ]
    assert offenders == []
    assert found[kernel], "the scan no longer sees the kernel's own numpy import"


def _package_imports(path: Path):
    """(imported module, inside a function) for each intra-package import
    in path, at any depth: `from .x import ...` and `from . import x`."""
    tree = _tree(path)
    top = {id(node) for node in _module_level(tree)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for name in [node.module] if node.module else [a.name for a in node.names]:
                yield name, id(node) not in top


def test_package_import_graph_is_acyclic():
    # the one function-local import keeps numpy off every command but simulate
    graph, local = {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, in_function in _package_imports(path):
            graph.setdefault(path.stem, set()).add(name)
            if in_function:
                local.append(f"{path.stem} -> {name}")
    assert local == ["montecarlo -> _kernels"]
    assert "coordination" in graph["welfare"], "the scan no longer sees module-level imports"
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")


def test_no_module_imports_dataclasses():
    # at any level: a function-local import would still cost its first caller
    # about 12 ms (dataclasses pulls in inspect, ast, dis and tokenize)
    found = {
        path.relative_to(REPO_ROOT).as_posix(): list(_imports(ast.walk(_tree(path))))
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    offenders = [
        f"{name}:{line}"
        for name, imports in found.items()
        for line, names in imports
        if any(n.split(".")[0] == "dataclasses" for n in names)
    ]
    assert offenders == []
    assert any(
        "typing.NamedTuple" in names for line, names in found["src/stigmagame/signaling.py"]
    ), "the scan no longer sees the records' NamedTuple import"


def test_all_lists_exactly_the_public_definitions():
    import stigmagame

    report = {}
    for info in pkgutil.iter_modules(stigmagame.__path__):
        module = importlib.import_module(f"stigmagame.{info.name}")
        listed = set(module.__all__)
        defined = {
            name
            for name, obj in vars(module).items()
            if not name.startswith("_")
            and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == module.__name__
        }
        unresolved = sorted(n for n in listed if not hasattr(module, n))
        unlisted = sorted(defined - listed)
        if unresolved or unlisted:
            report[info.name] = {"unresolved": unresolved, "unlisted": unlisted}
    assert report == {}


def test_per_tau_entry_points_share_one_signature():
    # (params, tau_hat, ..., convention="corrected"): no config record, and
    # no tau_hat that falls back to params.tau_hat
    import stigmagame
    from stigmagame.figures import figure_tables

    for fn in (
        stigmagame.evaluate_point,
        stigmagame.welfare,
        stigmagame.analytic_targets,
        stigmagame.simulate,
        figure_tables,
    ):
        params = list(inspect.signature(fn).parameters.values())
        assert [p.name for p in params[:2]] == ["params", "tau_hat"], fn.__name__
        assert all(p.default is inspect.Parameter.empty for p in params[:-1]), fn.__name__
        assert (params[-1].name, params[-1].default) == ("convention", "corrected"), fn.__name__
