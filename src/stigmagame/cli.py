"""Command-line surface: config parsing and the six analysis commands.

Commands: check | evaluate | sweep | optimize | simulate | figures.
Config files are flat `key = value` text (UTF-8, # comments). Exit codes:
0 success, 2 config error (including a config or knot file that is not
UTF-8, an assumption-1 violation, tau_true != 0 and a valuation or
present-bias support below 0), 3 assumption-3 failure (the welfare
commands, and check under --strict), 4 numerical failure inside the chain.
`--tau` replaces tau_hat for every command. All CSV output uses a fixed
column order with 12-significant-digit floats, so repeated runs with the
same config are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import re
import sys
from dataclasses import MISSING, astuple, dataclass, fields, replace
from pathlib import Path

from .distributions import DistributionSpec, piecewise_linear_cdf, uniform
from .figures import figure_tables, line_chart_svg
from .montecarlo import Estimates, PairCounts, SimConfig, analytic_targets, simulate
from .signaling import (
    AssumptionViolation,
    ModelParams,
    assumption3_margin,
    check_assumptions,
)
from .welfare import (
    CONVENTIONS,
    SweepError,
    SweepRow,
    evaluate_point,
    optimize,
    sweep,
    tau_grid,
)

__all__ = ["ConfigError", "RunConfig", "load_config", "run", "main", "entry"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ASSUMPTION = 3
EXIT_NUMERICAL = 4
MAX_GRID = 1_000_001  # a tau_hat step of 1e-6; the grid and its rows are held in memory

SWEEP_HEADER = SweepRow._fields

# the scalar parameters, in the order the commands echo them
_PARAM_KEYS = (
    "theta_L",
    "theta_H",
    "v",
    "c",
    "c_h",
    "z",
    "u",
    "M",
    "tau_hat",
    "tau_true",
)
_REQUIRED_KEYS = tuple(f.name for f in fields(ModelParams) if f.default is MISSING)
_KNOWN_KEYS = {f.name for f in fields(ModelParams)} | {"convention"}

_UNIFORM_RE = re.compile(
    r"^uniform\(\s*([^,\s]+)\s*,\s*([^,\s)]+)\s*\)$", re.IGNORECASE
)


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    params: ModelParams
    convention: str = "corrected"
    grid: int = 101
    tol: float = 1e-6
    n_pairs: int = 500_000
    seed: int = 2024
    strict: bool = False
    out_dir: str = "."


def _parse_dist(key: str, value: str, base_dir: Path) -> DistributionSpec:
    m = _UNIFORM_RE.match(value)
    if m:
        try:
            lo, hi = float(m.group(1)), float(m.group(2))
        except ValueError:
            raise ConfigError(f"key '{key}': malformed uniform bounds in {value!r}")
        try:
            return uniform(lo, hi)
        except ValueError as exc:
            raise ConfigError(f"key '{key}': {exc}")
    if value.startswith("piecewise:"):
        path = base_dir / value[len("piecewise:"):].strip()
        if not path.is_file():
            raise ConfigError(f"key '{key}': knot file not found: {path}")
        knots = []
        try:
            with open(path, newline="", encoding="utf-8") as fh:
                for row in csv.reader(fh):
                    if not row or row[0].strip().lower() == "x":
                        continue
                    try:
                        knots.append((float(row[0]), float(row[1])))
                    except (IndexError, ValueError):
                        raise ConfigError(
                            f"key '{key}': bad knot row {row!r} in {path}"
                        )
        except UnicodeDecodeError as exc:
            raise ConfigError(f"key '{key}': knot file {path} is not UTF-8: {exc}")
        try:
            return piecewise_linear_cdf(knots)
        except ValueError as exc:
            raise ConfigError(f"key '{key}': {exc}")
    raise ConfigError(
        f"key '{key}': expected uniform(lo,hi) or piecewise:<csv>, got {value!r}"
    )


def load_config(path) -> RunConfig:
    """Parse a flat key = value config file into a RunConfig.

    Unknown keys are rejected. M defaults to 1, tau_true to 0 and the
    convention to corrected; everything else is required.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8: {exc}")
    raw: dict[str, str] = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, value = (part.strip() for part in text.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        raw[key] = value
    for key in _REQUIRED_KEYS:
        if key not in raw:
            raise ConfigError(f"missing key '{key}'")

    scalars = {}
    for key in _PARAM_KEYS:
        if key not in raw:
            continue
        try:
            scalars[key] = float(raw[key])
        except ValueError:
            raise ConfigError(f"key '{key}': malformed value {raw[key]!r}")
    dist_beta = _parse_dist("dist_beta", raw["dist_beta"], path.parent)
    dist_y = _parse_dist("dist_y", raw["dist_y"], path.parent)
    convention = raw.get("convention", "corrected")
    if convention not in CONVENTIONS:
        raise ConfigError(
            f"key 'convention': must be one of {CONVENTIONS}, got {convention!r}"
        )
    try:
        params = ModelParams(dist_beta=dist_beta, dist_y=dist_y, **scalars)
    except AssumptionViolation:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc))
    return RunConfig(params=params, convention=convention)


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".12g")


def _csv_line(values) -> str:
    return ",".join(_fmt(v) for v in values)


def _write_csv(path: Path, header, rows, comments=()) -> None:
    lines = [f"# {label} = {_fmt(value)}" for label, value in comments]
    lines.append(",".join(header))
    lines.extend(_csv_line(row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _dist_repr(spec: DistributionSpec) -> str:
    if len(spec.knots_x) == 2:
        return f"uniform({_fmt(spec.support_lo)},{_fmt(spec.support_hi)})"
    return (
        f"piecewise_linear_cdf({len(spec.knots_x)} knots on "
        f"[{_fmt(spec.support_lo)},{_fmt(spec.support_hi)}])"
    )


def _echo_params(cfg: RunConfig) -> list[str]:
    p = cfg.params
    scalar_bits = ", ".join(f"{k} = {_fmt(getattr(p, k))}" for k in _PARAM_KEYS)
    return [
        f"# {scalar_bits}",
        f"# dist_beta = {_dist_repr(p.dist_beta)}, dist_y = {_dist_repr(p.dist_y)}",
        f"# convention = {cfg.convention}",
    ]


def _cmd_check(cfg: RunConfig, out: Path) -> int:
    for line in _echo_params(cfg):
        print(line)
    rep = check_assumptions(cfg.params)
    print(
        f"assumption 1 (testing worthwhile for high risk only): "
        f"{'OK' if rep.a1_holds else 'VIOLATED'}  margin = {_fmt(rep.a1_margin)}"
    )
    print(
        f"assumption 2 (interaction with average partner): violating mass = "
        f"{_fmt(rep.a2_violating_mass)}  (reported only; untested partners "
        f"are always accepted)"
    )
    print(
        f"assumption 3 (continuation-value gap): "
        f"{'OK' if rep.a3_holds else 'VIOLATED'}  margin = {_fmt(rep.a3_margin)}"
    )
    print(f"implied infection rate h_bar = {_fmt(rep.h_bar)}")
    return EXIT_OK


def _cmd_evaluate(cfg: RunConfig, out: Path) -> int:
    row = evaluate_point(cfg.params, cfg.params.tau_hat, cfg.convention)
    for line in _echo_params(cfg):
        print(line)
    print(",".join(SWEEP_HEADER))
    print(_csv_line(row))
    return EXIT_OK


def _cmd_sweep(cfg: RunConfig, out: Path) -> int:
    rows = sweep(cfg.params, tau_grid(cfg.grid), cfg.convention)
    path = out / "sweep.csv"
    _write_csv(path, SWEEP_HEADER, rows)
    print(f"wrote {path} ({len(rows)} rows)")
    return EXIT_OK


def _cmd_optimize(cfg: RunConfig, out: Path) -> int:
    res = optimize(
        cfg.params, tol=cfg.tol, convention=cfg.convention, grid_points=cfg.grid
    )
    path = out / "optimize_trace.csv"
    _write_csv(path, ("stage", "tau_hat", "W"), res.trace)
    print(f"tau_star = {_fmt(res.tau_star)}  W_star = {_fmt(res.W_star)}")
    print(f"wrote {path} ({len(res.trace)} rows)")
    return EXIT_OK


_SIM_HEADER = (
    ("tau_hat", "n_pairs", "seed")
    + tuple(f"{n}_{c}" for n in Estimates._fields for c in ("hat", "se", "analytic"))
    + tuple(f.name for f in fields(PairCounts))
)


def _cmd_simulate(cfg: RunConfig, out: Path) -> int:
    tau = cfg.params.tau_hat
    tgt = analytic_targets(cfg.params, tau, cfg.convention)
    sim_cfg = SimConfig(
        n_pairs=cfg.n_pairs, seed=cfg.seed, tau_hat=tau, convention=cfg.convention
    )
    res = simulate(cfg.params, sim_cfg)
    estimates = list(zip(res.hat, res.stderr, tgt))
    row = (tau, res.n_pairs, cfg.seed) + sum(estimates, ()) + astuple(res.counts)
    path = out / "sim.csv"
    _write_csv(path, _SIM_HEADER, [row])
    for name, (est, se, target) in zip(Estimates._fields, estimates):
        print(f"{name}: {_fmt(est)} +/- {_fmt(se)}  (analytic {_fmt(target)})")
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_figures(cfg: RunConfig, out: Path, svg: bool) -> int:
    tables = figure_tables(cfg.params, cfg.convention, cfg.grid)
    for table in tables:
        path = out / f"{table.name}.csv"
        _write_csv(path, table.header, table.rows, comments=table.comments)
        print(f"wrote {path}")
        if svg:
            svg_path = out / f"{table.name}.svg"
            svg_path.write_text(line_chart_svg(table), encoding="utf-8")
            print(f"wrote {svg_path}")
    return EXIT_OK


def run(command: str, cfg: RunConfig, svg: bool = False) -> int:
    """Dispatch one command against a merged RunConfig."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if command == "check":
        return _cmd_check(cfg, out)
    if command == "evaluate":
        return _cmd_evaluate(cfg, out)
    if command == "sweep":
        return _cmd_sweep(cfg, out)
    if command == "optimize":
        return _cmd_optimize(cfg, out)
    if command == "simulate":
        return _cmd_simulate(cfg, out)
    if command == "figures":
        return _cmd_figures(cfg, out, svg)
    raise ValueError(f"unknown command {command!r}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first main() call (not at
    import) and reused: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="stigmagame",
        description="Testing-stigma policy analysis: equilibrium chain, "
        "welfare sweep, and agent-based cross-check.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, descr in (
        ("check", "print the assumption report"),
        ("evaluate", "print one sweep row at the configured tau_hat"),
        ("sweep", "write sweep.csv over a tau_hat grid"),
        ("optimize", "locate the welfare-maximizing tau_hat"),
        ("simulate", "run the agent-based cross-check, write sim.csv"),
        ("figures", "write fig1.csv..fig5.csv (and SVGs with --svg)"),
    ):
        sp = sub.add_parser(name, help=descr)
        sp.add_argument("--config", required=True, help="path to key=value config")
        sp.add_argument("--tau", type=float, default=None, help="override tau_hat")
        sp.add_argument("--grid", type=int, default=None, help="grid resolution")
        sp.add_argument("--tol", type=float, default=None, help="optimizer tolerance")
        sp.add_argument("--pairs", type=int, default=None, help="simulated pairs")
        sp.add_argument("--seed", type=int, default=None, help="simulation seed")
        sp.add_argument(
            "--convention",
            choices=CONVENTIONS,
            default=None,
            help="population-B welfare bookkeeping",
        )
        sp.add_argument("--strict", action="store_true", help="fail on assumption 3")
        sp.add_argument("--out", default=None, help="output directory")
        if name == "figures":
            sp.add_argument("--svg", action="store_true", help="also render SVGs")
    return parser


def _merge_flags(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    updates = {}
    if args.convention is not None:
        updates["convention"] = args.convention
    if args.grid is not None:
        if not 3 <= args.grid <= MAX_GRID:
            raise ConfigError(f"--grid must lie in [3, {MAX_GRID}], got {args.grid}")
        updates["grid"] = args.grid
    if args.tol is not None:
        if not (args.tol > 0 and math.isfinite(args.tol)):
            raise ConfigError(f"--tol must be positive and finite, got {args.tol}")
        updates["tol"] = args.tol
    if args.pairs is not None:
        if args.pairs < 1:
            raise ConfigError(f"--pairs must be >= 1, got {args.pairs}")
        updates["n_pairs"] = args.pairs
    if args.seed is not None:
        if not 0 <= args.seed < 2**64:
            raise ConfigError(f"--seed must fit in 64 unsigned bits, got {args.seed}")
        updates["seed"] = args.seed
    if args.tau is not None:
        if not 0.0 <= args.tau <= 1.0:
            raise ConfigError(f"--tau must lie in [0, 1], got {args.tau}")
        updates["params"] = replace(cfg.params, tau_hat=args.tau)
    if args.out is not None:
        updates["out_dir"] = args.out
    if args.strict:
        updates["strict"] = True
    return replace(cfg, **updates) if updates else cfg


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        cfg = load_config(args.config)
        cfg = _merge_flags(cfg, args)
    except (AssumptionViolation, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if cfg.strict:
        a3 = assumption3_margin(cfg.params)
        if a3 <= 0.0:
            print(
                f"assumption 3 violated: continuation-gap margin = {a3!r}",
                file=sys.stderr,
            )
            return EXIT_ASSUMPTION
    try:
        return run(args.command, cfg, svg=getattr(args, "svg", False))
    except AssumptionViolation as exc:
        print(f"assumption failure: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION
    except SweepError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        # a library precondition that the config and flag checks did not cover
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
