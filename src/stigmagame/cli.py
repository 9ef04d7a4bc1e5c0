"""Command-line surface: config parsing and the six analysis commands.

Commands: check | evaluate | sweep | optimize | simulate | figures. Each
takes --config and --out (which check and evaluate, printing only, never
touch) and only the run settings it reads (`_COMMANDS`); any other flag, or
an abbreviated one, exits 2. The config is the one place a run's model
inputs are set, tau_hat and the welfare convention among them. Config files
are flat `key = value` text (UTF-8, a byte-order mark skipped, # comments);
each flag's default and range live in the parser, which checks every range
before the config is read. Exit codes: 0 success, 2 config error (README.md's
CLI section lists every cause), 3 assumption-3 failure (every command but
check, which reports the margin), 141 stdout closed by its reader (entry()
only). Past those checks every point of the chain evaluates. All CSV output
uses a fixed column order with 12-significant-digit floats, so repeated runs
with the same config are byte-identical. An output file is rewritten in place
and then cut to length, never truncated first (see _write); a run killed
between the two can leave the old file's tail after the new text.
"""

from __future__ import annotations

import functools
import math
import os
import re
import sys
from pathlib import Path
from typing import NamedTuple

from .distributions import DistributionSpec, piecewise_linear_cdf, uniform
from .signaling import AssumptionViolation, ModelParams
from .welfare import (
    CONVENTIONS,
    SweepRow,
    check_assumptions,
    evaluate_point,
    optimize,
    sweep,
    tau_grid,
)

__all__ = ["ConfigError", "RunConfig", "load_config", "main", "entry"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ASSUMPTION = 3
EXIT_CLOSED_STDOUT = 141  # 128 + SIGPIPE, as a shell reports a writer the signal ends
MAX_GRID = 1_000_001  # a tau_hat step of 1e-6; the grid and its rows are held in memory

_DIST_KEYS = ("dist_beta", "dist_y")
# the scalar parameters, in ModelParams' field order: the order the commands echo them
_PARAM_KEYS = tuple(key for key in ModelParams._fields if key not in _DIST_KEYS)
_REQUIRED_KEYS = ModelParams._fields[: -len(ModelParams._field_defaults)]
_KNOWN_KEYS = {*ModelParams._fields, "convention"}

_UNIFORM_RE = re.compile(
    r"^uniform\(\s*([^,\s]+)\s*,\s*([^,\s)]+)\s*\)$", re.IGNORECASE
)


class ConfigError(ValueError):
    pass


class RunConfig(NamedTuple):
    """The content of a config file; the run settings are command-line flags."""

    params: ModelParams
    convention: str


def _parse_dist(key: str, value: str, base_dir: Path) -> DistributionSpec:
    m = _UNIFORM_RE.match(value)
    if m:
        try:
            return uniform(float(m.group(1)), float(m.group(2)))
        except ValueError as exc:  # a malformed bound, or lo >= hi
            raise ConfigError(f"key '{key}': {exc}")
    if value.startswith("piecewise:"):
        import csv  # loaded only for a knot file
        path = base_dir / value[len("piecewise:"):].strip()
        if not path.is_file():
            raise ConfigError(f"key '{key}': knot file not found: {path}")
        knots = []
        try:
            with open(path, newline="", encoding="utf-8-sig") as fh:
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

    Unknown keys are rejected. M defaults to 1 and the convention to
    corrected; everything else is required.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        lines = path.read_text(encoding="utf-8-sig").splitlines()
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
    dists = {key: _parse_dist(key, raw[key], path.parent) for key in _DIST_KEYS}
    convention = raw.get("convention", "corrected")
    if convention not in CONVENTIONS:
        raise ConfigError(
            f"key 'convention': must be one of {CONVENTIONS}, got {convention!r}"
        )
    try:
        params = ModelParams(**dists, **scalars)
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


def _write(path: Path, text: str) -> None:
    """Write one --out file in place, then cut it to the new text's length; a
    failure is a config error naming the file. Not truncating on open keeps
    ext4 (auto_da_alloc) from starting a writeback of a rewritten file on close."""
    try:
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.truncate()
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


def _write_csv(path: Path, header, rows, comments=()) -> None:
    lines = [f"# {label} = {_fmt(value)}" for label, value in comments]
    lines.append(",".join(header))
    lines.extend(_csv_line(row) for row in rows)
    _write(path, "\n".join(lines) + "\n")


def _dist_repr(spec: DistributionSpec) -> str:
    if len(spec.knots_x) == 2:
        return f"uniform({_fmt(spec.support_lo)},{_fmt(spec.support_hi)})"
    return (
        f"piecewise_linear_cdf({len(spec.knots_x)} knots on "
        f"[{_fmt(spec.support_lo)},{_fmt(spec.support_hi)}])"
    )


def _echo_params(params: ModelParams, convention: str) -> None:
    scalar_bits = ", ".join(f"{k} = {_fmt(getattr(params, k))}" for k in _PARAM_KEYS)
    print(f"# {scalar_bits}")
    print(f"# dist_beta = {_dist_repr(params.dist_beta)}, "
          f"dist_y = {_dist_repr(params.dist_y)}")
    print(f"# convention = {convention}")


# command handlers take (params, convention, args) and raise on failure.
# figures and montecarlo load with the first command that uses them; handlers call
# their functions via _cli, so a name patched here (perfbench/tracer.py) is the one run.
_cli = sys.modules[__name__]


def __getattr__(name):
    if name in ("figure_tables", "line_chart_svg"):
        from . import figures as module
    elif name in ("simulate", "analytic_targets"):
        from . import montecarlo as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals().setdefault(name, getattr(module, name))


def _cmd_check(params, convention, args) -> None:
    _echo_params(params, convention)
    rep = check_assumptions(params, params.tau_hat)
    print(
        f"assumption 1 (testing worthwhile for high risk only): "
        f"OK  margin = {_fmt(rep.a1_margin)}"
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


def _cmd_evaluate(params, convention, args) -> None:
    row = evaluate_point(params, params.tau_hat, convention)
    _echo_params(params, convention)
    print(",".join(SweepRow._fields))
    print(_csv_line(row))


def _cmd_sweep(params, convention, args) -> None:
    rows = sweep(params, tau_grid(args.grid), convention)
    path = args.out / "sweep.csv"
    _write_csv(path, SweepRow._fields, rows)
    print(f"wrote {path} ({len(rows)} rows)")


def _cmd_optimize(params, convention, args) -> None:
    res = optimize(params, tol=args.tol, convention=convention)
    path = args.out / "optimize_trace.csv"
    _write_csv(path, ("stage", "tau_hat", "W"), res.trace)
    print(f"tau_star = {_fmt(res.tau_star)}  W_star = {_fmt(res.W_star)}")
    print(f"wrote {path} ({len(res.trace)} rows)")


def _cmd_simulate(params, convention, args) -> None:
    tau = params.tau_hat
    tgt = _cli.analytic_targets(params, tau, convention)
    res = _cli.simulate(params, tau, args.pairs, args.seed, convention)
    header = (("tau_hat", "n_pairs", "seed")
              + tuple(f"{n}_{c}" for n in res.hat._fields for c in ("hat", "se", "analytic"))
              + res.counts._fields)
    estimates = list(zip(res.hat, res.stderr, tgt))
    row = (tau, res.n_pairs, args.seed) + sum(estimates, ()) + res.counts
    path = args.out / "sim.csv"
    _write_csv(path, header, [row])
    for name, (est, se, target) in zip(res.hat._fields, estimates):
        print(f"{name}: {_fmt(est)} +/- {_fmt(se)}  (analytic {_fmt(target)})")
    print(f"wrote {path}")


def _cmd_figures(params, convention, args) -> None:
    for table in _cli.figure_tables(params, params.tau_hat, args.grid, convention):
        path = args.out / f"{table.name}.csv"
        _write_csv(path, table.header, table.rows, comments=table.comments)
        print(f"wrote {path}")
        if args.svg:
            svg_path = args.out / f"{table.name}.svg"
            _write(svg_path, _cli.line_chart_svg(table))
            print(f"wrote {svg_path}")


# the one list of commands: name -> (handler, the run settings it reads, help)
_COMMANDS = {
    "check": (_cmd_check, (), "print the assumption report"),
    "evaluate": (_cmd_evaluate, (), "print one sweep row at the configured tau_hat"),
    "sweep": (_cmd_sweep, ("--grid",), "write sweep.csv over a tau_hat grid"),
    "optimize": (_cmd_optimize, ("--tol",), "locate the welfare-maximizing tau_hat"),
    "simulate": (_cmd_simulate, ("--pairs", "--seed"),
                 "run the agent-based cross-check, write sim.csv"),
    "figures": (_cmd_figures, ("--grid", "--svg"),
                "write fig1.csv..fig5.csv (and SVGs with --svg)"),
}


def _ranged(flag: str, convert, ok, rule: str, default, descr: str) -> dict:
    """add_argument's keywords for `flag`: its type converts the text, then
    rejects a value outside the flag's range with "<flag> <rule>, got <value>"."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            import argparse
            raise argparse.ArgumentTypeError(f"{flag} {rule}, got {value}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return {"type": parse, "default": default, "help": descr + " (default %(default)s)"}


# the run settings, each declared once here: a range-checked one with its
# type, valid range and the range's wording, default and help (a value
# outside the range exits 2 from the parser), a switch with its help
_FLAGS = {
    "--grid": _ranged("--grid", int, lambda n: 3 <= n <= MAX_GRID,
                      f"must lie in [3, {MAX_GRID}]", 101, "tau_hat grid points"),
    "--tol": _ranged("--tol", float, lambda t: t > 0 and math.isfinite(t),
                     "must be positive and finite", 1e-6,
                     "optimizer tolerance per smooth piece of W"),
    "--pairs": _ranged("--pairs", int, lambda n: n >= 1, "must be >= 1", 500_000,
                       "simulated pairs"),
    "--seed": _ranged("--seed", int, lambda n: 0 <= n < 2**64,
                      "must fit in 64 unsigned bits", 2024, "simulation seed"),
    "--svg": {"action": "store_true", "help": "also render SVGs"},
}


@functools.cache
def _build_parser():
    """The command-line parser and its subcommand parsers by name, built on
    the first main() call (not at import, so argparse loads only then) and
    reused: parsing leaves them unchanged."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="stigmagame",
        description="Testing-stigma policy analysis: equilibrium chain, "
        "welfare sweep, and agent-based cross-check.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags, descr) in _COMMANDS.items():
        sp = sub.add_parser(name, help=descr, allow_abbrev=False)
        sp.add_argument("--config", required=True,
                        help="path to key = value config; it sets tau_hat and the convention")
        for flag in flags:
            sp.add_argument(flag, **_FLAGS[flag])
        sp.add_argument("--out", type=Path, default=".",
                        help="output directory (default %(default)s)")
    return parser, sub.choices


def main(argv=None) -> int:
    parser, commands = _build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:  # reported with the usage of the command they were given to
            commands[args.command].error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        cfg = load_config(args.config)
        if args.command not in ("check", "evaluate"):  # these take --out but only print
            args.out.mkdir(parents=True, exist_ok=True)  # the OSError names the path
    except (AssumptionViolation, ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        _COMMANDS[args.command][0](*cfg, args)
    except AssumptionViolation as exc:
        print(f"assumption failure: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION
    except ValueError as exc:
        # an unwritable output file, or a library precondition that the
        # config and flag checks did not cover
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()  # so that a closed stdout fails here, not at exit
    except BrokenPipeError:
        # the reader went away: exit-time flushes go to devnull (SIGPIPE note, signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_CLOSED_STDOUT
    sys.exit(code)


if __name__ == "__main__":
    entry()
