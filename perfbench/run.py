#!/usr/bin/env python3
"""stigmagame benchmark: one closed-loop client driving the CLI and library.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper --seed 1 --seconds 60 --trace 0

One process, one thread: each call waits for the last. The workload runs in
this interpreter; set-up is timed in fresh child interpreters. Passes of the
workload's operations repeat while the next one fits in --seconds. With
--trace 0 the end-to-end metrics are printed; with --trace 1, untraced and
traced passes alternate and the per-layer metrics come from the traced ones.
Before the passes, one untimed simulation at the workload's peak-memory size
sets peak_rss_mb.
The last line of stdout is the JSON result; the run record (CSV hashes,
versions, failures) goes to .bench_out/BENCH_<workload>.json. Exits 2 when
not run from a checkout.
"""

from __future__ import annotations

import os

# before numpy is imported, here and in every child interpreter
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(THREAD_ENV)

import argparse
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate as gatemod  # noqa: E402
from workloads import FIGURES_GRID, WORKLOADS, make_inputs, tau_grid  # noqa: E402

SETUP_PROBES = 15
TAIL_BEYOND = 10
PROBE = """
import sys, time
t0 = time.perf_counter()
import stigmagame
from stigmagame.cli import load_config
cfg = load_config(sys.argv[1])
stigmagame.evaluate_point(cfg.params, cfg.params.tau_hat, cfg.convention)
print(repr(time.perf_counter() - t0), stigmagame.__file__)
"""
END_TO_END_UNITS = {
    "setup_s": "s",
    "sweep_s": "s",
    "optimize_s": "s",
    "figures_s": "s",
    "eval_ms_p50": "ms",
    "eval_ms_tail": "ms",
    "simulate_s": "s",
    "peak_rss_mb": "MB",
}
# The metrics of BENCHMARK.json; the others are printed and recorded only. On
# a busy shared machine the interpreter-bound sweep, optimize and figures
# commands (a quarter second and more on piecewise-mixed) rarely meet a quiet
# stretch as long as themselves, so their fastest times moved with the machine
# by more than the bound; simulate is timed at a cache-resident size. On paper
# every τ costs the same, so eval_ms_tail measures the noise (README.md,
# Bounds and noise).
GATED = ("setup_s", "eval_ms_p50", "simulate_s", "peak_rss_mb")
COMMANDS = ("sweep", "optimize", "figures", "check", "evaluate", "simulate")
# Untraced passes after the first run only these commands and the
# evaluate_point loop, the ones behind gated metrics, so that their samples
# cover most of the run rather than the half the other commands leave them
# on piecewise-mixed.
REPEATED = ("simulate",)
REPEAT_S = 2.0
PEAK = "simulate-peak"  # `simulate` at the workload's peak_pairs, once per run


class Run:
    """One workload in one process: its inputs, outputs and passes."""

    def __init__(self, root: Path, workload, seed: int, out: Path):
        from stigmagame import cli, evaluate_point

        self.root = root
        self.cli = cli
        self.evaluate_point = evaluate_point
        self.workload = workload
        self.seed = seed
        self.out = out
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.inputs = make_inputs(workload, seed, root, self.out)
        self.cfg = cli.load_config(self.inputs.config)
        self.grid = tau_grid(workload.grid)

    def argv(self, command: str) -> list[str]:
        """The CLI arguments of one of COMMANDS or of PEAK."""
        w, out = self.workload, self.out / command
        cli_command = "simulate" if command == PEAK else command
        args = [cli_command, "--config", str(self.inputs.config), "--out", str(out)]
        if command == "sweep":
            args += ["--grid", str(w.grid)]
        elif command == "figures":
            args += ["--grid", str(FIGURES_GRID), "--svg"]
        elif cli_command == "simulate":
            pairs = w.peak_pairs if command == PEAK else w.pairs
            args += ["--pairs", str(pairs), "--seed", str(self.seed)]
        return args

    def peak_simulation(self) -> dict:
        """The workload's large simulation, once and untimed, as a result
        for check(): it sets peak_rss_mb and is gated like the timed one."""
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = self.cli.main(self.argv(PEAK))
        return {"outputs": {PEAK: (code, stdout.getvalue(), stderr.getvalue())},
                "rows": {}, "errors": []}

    def one_pass(self, tracer=None, commands=COMMANDS, between=lambda: None) -> dict:
        """Run `commands` and the evaluate_point loop, timed; outputs are
        kept for check().

        Untraced, the commands behind gated timings and the evaluate_point
        loop repeat until their runs have taken REPEAT_S, for more samples;
        traced, everything runs once, so counts are per operation. An exit
        other than 0 is kept over later ones. `between` runs after each
        command, outside the timed regions."""
        times, outputs, op_counts = {}, {}, {}
        for command in commands:
            argv = self.argv(command)
            main = self.cli.main if tracer is None else tracer.spanned(self.cli.main, f"cli.{command}")
            before = tracer and tracer.counts.copy()
            times[command] = []
            while True:
                stdout, stderr = io.StringIO(), io.StringIO()
                t0 = time.perf_counter()
                with redirect_stdout(stdout), redirect_stderr(stderr):
                    code = main(argv)
                times[command].append(time.perf_counter() - t0)
                if outputs.get(command, (0,))[0] == 0:
                    outputs[command] = (code, stdout.getvalue(), stderr.getvalue())
                if tracer or command not in REPEATED or sum(times[command]) >= REPEAT_S:
                    break
            if tracer:
                op_counts[command] = tracer.counts - before
            between()

        call = self.evaluate_point
        if tracer:
            call = tracer.spanned(call, "welfare.evaluate_point")
            before = tracer.counts.copy()
        params, convention = self.cfg.params, self.cfg.convention
        rows, errors = {}, {}
        latencies = [float("inf")] * len(self.grid)  # each τ's fastest call in this pass
        clock = time.perf_counter_ns
        times["loop"] = []
        while True:
            loop_start = time.perf_counter()
            for i, tau in enumerate(self.grid):
                t0 = clock()
                try:
                    rows[tau] = call(params, tau, convention)
                except Exception as exc:  # a failed operation is counted, not fatal
                    errors[i] = f"{type(exc).__name__}: {exc}"
                latencies[i] = min(latencies[i], clock() - t0)
            times["loop"].append(time.perf_counter() - loop_start)
            if tracer or sum(times["loop"]) >= REPEAT_S:
                break
        if tracer:
            op_counts["loop"] = tracer.counts - before
        return {"times": times, "outputs": outputs, "rows": rows, "errors": sorted(errors.items()),
                "latencies_ms": [ns / 1e6 for ns in latencies], "op_counts": op_counts}

    def check(self, result: dict) -> tuple[gatemod.Gate, set[str]]:
        """Gate one pass; returns the gate and the operations it attempted."""
        g = gatemod.Gate()
        ops = set(result["outputs"])
        for i, err in result["errors"]:
            ops.add(f"evaluate_point[{i}]")
            g.fail(gatemod.EXIT, f"evaluate_point[{i}]", err)
        library = {}
        (xs, ps), u = self.inputs.beta_knots, self.inputs.u
        for i, tau in enumerate(self.grid):
            if tau not in result["rows"]:
                continue
            rec = {k: getattr(result["rows"][tau], k) for k in gatemod.ROW_KEYS}
            library[tau] = rec
            op = f"evaluate_point[{i}]"
            ops.add(op)
            g.row_identities(op, rec, exact=True)
            g.r_exact(op, rec, xs, ps, u)
        for command, (code, stdout, stderr) in result["outputs"].items():
            if not g.exit_code(command, code, stderr):
                continue
            out = self.out / command
            try:
                if command == "sweep":
                    g.csv_matches(command, (out / "sweep.csv").read_text(), library, len(self.grid))
                elif command == "figures":
                    g.csv_matches(command, (out / "fig4.csv").read_text(), library, FIGURES_GRID)
                elif command == "evaluate":
                    g.csv_matches(command, stdout, library, 1)
                elif command in ("simulate", PEAK):
                    g.simulation(command, (out / "sim.csv").read_text())
            except (OSError, ValueError, IndexError, KeyError) as exc:  # missing or malformed
                g.fail(gatemod.CSV_ROW, command, f"{type(exc).__name__}: {exc}")
        return g, ops

    def written(self) -> dict[str, Path]:
        return {str(p.relative_to(self.out)): p for p in sorted(self.out.glob("*/*")) if p.is_file()}


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def setup_probe(root: Path, config: Path) -> float:
    """Seconds for a fresh interpreter to import, load the config and evaluate."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **THREAD_ENV)
    proc = subprocess.run([sys.executable, "-c", PROBE, str(config)], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
    elapsed, where = proc.stdout.split()
    if (root / "src").resolve() not in Path(where).resolve().parents:
        raise RuntimeError(f"set-up probe imported stigmagame from {where}")
    return float(elapsed)


class Tally:
    """Gate results over a run's passes, per distinct operation.

    Every pass is gated, but an operation counts once however many passes
    ran it, and fails if it failed in any of them. So `attempted` and
    `failed` depend on the workload and seed only, not on how many passes
    the machine's speed let into --seconds."""

    def __init__(self):
        self.ops: set[str] = set()
        self.failed_ops: set[str] = set()
        self.correct = True
        self.failures: list[tuple[str, str, str]] = []

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def add(self, g: gatemod.Gate, ops: set[str]) -> None:
        self.ops |= ops
        self.correct &= g.correct
        for failure in g.failures:
            if failure[1] not in self.failed_ops:
                self.failed_ops.add(failure[1])
                self.failures.append(failure)


def measure(run: Run, seconds: float, trace: bool):
    """Passes while the next one is expected to end within `seconds`.

    The first pass runs every command; later untraced ones run REPEATED
    only, and the longest of those predicts the next. Each pass is checked
    as soon as it ends, outside the timed regions, and only its timings are
    kept, so the heap the collector walks does not grow with the pass count. Set-up probes are spread over the run by elapsed
    time, one every seconds/SETUP_PROBES, run between commands, so that they
    meet the same machine as the passes; probes not yet due when the last
    pass ends run after it. With trace, each untraced pass is followed by a
    traced one, and no probes run.
    """
    from tracer import Tracer

    tracer = Tracer() if trace else None
    tally = Tally()
    passes, traced, setup = [], [], []
    start = time.perf_counter()

    def probe_when_due() -> None:
        while (not trace and len(setup) < SETUP_PROBES
               and time.perf_counter() - start >= len(setup) * seconds / SETUP_PROBES):
            setup.append(setup_probe(run.root, run.inputs.config))

    def checked(result: dict) -> dict:
        tally.add(*run.check(result))
        return {k: result[k] for k in ("times", "latencies_ms", "op_counts")}

    tally.add(*run.check(run.peak_simulation()))

    longest = 0.0
    while True:
        pass_start = time.perf_counter()
        probe_when_due()
        commands = COMMANDS if trace or not passes else REPEATED
        passes.append(checked(run.one_pass(commands=commands, between=probe_when_due)))
        if tracer:
            first_span = len(tracer.spans)
            tracer.counts.clear()
            tracer.install()
            try:
                result = run.one_pass(tracer)
            finally:
                tracer.uninstall()
            traced.append((checked(result), tracer.spans[first_span:], tracer.counts.copy()))
        now = time.perf_counter()
        if trace or len(passes) > 1:
            longest = max(longest, now - pass_start)
        if now - start + longest > seconds:
            break
    while not trace and len(setup) < SETUP_PROBES:
        setup.append(setup_probe(run.root, run.inputs.config))
    if tracer:
        tracer.write(run.out / "spans.jsonl")
    return passes, traced, setup, tally


def per_point_ms(passes: list[dict]) -> list[float]:
    """Each τ's fastest evaluate_point call over the run's passes."""
    return [min(column) for column in zip(*(p["latencies_ms"] for p in passes))]


def end_to_end(passes: list[dict], setup: list[float]) -> dict:
    """Each command's time is its fastest run over the passes that ran it
    (untraced, sweep, optimize and figures run in the first only), and each
    evaluate_point latency that τ's fastest call: on a shared machine interference only adds
    time, and it comes in episodes of seconds that a median over one run's
    samples does not average out. p50 and tail are then taken over the τ
    grid. Set-up is the median of the probes."""
    def best(command: str) -> float:
        return min(min(p["times"][command]) for p in passes if command in p["times"])

    per_point = per_point_ms(passes)
    metrics = {
        "setup_s": statistics.median(setup),
        "sweep_s": best("sweep"),
        "optimize_s": best("optimize"),
        "figures_s": best("figures"),
        "eval_ms_p50": statistics.median(per_point),
        "eval_ms_tail": tail(per_point)[1],
        "simulate_s": best("simulate"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def per_layer(run: Run, passes: list[dict], traced: list) -> dict:
    from tracer import layer_metrics

    per_pass = [layer_metrics(spans, counts, result["op_counts"], run.workload.grid)
                for result, spans, counts in traced]
    # counts repeat exactly (record's counts_repeat); times are medianed
    metrics = {name: (statistics.median(p[name][0] for p in per_pass)
                      if unit == "ms" or name == "kernels.ppf_share" else value, unit)
               for name, (value, unit) in per_pass[0].items()}
    written = sum(p.stat().st_size for p in run.written().values())

    def once(times: dict) -> float:  # one run of each command, as in a traced pass
        return sum(runs[0] for runs in times.values())

    overhead = [once(t[0]["times"]) - once(p["times"]) for p, t in zip(passes, traced)]
    metrics["cli.bytes_written"] = (written, "B")
    metrics["trace.overhead_s"] = (statistics.median(overhead), "s")
    return metrics


def src_lines(root: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((root / "src").rglob("*.py")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64 or args.seconds <= 0:
        parser.error("--seed must fit in 64 unsigned bits and --seconds be positive")

    root = Path.cwd()
    if not (root / "src" / "stigmagame" / "__init__.py").is_file() or not (root / "paper.cfg").is_file():
        print("error: run from the root of a stigmagame checkout "
              "(src/stigmagame and paper.cfg not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import numpy
    import stigmagame
    from stigmagame import _kernels

    if (root / "src").resolve() not in Path(stigmagame.__file__).resolve().parents:
        print(f"error: stigmagame imported from {stigmagame.__file__}", file=sys.stderr)
        return 2

    run = Run(root, WORKLOADS[args.workload], args.seed, root / ".bench_out" / args.workload)
    # warm-up, untimed: lazy imports and first numpy calls
    with redirect_stdout(io.StringIO()):
        run.cli.main(run.argv("check"))
    passes, traced, setup, tally = measure(run, args.seconds, bool(args.trace))
    attempted, failed, correct, failures = tally.attempted, tally.failed, tally.correct, tally.failures
    measured = per_layer(run, passes, traced) if args.trace else end_to_end(passes, setup)
    measured = {k: {"value": v, "unit": u} for k, (v, u) in measured.items()}
    metrics = {k: m for k, m in measured.items() if args.trace or k in GATED}
    tail_pct = tail(passes[0]["latencies_ms"])[0]

    record = {
        "workload": run.workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "traced_passes": len(traced),
        "metrics": measured,
        "fail_frac": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "failures": [list(f) for f in failures[:50]],
        "eval_tail_percentile": tail_pct,
        "eval_samples_per_pass": len(run.grid),
        "setup_samples_s": setup,
        "counts_repeat": all(t[2] == traced[0][2] for t in traced) if traced else None,
        "csv_sha256": {name: hashlib.sha256(p.read_bytes()).hexdigest()
                       for name, p in run.written().items() if name.endswith(".csv")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": _kernels.active_backend(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines(root),
    }
    record_path = root / ".bench_out" / f"BENCH_{run.workload.name}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"workload {run.workload.name}  seed {args.seed}  passes {len(passes)}"
          f"  traced {len(traced)}  backend {record['backend']}")
    for name, metric in measured.items():
        note = "" if name in metrics else "  (not gated)"
        print(f"{name:42s} {metric['value']:.6g} {metric['unit']}{note}")
    print(f"{'fail_frac':42s} {failed / attempted:.6g} ratio ({failed}/{attempted})  (not gated)")
    if not args.trace:
        print(f"eval_ms_tail is p{tail_pct:.4g} of {len(run.grid)} τ points, each its fastest"
              f" call over {len(passes)} passes")
    for kind, op, detail in failures[:5]:
        print(f"failed [{kind}] {op}: {detail}")
    print(f"record: {record_path.relative_to(root)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
