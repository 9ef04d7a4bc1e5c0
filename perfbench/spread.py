#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --seeds 1-10 [--workloads paper ...]

For every workload and end-to-end metric it prints the median of the runs
and their spread, (q3 - q1) / median with the quartiles of
statistics.quantiles(n=4), next to the metric's bound from BENCHMARK.json.
A spread above the bound marks the metric WIDE; above a third of it, NOISY.
It measures one checkout only; comparing a parent with a change needs runs
of both, alternated. Runs are sequential: never two workloads at once.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, command: list[str]) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    command = [sys.executable] + bench["command"][1:]

    values: dict[str, dict[str, list[float]]] = {}
    worst = "ok"
    for workload in args.workloads:
        values[workload] = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in args.seeds:
            result = run_once(workload, seed, args.seconds, command)
            if not result["correct"]:
                worst = "incorrect"
            for name, metric in result["metrics"].items():
                values[workload][name].append(metric["value"])
            print(f"{workload} seed {seed}: failed {result['failed']}/{result['attempted']} "
                  + " ".join(f"{name}={m['value']:.4g}" for name, m in result["metrics"].items()),
                  file=sys.stderr)
        for m in bench["end_to_end"]:
            vals = values[workload][m["name"]]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            flag = "WIDE" if spread > m["bound"] else "NOISY" if spread > m["bound"] / 3 else ""
            line = (f"{workload:16s} {m['name']:13s} median {med:<12.6g} spread {spread:7.2%}"
                    f"  bound {m['bound']:.0%} {flag}")
            if flag and worst == "ok":
                worst = flag
            print(line)
    return 0 if worst in ("ok", "NOISY") else 1


if __name__ == "__main__":
    sys.exit(main())
