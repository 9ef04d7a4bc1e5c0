"""In-memory span and count tracer, installed from outside the program.

Each wrapper replaces a public function at the name its caller looks up
(`coordination.cdf` is what `high_risk_fraction` calls, `cli.sweep` is what
the sweep command calls), so nothing under src/ changes and uninstall()
restores the untraced program exactly. A span is (id, name, start, end,
parent id); hot scalar functions get count-only wrappers.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (module, attribute, span name); every call also bumps a count of that name
SPANS = (
    ("cli", "load_config", "cli.load_config"),
    ("cli", "sweep", "welfare.sweep"),
    ("figures", "sweep", "welfare.sweep"),
    ("cli", "optimize", "welfare.optimize"),
    ("cli", "evaluate_point", "welfare.evaluate_point"),
    ("cli", "check_assumptions", "signaling.check_assumptions"),
    ("cli", "figure_tables", "figures.figure_tables"),
    ("cli", "line_chart_svg", "figures.line_chart_svg"),
    ("cli", "simulate", "montecarlo.simulate"),
    ("cli", "analytic_targets", "montecarlo.analytic_targets"),
    ("welfare", "continuation_values", "signaling.continuation_values"),
    ("figures", "continuation_values", "signaling.continuation_values"),
    ("montecarlo", "continuation_values", "signaling.continuation_values"),
    ("signaling", "continuation_values", "signaling.continuation_values"),
    ("coordination", "high_risk_fraction", "coordination.high_risk_fraction"),
    ("coordination", "integrate", "distributions.integrate"),
    ("_kernels", "ppf_from_knots", "kernels.ppf_from_knots"),
    ("_kernels", "simulate_pairs", "kernels.simulate_pairs"),
)
# callers of period1_outcome; each caller's calls are also counted on their own
PERIOD1_CALLERS = ("welfare", "montecarlo", "coordination")
COUNTS = (
    ("coordination", "cdf", "coordination.cdf"),
    ("coordination", "density", "coordination.density"),
    ("signaling", "cdf", "signaling.cdf"),
    ("signaling", "partial_expectation", "distributions.partial_expectation"),
    ("welfare", "partial_expectation", "distributions.partial_expectation"),
    ("distributions", "partial_expectation", "distributions.partial_expectation"),
    ("welfare", "welfare", "welfare.welfare"),
    ("welfare", "stigma_level", "signaling.stigma_level"),
    ("figures", "stigma_level", "signaling.stigma_level"),
    ("montecarlo", "stigma_level", "signaling.stigma_level"),
    ("signaling", "stigma_level", "signaling.stigma_level"),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, int, int, int]] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._stack = [0]
        self._patches = []

    def spanned(self, fn, name: str, after=None):
        """fn wrapped in a span; after(args, result) may add counts."""
        spans, stack, counts, ids = self.spans, self._stack, self.counts, self._ids
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            counts[name] += 1
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans.append((sid, name, start, clock(), stack[-1]))
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counted(self, fn, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, short: str, attr: str, make) -> None:
        # through sys.modules: `stigmagame.welfare` is the re-exported function
        mod = sys.modules[f"stigmagame.{short}"]
        original = getattr(mod, attr)
        self._patches.append((mod, attr, original))
        setattr(mod, attr, make(original))

    def install(self) -> None:
        counts = self.counts

        def after(attr):
            if attr == "ppf_from_knots":
                def ppf(args, result):
                    counts["distributions.ppf_values"] += int(np.size(args[0]))
                return ppf
            if attr == "simulate_pairs":
                def kernel(args, result):
                    counts["kernels.pairs"] += int(args[2])
                    counts["kernels.out_bytes"] += sum(int(a.nbytes) for a in result)
                return kernel
            return None

        def regime(args, result):
            counts["coordination.interior"] += result.regime == "interior"

        for short, attr, name in SPANS:
            self._patch(short, attr, lambda f, n=name, a=after(attr): self.spanned(f, n, a))
        for short, attr, name in COUNTS:
            self._patch(short, attr, lambda f, n=name: self.counted(f, n))
        for short in PERIOD1_CALLERS:
            self._patch(short, "period1_outcome", lambda f, s=short: self.counted(
                self.spanned(f, "coordination.period1_outcome", regime),
                f"{s}.period1_outcome",
            ))

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent in sorted(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent}) + "\n")


def _ms(ns: int) -> float:
    return ns / 1e6


def layer_metrics(spans, counts: Counter, op_counts: dict, grid: int) -> dict:
    """Per-layer metrics of one traced pass.

    spans: the pass's spans; counts: the pass's counts; op_counts: counts
    made under each benchmark operation (by operation name); grid: points of
    the sweep command and of the evaluate_point loop.
    """
    total = defaultdict(int)
    child = defaultdict(int)
    for sid, name, start, end, parent in spans:
        total[name] += end - start
        child[parent] += end - start
    self_ns = defaultdict(int)
    for sid, name, start, end, parent in spans:
        self_ns[name] += end - start - child[sid]

    hrf = counts["coordination.high_risk_fraction"]
    p1 = counts["coordination.period1_outcome"]
    chain = op_counts["sweep"]["welfare.period1_outcome"] + op_counts["loop"]["welfare.period1_outcome"]
    kernel = total["kernels.simulate_pairs"]
    return {
        "coordination.high_risk_fraction_calls": (hrf, "count"),
        "coordination.high_risk_fraction_ms": (_ms(total["coordination.high_risk_fraction"]), "ms"),
        "coordination.integrand_evals_per_call": (
            (counts["coordination.cdf"] + counts["coordination.density"]) / hrf, "ratio"),
        "distributions.integrate_ms": (_ms(total["distributions.integrate"]), "ms"),
        "coordination.period1_outcome_calls": (p1, "count"),
        "coordination.interior_share": (counts["coordination.interior"] / p1, "ratio"),
        "welfare.chain_evals_per_point": (chain / (2 * grid), "ratio"),
        "welfare.sweep_ms": (_ms(total["welfare.sweep"]), "ms"),
        "welfare.optimize_ms": (_ms(total["welfare.optimize"]), "ms"),
        "welfare.optimize_objective_evals": (op_counts["optimize"]["welfare.welfare"], "count"),
        "figures.figure_tables_ms": (_ms(total["figures.figure_tables"]), "ms"),
        "figures.line_chart_svg_ms": (_ms(total["figures.line_chart_svg"]), "ms"),
        "figures.chain_evals": (op_counts["figures"]["signaling.continuation_values"], "count"),
        "signaling.stigma_level_calls": (counts["signaling.stigma_level"], "count"),
        "signaling.continuation_values_calls": (counts["signaling.continuation_values"], "count"),
        "signaling.continuation_values_ms": (_ms(total["signaling.continuation_values"]), "ms"),
        "distributions.partial_expectation_calls": (
            counts["distributions.partial_expectation"], "count"),
        "distributions.cdf_calls": (counts["coordination.cdf"] + counts["signaling.cdf"], "count"),
        "kernels.simulate_pairs_ms": (_ms(kernel), "ms"),
        "kernels.ppf_ms": (_ms(total["kernels.ppf_from_knots"]), "ms"),
        "kernels.ppf_share": (total["kernels.ppf_from_knots"] / kernel, "ratio"),
        "kernels.self_ms": (_ms(self_ns["kernels.simulate_pairs"]), "ms"),
        "distributions.ppf_values": (counts["distributions.ppf_values"], "count"),
        "kernels.out_bytes_per_pair": (counts["kernels.out_bytes"] / counts["kernels.pairs"], "B/pair"),
        "montecarlo.simulate_ms": (_ms(total["montecarlo.simulate"]), "ms"),
        "montecarlo.reduce_ms": (_ms(self_ns["montecarlo.simulate"]), "ms"),
        "montecarlo.analytic_targets_ms": (_ms(total["montecarlo.analytic_targets"]), "ms"),
        "cli.load_config_ms": (_ms(total["cli.load_config"]), "ms"),
        "cli.self_ms.sweep": (_ms(self_ns["cli.sweep"]), "ms"),
        "cli.self_ms.figures": (_ms(self_ns["cli.figures"]), "ms"),
        "cli.self_ms.simulate": (_ms(self_ns["cli.simulate"]), "ms"),
    }

