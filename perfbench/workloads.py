"""Workload definitions and their seeded inputs.

Every workload runs the same operations, so every end-to-end metric exists
on every workload; the sizes decide which layers do the work.

- paper: the bundled 2-knot config on a 1001-point tau grid, with a 2**20-pair
  simulation for peak memory and a 2**16-pair one timed. Quadrature, welfare
  and figures do the policy commands' work; the kernel and the reductions do
  the simulations' and set peak memory.
- piecewise-mixed: seeded 33-knot piecewise-linear beta and y. Quadrature
  crosses ~64 kinks per point, part of the grid is in the all-unsafe regime,
  and the inverse CDF searches 33 knots, so a 2-knot shortcut is bypassed.
  Its peak-memory simulation has 2**19 pairs.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

FIGURES_GRID = 101
N_KNOTS = 33
# paper.cfg's scalars, except the two that move part of the tau grid into the
# all-unsafe regime (gap(0) = 0.05 < u) and beta* down to where quadrature slips
PIECEWISE_SCALARS = (
    ("theta_L", "0.2"),
    ("theta_H", "0.8"),
    ("v", "1"),
    ("c", "0.55"),
    ("c_h", "0.5"),
    ("z", "2.5"),
    ("u", "0.08"),
    ("tau_hat", "0.5"),
)


# Pairs of the timed simulation. At 2**16 pairs its arrays stay in a core's
# L2 cache; at 2**20 the kernel is memory-bound, ~1.75x slower per pair here,
# and moved by up to 30% between ten-run sets as other tenants of the host
# took the shared L3. Peak memory comes from one untimed run at `peak_pairs`.
TIMED_PAIRS = 65_536


@dataclass(frozen=True)
class Workload:
    name: str
    grid: int  # sweep grid and evaluate_point loop grid
    peak_pairs: int  # the one large simulation, which sets peak_rss_mb
    piecewise: bool
    pairs: int = TIMED_PAIRS


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper", grid=1001, peak_pairs=1_048_576, piecewise=False),
        Workload("piecewise-mixed", grid=201, peak_pairs=524_288, piecewise=True),
    )
}


def tau_grid(n: int) -> list[float]:
    """The CLI's own grid formula, so loop points equal sweep.csv points."""
    return [i / (n - 1) for i in range(n)]


def random_knots(rng: random.Random, lo: float, hi: float) -> list[tuple[float, float]]:
    """N_KNOTS CDF knots on [lo, hi]: jittered spacing, random segment mass."""
    step = (hi - lo) / (N_KNOTS - 1)
    xs = [lo]
    for k in range(1, N_KNOTS - 1):
        xs.append(lo + step * (k + rng.uniform(-0.3, 0.3)))
    xs.append(hi)
    masses = [rng.uniform(0.5, 1.5) for _ in range(N_KNOTS - 1)]
    total = sum(masses)
    ps = [0.0]
    acc = 0.0
    for m in masses[:-1]:
        acc += m
        ps.append(acc / total)
    ps.append(1.0)
    return list(zip(xs, ps))


def _write_knots(path: Path, knots) -> None:
    lines = ["x,p"] + [f"{x!r},{p!r}" for x, p in knots]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_uniform_beta_and_u(config: Path) -> tuple[tuple, float]:
    """(beta knots (xs, ps), u) of a config whose dist_beta is uniform(a,b),
    parsed here rather than by the program, for the exactness gate."""
    values = {}
    for line in config.read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition("#")[0].partition("=")
        if sep:
            values[key.strip()] = value.strip()
    match = re.fullmatch(r"uniform\(([^,]+),([^)]+)\)", values["dist_beta"].replace(" ", ""))
    if match is None:
        raise ValueError(f"{config}: dist_beta is not uniform(a,b): {values['dist_beta']}")
    lo, hi = float(match[1]), float(match[2])
    return ((lo, hi), (0.0, 1.0)), float(values["u"])


class Inputs(NamedTuple):
    config: Path
    beta_knots: tuple  # (xs, ps), as written for the program
    u: float


def make_inputs(workload: Workload, seed: int, root: Path, out: Path) -> Inputs:
    """The config file the program reads, generated when seeded, and the
    values the exactness gate takes from the benchmark's side, not the
    program's parser."""
    if not workload.piecewise:
        config = root / "paper.cfg"
        return Inputs(config, *read_uniform_beta_and_u(config))
    rng = random.Random(seed)
    beta = random_knots(rng, 0.0, 1.0)
    _write_knots(out / "beta_knots.csv", beta)
    _write_knots(out / "y_knots.csv", random_knots(rng, 0.0, 2.0))
    lines = [f"{k} = {v}" for k, v in PIECEWISE_SCALARS]
    lines += ["dist_beta = piecewise:beta_knots.csv", "dist_y = piecewise:y_knots.csv"]
    path = out / "piecewise.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return Inputs(path, tuple(zip(*beta)), float(dict(PIECEWISE_SCALARS)["u"]))
