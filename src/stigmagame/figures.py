"""Figure-data tables and a minimal deterministic SVG line renderer.

Each table is a named CSV payload; the SVG output is a pure function of the
table (fixed dimensions, fixed palette, no timestamps) so rendered figures
stay diffable across runs.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .coordination import hot_threshold
from .signaling import ModelParams, pointwise_continuation
# unused here; perfbench/tracer.py patches these names, so they must still resolve
from .signaling import continuation_values, stigma_level  # noqa: F401
from .welfare import SweepRow, _point, _require_preconditions, tau_grid
from .welfare import sweep  # noqa: F401  perfbench/tracer.py spans figures.sweep

__all__ = ["FigureTable", "figure_tables", "line_chart_svg"]

_FIG2_STIGMA = (0.25, 0.5, 0.75, 1.0)
_CURVE_POINTS = 201


class FigureTable(NamedTuple):
    """comments are (label, value) pairs, written as `# label = value`."""

    name: str
    comments: tuple[tuple[str, float | str], ...]
    header: tuple[str, ...]
    rows: list[tuple[float, ...]]


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def figure_tables(
    params: ModelParams, tau_hat: float, grid_points: int, convention: str = "corrected"
) -> list[FigureTable]:
    """Build the five figure tables for the given parameter set.

    1: per-valuation continuation values of both risk types at the stigma
       level of the policy value tau_hat; 2: the high-risk curve at several
       stigma levels; 3: the unsafe-region boundary in the pair-bias plane at
       the natural policy and at tau_hat; 4: the policy sweep panels;
       5: demeaned group welfare and total welfare over the policy grid.
    """
    _require_preconditions(params, convention)
    y_lo, y_hi = params.dist_y.support_lo, params.dist_y.support_hi
    ys = _linspace(y_lo, y_hi, _CURVE_POINTS)
    now = _point(params, tau_hat, convention)[0]

    fig1 = FigureTable(
        name="fig1",
        comments=(("stigma S", now.S),),
        header=("y", "V_L", "V_H"),
        rows=[
            (
                y,
                pointwise_continuation(params, now.S, y, "L"),
                pointwise_continuation(params, now.S, y, "H"),
            )
            for y in ys
        ],
    )

    fig2 = FigureTable(
        name="fig2",
        comments=(),
        header=("y",) + tuple(f"V_H[S={s:g}]" for s in _FIG2_STIGMA),
        rows=[
            (y,) + tuple(
                pointwise_continuation(params, s, y, "H") for s in _FIG2_STIGMA
            )
            for y in ys
        ],
    )

    b_lo = params.dist_beta.support_lo
    b_hi = params.dist_beta.support_hi
    bs = _linspace(b_lo, b_hi, _CURVE_POINTS)
    points = [_point(params, t, convention) for t in tau_grid(grid_points)]
    # the grid starts at tau_hat = 0, the natural policy
    bstar_natural = hot_threshold(params.u, points[0][0].gap)
    bstar_policy = hot_threshold(params.u, now.gap)

    def boundary(bstar: float, b1: float) -> float:
        return min(max(2.0 * bstar - b1, b_lo), b_hi)

    fig3 = FigureTable(
        name="fig3",
        comments=(
            ("hot threshold natural", bstar_natural),
            ("hot threshold policy ", bstar_policy),
        ),
        header=("beta_1", "unsafe_boundary_natural", "unsafe_boundary_policy"),
        rows=[
            (b1, boundary(bstar_natural, b1), boundary(bstar_policy, b1))
            for b1 in bs
        ],
    )

    fig4 = FigureTable(
        name="fig4",
        comments=(),
        header=SweepRow._fields,
        rows=[point[0] for point in points],
    )

    # terms are (welfare_high, welfare_low, welfare_B_discriminators, welfare_B_accepters)
    groups = [(row.tau_hat, terms[0], terms[1], row.W_B, row.W) for row, terms, _ in points]
    n = len(groups)
    means = [sum(row[k] for row in groups) / n for k in range(1, 5)]
    fig5 = FigureTable(
        name="fig5",
        comments=(("convention", convention),),
        header=(
            "tau_hat",
            "welfare_high_demeaned",
            "welfare_low_demeaned",
            "welfare_B_demeaned",
            "W_demeaned",
        ),
        rows=[
            (row[0],) + tuple(row[k] - means[k - 1] for k in range(1, 5))
            for row in groups
        ],
    )
    return [fig1, fig2, fig3, fig4, fig5]


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_W, _H = 640, 480
_ML, _MR, _MT, _MB = 64, 16, 32, 44


def line_chart_svg(table: FigureTable) -> str:
    """Render the table as a fixed-size SVG line chart (column 0 is x)."""
    xs = [row[0] for row in table.rows]
    series = [
        (name, [row[k] for row in table.rows])
        for k, name in enumerate(table.header)
        if k > 0
    ]
    finite = [v for _, vals in series for v in vals if math.isfinite(v)]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(finite), max(finite)
    if x_max == x_min:
        x_max = x_min + 1.0
    if y_max == y_min:
        y_max = y_min + 1.0
    pad = 0.05 * (y_max - y_min)
    y_min -= pad
    y_max += pad
    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB

    def px(x: float) -> float:
        return _ML + (x - x_min) / (x_max - x_min) * plot_w

    def py(y: float) -> float:
        return _MT + (y_max - y) / (y_max - y_min) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333333" stroke-width="1"/>',
        f'<text x="{_ML}" y="20" font-family="monospace" font-size="14">'
        f"{table.name}</text>",
    ]
    for idx, (name, vals) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        points = " ".join(
            f"{px(x):.2f},{py(v):.2f}"
            for x, v in zip(xs, vals)
            if math.isfinite(v)
        )
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{points}"/>'
        )
        parts.append(
            f'<text x="{_W - _MR - 150}" y="{_MT + 16 + 14 * idx}" '
            f'font-family="monospace" font-size="11" fill="{color}">{name}</text>'
        )
    for frac, label in ((0.0, x_min), (1.0, x_max)):
        parts.append(
            f'<text x="{_ML + frac * plot_w:.2f}" y="{_H - _MB + 16}" '
            f'font-family="monospace" font-size="11" text-anchor="middle">'
            f"{label:.4g}</text>"
        )
    for frac, label in ((0.0, y_min), (1.0, y_max)):
        parts.append(
            f'<text x="{_ML - 6}" y="{_MT + (1 - frac) * plot_h:.2f}" '
            f'font-family="monospace" font-size="11" text-anchor="end">'
            f"{label:.4g}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
