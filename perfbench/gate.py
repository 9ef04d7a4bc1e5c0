"""Exactness gate: the benchmark's own references and output checks.

Nothing here imports the program. The period-1 high-risk fraction

    r = H^2 + 2 * integral_{max(b*, lo)}^{min(2b*, hi)} F(2b* - b) f(b) db

has a piecewise-linear integrand for every piecewise-linear CDF: f is constant
between the knots x_k and F(2b* - b) is linear between the points 2b* - x_k.
A trapezoid rule over the merged breakpoints is therefore exact, and
math.fsum keeps the summation error at the last bit.
"""

from __future__ import annotations

import csv
import io
import math
from bisect import bisect_right

R_TOL = 1e-10  # the tolerance the program states for r
R_WRONG = 1e-4  # a miss this large is a wrong answer, not a tolerance slip
SIM_Z = 5.0
SIM_NAMES = ("r", "R", "R_H", "S", "W")
ROW_KEYS = ("tau_hat", "S", "gap", "H", "r", "R_H", "R", "W_A", "W_B", "W")

# kinds of failure; all count in `failed`, all but TOLERANCE make `correct` false
EXIT, IDENTITY, CSV_ROW, SIM, TOLERANCE, WRONG = (
    "exit", "identity", "csv_row", "sim", "tolerance", "wrong_r",
)


def knot_cdf(xs, ps, x: float) -> float:
    if x <= xs[0]:
        return 0.0
    if x >= xs[-1]:
        return 1.0
    k = bisect_right(xs, x) - 1
    return ps[k] + (x - xs[k]) * (ps[k + 1] - ps[k]) / (xs[k + 1] - xs[k])


def exact_r(xs, ps, beta_star: float) -> float:
    """High-risk fraction for knots (xs, ps) at hot threshold beta_star."""
    h = knot_cdf(xs, ps, min(beta_star, 1.0))
    lo = max(beta_star, xs[0])
    hi = min(2.0 * beta_star, xs[-1])
    if hi <= lo:
        return h * h
    cuts = {lo, hi}
    for x in xs:
        if lo < x < hi:
            cuts.add(x)
        mirrored = 2.0 * beta_star - x
        if lo < mirrored < hi:
            cuts.add(mirrored)
    pts = sorted(cuts)
    terms = []
    for a, b in zip(pts, pts[1:]):
        k = bisect_right(xs, 0.5 * (a + b)) - 1
        slope = (ps[k + 1] - ps[k]) / (xs[k + 1] - xs[k])
        fa = knot_cdf(xs, ps, 2.0 * beta_star - a)
        fb = knot_cdf(xs, ps, 2.0 * beta_star - b)
        terms.append((b - a) * slope * (fa + fb) * 0.5)
    return h * h + 2.0 * math.fsum(terms)


def reference_r(xs, ps, u: float, gap: float) -> float:
    """r at a continuation gap: 1 when u >= gap (all pairs unsafe)."""
    if u >= gap:
        return 1.0
    return exact_r(xs, ps, u / gap)


class Gate:
    """Collects failures as (kind, operation, detail) without aborting."""

    def __init__(self):
        self.failures: list[tuple[str, str, str]] = []

    def fail(self, kind: str, op: str, detail: str) -> None:
        self.failures.append((kind, op, detail))

    @property
    def correct(self) -> bool:
        return all(kind == TOLERANCE for kind, _, _ in self.failures)

    def exit_code(self, op: str, code: int, err: str) -> bool:
        if code != 0:
            self.fail(EXIT, op, f"exit {code}: {err.strip()[-200:]}")
        return code == 0

    def row_identities(self, op: str, row: dict, exact: bool) -> bool:
        """R == r*R_H and W == W_A + W_B; exact for library rows, to 12
        printed digits for CSV rows."""
        pairs = ((row["R"], row["r"] * row["R_H"]), (row["W"], row["W_A"] + row["W_B"]))
        for got, want in pairs:
            ok = got == want if exact else math.isclose(got, want, rel_tol=1e-11, abs_tol=1e-13)
            if not ok:
                self.fail(IDENTITY, op, f"tau={row['tau_hat']!r}: {got!r} != {want!r}")
                return False
        return True

    def r_exact(self, op: str, row: dict, xs, ps, u: float) -> bool:
        ref = reference_r(xs, ps, u, row["gap"])
        miss = abs(row["r"] - ref)
        if miss > R_WRONG:
            self.fail(WRONG, op, f"tau={row['tau_hat']!r}: r={row['r']!r} ref={ref!r}")
        elif miss > R_TOL:
            self.fail(TOLERANCE, op, f"tau={row['tau_hat']!r}: |r-ref|={miss:.3g}")
        return miss <= R_TOL

    def csv_matches(self, op: str, text: str, library: dict, n_rows: int) -> bool:
        """A sweep-shaped CSV has n_rows rows, each equal to the library row
        at the CLI's 12 significant digits and keeping the row identities."""
        rows = list(csv.reader(io.StringIO(text)))
        rows = [r for r in rows if r and not r[0].startswith("#")]
        if tuple(rows[0]) != ROW_KEYS or len(rows) != n_rows + 1:
            self.fail(CSV_ROW, op, f"header {rows[0]!r}, {len(rows) - 1} rows")
            return False
        for raw in rows[1:]:
            row = dict(zip(ROW_KEYS, (float(v) for v in raw)))
            if not self.row_identities(op, row, exact=False):
                return False
            lib = library.get(row["tau_hat"])
            if lib is None:
                self.fail(CSV_ROW, op, f"no library row for tau={raw[0]}")
                return False
            want = [format(lib[k], ".12g") for k in ROW_KEYS]
            if raw != want:
                self.fail(CSV_ROW, op, f"{raw!r} != {want!r}")
                return False
        return True

    def simulation(self, op: str, text: str) -> bool:
        """Each simulated estimate lies within SIM_Z standard errors."""
        rows = [r for r in csv.reader(io.StringIO(text)) if r]
        rec = dict(zip(rows[0], (float(v) for v in rows[1])))
        for name in SIM_NAMES:
            z = abs(rec[f"{name}_hat"] - rec[f"{name}_analytic"]) / rec[f"{name}_se"]
            if not z <= SIM_Z:
                self.fail(SIM, op, f"{name}: |z| = {z:.3g}")
                return False
        return True
