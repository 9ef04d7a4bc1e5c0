"""One-dimensional distributions and quadrature.

Two families are supported: uniform on [lo, hi) and a piecewise-linear CDF
given by knots. Both reduce internally to the knot representation, so the
CDF, mean, truncated first moment, and inverse-CDF sampler share one code
path. Scalar evaluation stays in pure Python (the period-1 chain calls it a
few times per knot); sampling is vectorized through numpy. The adaptive
quadrature is not on the analysis path; the tests use it as an
independent oracle for the closed-form high-risk fraction.

Support convention is half-open [lo, hi): cdf(lo) = 0 and any tie at a
threshold resolves downward. Boundary mass is zero for the continuous
distributions used here, so the convention only pins down determinism.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DistributionSpec",
    "QuadratureError",
    "uniform",
    "piecewise_linear_cdf",
    "cdf",
    "density",
    "mean",
    "partial_expectation",
    "ppf",
    "sample",
    "knot_arrays",
    "ppf_from_knots",
    "integrate",
]


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach tolerance within the depth cap.

    Carries the best available estimate and the achieved error bound so a
    caller can decide whether the partial answer is usable.
    """

    def __init__(self, estimate: float, error_bound: float):
        self.estimate = estimate
        self.error_bound = error_bound
        super().__init__(
            f"quadrature did not converge: estimate={estimate!r}, "
            f"achieved error bound={error_bound!r}"
        )


@dataclass(frozen=True)
class DistributionSpec:
    """Immutable spec for a bounded 1-D distribution.

    kind is "uniform" or "piecewise_linear_cdf"; both are stored as CDF
    knots (x strictly increasing, p from 0 to 1 non-decreasing). Construct
    through :func:`uniform` or :func:`piecewise_linear_cdf`.
    """

    kind: str
    knots_x: tuple[float, ...]
    knots_p: tuple[float, ...]

    def __post_init__(self):
        xs, ps = self.knots_x, self.knots_p
        if self.kind not in ("uniform", "piecewise_linear_cdf"):
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if len(xs) != len(ps) or len(xs) < 2:
            raise ValueError("need at least two (x, p) knots")
        if any(not math.isfinite(x) for x in xs):
            raise ValueError("knot positions must be finite")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("knot positions must be strictly increasing")
        if any(not 0.0 <= p <= 1.0 for p in ps):
            raise ValueError("knot probabilities must be finite and lie in [0, 1]")
        if any(b < a for a, b in zip(ps, ps[1:])):
            raise ValueError("knot probabilities must be non-decreasing")
        if ps[0] != 0.0 or ps[-1] != 1.0:
            raise ValueError("knot probabilities must start at 0 and end at 1")

    @property
    def support_lo(self) -> float:
        return self.knots_x[0]

    @property
    def support_hi(self) -> float:
        return self.knots_x[-1]


def uniform(lo: float, hi: float) -> DistributionSpec:
    """Uniform distribution on [lo, hi)."""
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"uniform needs finite lo < hi, got ({lo!r}, {hi!r})")
    return DistributionSpec("uniform", (float(lo), float(hi)), (0.0, 1.0))


def piecewise_linear_cdf(knots) -> DistributionSpec:
    """Distribution whose CDF linearly interpolates the given (x, p) knots."""
    xs = tuple(float(x) for x, _ in knots)
    ps = tuple(float(p) for _, p in knots)
    return DistributionSpec("piecewise_linear_cdf", xs, ps)


def cdf(spec: DistributionSpec, x: float) -> float:
    """P(X < x), clamped to [0, 1]; 0 below the support and 1 above it."""
    xs = spec.knots_x
    if x <= xs[0]:
        return 0.0
    if x >= xs[-1]:
        return 1.0
    if spec.kind == "uniform":
        return (x - xs[0]) / (xs[1] - xs[0])
    ps = spec.knots_p
    k = bisect_right(xs, x) - 1
    return ps[k] + (x - xs[k]) * (ps[k + 1] - ps[k]) / (xs[k + 1] - xs[k])


def density(spec: DistributionSpec, x: float) -> float:
    """CDF slope at x; evaluated on the closed support so quadrature over
    [lo, hi] sees a piecewise-constant integrand without boundary spikes."""
    xs = spec.knots_x
    if x < xs[0] or x > xs[-1]:
        return 0.0
    if spec.kind == "uniform":
        return 1.0 / (xs[1] - xs[0])
    ps = spec.knots_p
    k = bisect_right(xs, x) - 1
    if k >= len(xs) - 1:
        k = len(xs) - 2
    return (ps[k + 1] - ps[k]) / (xs[k + 1] - xs[k])


def partial_expectation(spec: DistributionSpec, t: float) -> float:
    """Truncated first moment E[X * 1{X <= t}].

    Accumulated segment by segment so that mean(spec) equals
    partial_expectation(spec, support_hi) exactly.
    """
    xs, ps = spec.knots_x, spec.knots_p
    if t <= xs[0]:
        return 0.0
    total = 0.0
    for k in range(len(xs) - 1):
        x0, x1 = xs[k], xs[k + 1]
        if t <= x0:
            break
        slope = (ps[k + 1] - ps[k]) / (x1 - x0)
        hi = x1 if t >= x1 else t
        total += slope * (hi * hi - x0 * x0) * 0.5
    return total


def mean(spec: DistributionSpec) -> float:
    """Expected value; exact for both supported families."""
    if math.isinf(spec.support_hi):
        raise ValueError("mean undefined")
    return partial_expectation(spec, spec.support_hi)


def knot_arrays(spec: DistributionSpec) -> tuple[np.ndarray, np.ndarray]:
    """CDF knots as float64 arrays for vectorized/compiled inverse sampling."""
    return (
        np.asarray(spec.knots_x, dtype=np.float64),
        np.asarray(spec.knots_p, dtype=np.float64),
    )


def ppf_from_knots(u, xs: np.ndarray, ps: np.ndarray):
    """Inverse CDF for u in [0, 1) given knot arrays. Vectorized.

    The compiled simulation kernel mirrors this formula term for term; any
    change here must be reflected there to keep the backends bit-identical.
    """
    u = np.asarray(u, dtype=np.float64)
    k = np.searchsorted(ps, u, side="right") - 1
    k = np.clip(k, 0, len(ps) - 2)
    p0 = ps[k]
    den = ps[k + 1] - p0
    safe = np.where(den > 0.0, den, 1.0)
    x = xs[k] + (u - p0) * (xs[k + 1] - xs[k]) / safe
    return np.where(den > 0.0, x, xs[k])


def ppf(spec: DistributionSpec, q: float) -> float:
    """Scalar inverse CDF for q in [0, 1]."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q!r}")
    xs, ps = knot_arrays(spec)
    return float(ppf_from_knots(q, xs, ps))


def sample(spec: DistributionSpec, stream: np.random.Generator, size=None):
    """Inverse-CDF draws from a caller-owned numpy Generator.

    Returns a scalar when size is None, else an ndarray of shape `size`.
    """
    u = stream.random(size)
    xs, ps = knot_arrays(spec)
    out = ppf_from_knots(u, xs, ps)
    return float(out) if size is None else out


def integrate(
    f,
    a: float,
    b: float,
    tol: float = 1e-10,
    max_depth: int = 60,
    min_depth: int = 6,
) -> float:
    """Adaptive Simpson quadrature of f on [a, b] to absolute tolerance tol.

    Exact for cubics on smooth pieces; kinks and jumps are resolved by
    bisection up to max_depth. The first min_depth levels always refine:
    the Richardson error estimate can be accidentally small when a
    discontinuity lines up with the probe points, so acceptance is only
    trusted below that scale. Raises :class:`QuadratureError` (carrying the
    best estimate and achieved error bound) if any subinterval hits the
    depth cap before meeting its share of the tolerance.
    """
    if not a <= b:
        raise ValueError(f"need a <= b, got ({a!r}, {b!r})")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if a == b:
        return 0.0
    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    est, err, ok = _adapt(f, a, b, fa, fm, fb, whole, tol, max_depth, min_depth)
    if not ok:
        raise QuadratureError(est, err)
    return est


def _adapt(f, a, b, fa, fm, fb, whole, tol, depth, force):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    # standard Richardson acceptance: |delta|/15 bounds the refined error
    if force <= 0 and abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0, abs(delta) / 15.0, True
    if depth <= 0:
        return left + right + delta / 15.0, abs(delta) / 15.0, False
    le, lerr, lok = _adapt(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1, force - 1)
    re, rerr, rok = _adapt(f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1, force - 1)
    return le + re, lerr + rerr, lok and rok
