"""One-dimensional distributions and quadrature.

A distribution is a piecewise-linear CDF given by knots; uniform on [lo, hi)
is the two-knot case, not a separate family. The CDF and density are pure
Python over the knots; the mean reads a running-sum table of first moments,
cdf_and_moment reads the CDF and the truncated first moment at a threshold
from one search of the knots and that table, and r reads a table of the CDF
of the sum of two draws; each table is built once per spec. The simulation's vectorized inverse CDF
lives in _kernels, next to numpy. The adaptive quadrature is not on the
analysis path; the tests use it as an independent oracle for r.

Support convention is half-open [lo, hi): cdf(lo) = 0 and any tie at a
threshold resolves downward. Boundary mass is zero for the continuous
distributions used here, so the convention only pins down determinism.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import cached_property, wraps
from itertools import accumulate
from operator import add, itemgetter, mul, sub, truediv
from typing import NamedTuple

__all__ = [
    "DistributionSpec",
    "QuadratureError",
    "uniform",
    "piecewise_linear_cdf",
    "cdf",
    "density",
    "cdf_and_moment",
    "partial_expectation",
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


def _checked(cls):
    """Class decorator for a NamedTuple whose instances must pass cls._validate:
    building, _replace, _make and unpickling all run it, through __new__.
    Wrong-arity errors and inspect.signature come from the wrapped __new__."""
    new = cls.__new__

    @wraps(new)
    def __new__(cls, /, *args, **kwargs):  # positional-only: no field can collide with it
        self = new(cls, *args, **kwargs)
        self._validate()
        return self

    cls.__new__ = __new__
    cls._make = classmethod(lambda cls, iterable: cls(*iterable))
    return cls


@_checked
class DistributionSpec(NamedTuple("DistributionSpec", [
    ("knots_x", tuple[float, ...]), ("knots_p", tuple[float, ...]),
])):
    """Immutable spec for a bounded 1-D distribution, stored as CDF knots (x
    strictly increasing, p from 0 to 1 non-decreasing, each segment's density
    at most 1e150 and width over mass finite), built by :func:`uniform` or
    :func:`piecewise_linear_cdf`. Its __dict__ caches mean, moment_table and sum_cdf_table.
    """

    def _validate(self):
        xs, ps = self.knots_x, self.knots_p
        if len(xs) != len(ps) or len(xs) < 2:
            raise ValueError("need at least two (x, p) knots")
        # moment_table and cdf_and_moment square the knots
        if any(not math.isfinite(x * x) for x in xs):
            raise ValueError(
                "knot positions must be finite with finite squares (|x| <= 1.34e154)"
            )
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("knot positions must be strictly increasing")
        if any(not 0.0 <= p <= 1.0 for p in ps):
            raise ValueError("knot probabilities must be finite and lie in [0, 1]")
        if any(b < a for a, b in zip(ps, ps[1:])):
            raise ValueError("knot probabilities must be non-decreasing")
        if ps[0] != 0.0 or ps[-1] != 1.0:
            raise ValueError("knot probabilities must start at 0 and end at 1")
        # sum_cdf_table's G'' reaches about knots * density**2; inf makes moments nan
        top = max(map(truediv, map(sub, ps[1:], ps), map(sub, xs[1:], xs)))
        if top > 1e150:
            raise ValueError(f"a segment density above 1e150 ({top:.3g})")
        # knot_arrays' inverse-CDF slope, width over mass, overflows on a subnormal mass
        if math.inf in (w / m for w, m in zip(map(sub, xs[1:], xs), map(sub, ps[1:], ps)) if m):
            raise ValueError("a segment whose width over mass overflows")

    @property
    def support_lo(self) -> float:
        return self.knots_x[0]

    @property
    def support_hi(self) -> float:
        return self.knots_x[-1]

    @cached_property
    def mean(self) -> float:
        """Expected value, the last of moment_table's running sums; cached, since
        the chain reads E[y] at every τ."""
        return self.moment_table[1][-1]

    @cached_property
    def moment_table(self) -> tuple:
        """(slopes, totals): each segment's CDF slope and the running sums of the
        segments' first moments in segment order, totals[k] = E[X; X < x_k]."""
        xs, ps = self.knots_x, self.knots_p
        slopes = list(map(truediv, map(sub, ps[1:], ps), map(sub, xs[1:], xs)))
        terms = [s * (x1 * x1 - x0 * x0) * 0.5 for s, x0, x1 in zip(slopes, xs, xs[1:])]
        return slopes, list(accumulate(terms, initial=0.0))

    @cached_property
    def sum_cdf_table(self) -> tuple:
        """G, the CDF of the sum of two draws: with J_i the density jump at x_i,
        G(s) = sum_ij J_i J_j (s - x_i - x_j)_+^2 / 2 (Bradley & Gupta 2002, Ann.
        Inst. Statist. Math. 54:689). (T, coef): the sorted x_i + x_j, and per
        interval G, G' and G''/2 at its left end; knots and float densities scale
        to integers by powers of two, so each is exact until it is divided by its
        power of two, once, here."""
        xs, ps, n = self.knots_x, self.knots_p, len(self.knots_x)
        dens = list(map(truediv, map(sub, ps[1:], ps), map(sub, xs[1:], xs)))
        xr, dr = [x.as_integer_ratio() for x in xs], [d.as_integer_ratio() for d in dens]
        a, b = (max(q for _, q in r).bit_length() - 1 for r in (xr, dr))  # units 2**-a, 2**-b
        X = [p << a + 1 - q.bit_length() for p, q in xr]
        D = [0, *[p << b + 1 - q.bit_length() for p, q in dr], 0]
        J = list(map(sub, D[1:], D))
        # (float x_i + x_j, exact x_i + x_j, 2 J_i J_j or J_i^2 at i = j): the sort is exact
        pairs = [(y + xs[j], x + X[j], w * J[j]) for i, y, x, w
                 in zip(range(n), xs, X, map((2).__mul__, J)) for j in range(i + 1, n)]
        pairs += zip(map(add, xs, xs), map(add, X, X), map(mul, J, J))
        pairs.sort()
        ts = list(map(itemgetter(1), pairs))
        width = list(map(sub, ts[1:], ts))
        curv = list(accumulate(map(itemgetter(2), pairs)))
        slope = list(accumulate(map(mul, curv, width), initial=0))
        value = accumulate(map(mul, map(add, slope, slope[1:]), width), initial=0)
        # float divisors while every integer here is below 2**1000, else exact ints
        base = 2.0 if 2 * (a + b + max(D).bit_length()) + n.bit_length() < 1000 else 2
        g_div, slope_div, curv_div = (base**e for e in (2 * a + 2 * b + 1, a + 2 * b, 2 * b + 1))
        coef = [(g / g_div, d / slope_div, k / curv_div) for g, d, k in zip(value, slope, curv)]
        return list(map(itemgetter(0), pairs)), coef

    # cached_property writes mean and the tables into __dict__ directly, past these two
    def __setattr__(self, name, value):
        raise AttributeError(f"DistributionSpec is read-only, cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"DistributionSpec is read-only, cannot delete {name!r}")


def uniform(lo: float, hi: float) -> DistributionSpec:
    """Uniform distribution on [lo, hi)."""
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"uniform needs finite lo < hi, got ({lo!r}, {hi!r})")
    return DistributionSpec((float(lo), float(hi)), (0.0, 1.0))


def piecewise_linear_cdf(knots) -> DistributionSpec:
    """Distribution whose CDF linearly interpolates the given (x, p) knots."""
    xs = tuple(float(x) for x, _ in knots)
    ps = tuple(float(p) for _, p in knots)
    return DistributionSpec(xs, ps)


def cdf(spec: DistributionSpec, x: float) -> float:
    """P(X < x), clamped to [0, 1]; 0 below the support and 1 above it."""
    xs = spec.knots_x
    if x <= xs[0]:
        return 0.0
    if x >= xs[-1]:
        return 1.0
    ps = spec.knots_p
    k = bisect_right(xs, x) - 1
    try:
        return ps[k] + (x - xs[k]) * (ps[k + 1] - ps[k]) / (xs[k + 1] - xs[k])
    except IndexError:  # only NaN passes both end tests and bisects past the last knot
        raise ValueError(f"threshold must be a number, got {x!r}") from None


def density(spec: DistributionSpec, x: float) -> float:
    """CDF slope at x; evaluated on the closed support so quadrature over
    [lo, hi] sees a piecewise-constant integrand without boundary spikes."""
    xs = spec.knots_x
    if x < xs[0] or x > xs[-1]:
        return 0.0
    ps = spec.knots_p
    k = min(bisect_right(xs, x), len(xs) - 1) - 1
    return (ps[k + 1] - ps[k]) / (xs[k + 1] - xs[k])


def cdf_and_moment(spec: DistributionSpec, t: float) -> tuple[float, float]:
    """(cdf(spec, t), E[X * 1{X <= t}]) from one search of the knots.

    The CDF is cdf's expression, bit for bit. The moment's full segments
    below t come from spec.moment_table, so spec.mean equals the moment at
    support_hi exactly.
    """
    xs = spec.knots_x
    if t <= xs[0]:
        return 0.0, 0.0
    slopes, totals = spec.moment_table
    if t >= xs[-1]:
        return 1.0, totals[-1]
    ps = spec.knots_p
    k = bisect_right(xs, t) - 1
    x0 = xs[k]
    try:
        return (ps[k] + (t - x0) * (ps[k + 1] - ps[k]) / (xs[k + 1] - x0),
                totals[k] + slopes[k] * (t * t - x0 * x0) * 0.5)
    except IndexError:  # as in cdf, only NaN gets here
        raise ValueError(f"threshold must be a number, got {t!r}") from None


def partial_expectation(spec: DistributionSpec, t: float) -> float:
    """Truncated first moment E[X * 1{X <= t}], cdf_and_moment's second value."""
    return cdf_and_moment(spec, t)[1]


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
