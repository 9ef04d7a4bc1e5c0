"""The analytic chain in exact rationals, an oracle that shares no code with
the program: every parameter and knot is read as the Fraction its float
holds, and each link of tau_hat -> S -> gap -> beta* -> r -> R -> W is
evaluated without rounding. The CDF and the truncated first moment are sums
over the knot segments; r comes from conftest.exact_r.
"""

import math
from fractions import Fraction

from conftest import exact_r

FIELDS = ("tau_hat", "S", "gap", "H", "r", "R_H", "R", "W_A", "W_B", "W")


def _segments(spec):
    """(x0, x1, p0, p1) of each knot segment, as Fractions."""
    xs = [Fraction(x) for x in spec.knots_x]
    ps = [Fraction(p) for p in spec.knots_p]
    return list(zip(xs, xs[1:], ps, ps[1:]))


def cdf(spec, x):
    """P(X < x) for a Fraction x or +inf."""
    for x0, x1, p0, p1 in _segments(spec):
        if x < x1:
            return p0 + (max(x, x0) - x0) * (p1 - p0) / (x1 - x0)
    return Fraction(1)


def partial_expectation(spec, t):
    """E[X; X < t] for a Fraction t or +inf."""
    total = Fraction(0)
    for x0, x1, p0, p1 in _segments(spec):
        hi = min(max(t, x0), x1)
        total += (p1 - p0) / (x1 - x0) * (hi * hi - x0 * x0) / 2
    return total


def chain(params, tau_hat, convention):
    """The sweep row's fields at tau_hat, as a dict of Fractions."""
    scalars = ("theta_L", "theta_H", "v", "c", "c_h", "z", "u", "M")
    q = {k: Fraction(getattr(params, k)) for k in scalars}
    tau = Fraction(tau_hat)
    y = params.dist_y
    mean = partial_expectation(y, math.inf)
    cutoff = tau * q["theta_H"] * q["z"]
    s = cdf(y, cutoff)
    net = q["theta_H"] * q["v"] - q["c"]
    y_star = net / s if s else math.inf
    bonus = net * cdf(y, y_star) - s * partial_expectation(y, y_star)
    gap = q["c_h"] * (q["theta_H"] - q["theta_L"]) - bonus
    ev_l = mean - q["theta_L"] * q["c_h"]
    ev_h = mean - q["theta_H"] * q["c_h"] + bonus
    beta_star = q["u"] / gap
    r = exact_r(params.dist_beta, beta_star)
    r_h = cdf(y, y_star)
    r_pop = r * r_h
    w_a = r * (q["M"] + ev_h) + (1 - r) * (q["M"] - q["u"] + ev_l)
    pe = partial_expectation(y, cutoff)
    w_b = (1 - r_pop if convention == "corrected" else r_pop) * pe + mean - pe
    values = (tau, s, gap, cdf(params.dist_beta, beta_star), r, r_h, r_pop, w_a, w_b, w_a + w_b)
    return dict(zip(FIELDS, values))
