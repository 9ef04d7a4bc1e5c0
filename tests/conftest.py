from pathlib import Path

import numpy as np
import pytest

from stigmagame import ModelParams, piecewise_linear_cdf, uniform
from stigmagame.distributions import cdf, density, integrate

REPO_ROOT = Path(__file__).resolve().parent.parent
PAPER_CFG = REPO_ROOT / "paper.cfg"


@pytest.fixture(scope="session")
def paper_params() -> ModelParams:
    return ModelParams(
        theta_L=0.2,
        theta_H=0.8,
        v=1.0,
        c=0.55,
        c_h=1.0,
        z=2.5,
        u=0.1,
        dist_beta=uniform(0.0, 1.0),
        dist_y=uniform(0.0, 2.0),
        tau_hat=0.5,
    )


def random_valid_params(rng: np.random.Generator, piecewise_y: bool = False) -> ModelParams:
    """Draw parameters satisfying the testing-participation and
    continuation-gap assumptions by construction."""
    theta_L = rng.uniform(0.05, 0.45)
    theta_H = rng.uniform(theta_L + 0.1, 0.95)
    v = rng.uniform(0.5, 2.0)
    lo, hi = theta_L * v, theta_H * v
    c = rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo))
    net = theta_H * v - c
    c_h = net / (theta_H - theta_L) * rng.uniform(1.05, 3.0)
    u = rng.uniform(0.01, 0.5)
    z = rng.uniform(0.5, 4.0)
    y_hi = rng.uniform(0.5, 3.0)
    if piecewise_y:
        xs = [0.0]
        for step in rng.uniform(0.1, 1.0, size=3):
            xs.append(xs[-1] + step)
        scale = y_hi / xs[-1]
        xs = [x * scale for x in xs]
        weights = rng.uniform(0.1, 1.0, size=3)
        total = float(np.sum(weights))
        ps = [0.0]
        for w in weights:
            ps.append(ps[-1] + w / total)
        ps[-1] = 1.0
        dist_y = piecewise_linear_cdf(list(zip(xs, ps)))
    else:
        dist_y = uniform(0.0, y_hi)
    return ModelParams(
        theta_L=theta_L,
        theta_H=theta_H,
        v=v,
        c=c,
        c_h=c_h,
        z=z,
        u=u,
        dist_beta=uniform(0.0, 1.0),
        dist_y=dist_y,
        tau_hat=0.0,
    )


def quadrature_r(spec, beta_star: float) -> float:
    """High-risk fraction by adaptive quadrature, an oracle independent of
    the program's trapezoid sum: H^2 plus twice the integral of
    F(2*beta* - b) f(b) over [max(beta*, lo), min(2*beta*, hi)], split at
    every knot and mirrored knot so that each piece is smooth. Each piece
    takes its constant density at its midpoint, because density() at a knot
    reports the slope of the segment to the right."""
    h = cdf(spec, min(beta_star, 1.0))
    lo = max(beta_star, spec.support_lo)
    hi = min(2.0 * beta_star, spec.support_hi)
    if hi <= lo:
        return h * h
    cuts = {lo, hi}
    for x in spec.knots_x:
        cuts.update(c for c in (x, 2.0 * beta_star - x) if lo < c < hi)
    pts = sorted(cuts)
    mixed = 0.0
    for a, b in zip(pts, pts[1:]):
        f = density(spec, 0.5 * (a + b))
        mixed += integrate(lambda t: cdf(spec, 2.0 * beta_star - t) * f, a, b, 1e-13)
    return h * h + 2.0 * mixed


def random_piecewise_beta(rng: np.random.Generator):
    """Piecewise-linear present-bias CDF on a random sub-interval of [0, 1]
    with 2-9 knots, random spacing and random segment masses (some zero)."""
    n = int(rng.integers(2, 10))
    lo, hi = np.sort(rng.uniform(0.0, 1.0, size=2))
    xs = np.sort(np.concatenate(([lo, hi], rng.uniform(lo, hi, size=n - 2))))
    mass = rng.uniform(0.0, 1.0, size=n - 1) * (rng.random(n - 1) > 0.15)
    mass[rng.integers(0, n - 1)] += 0.5
    ps = np.minimum(np.concatenate(([0.0], np.cumsum(mass) / mass.sum())), 1.0)
    ps[-1] = 1.0
    return piecewise_linear_cdf(list(zip(xs.tolist(), ps.tolist())))
