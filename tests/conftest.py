import math
import os
import shutil
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from stigmagame import ModelParams, piecewise_linear_cdf, uniform
from stigmagame._kernels import knot_arrays, ppf_from_knots
from stigmagame.coordination import hot_threshold, period1_outcome
from stigmagame.distributions import cdf, density, integrate
from stigmagame.signaling import rejection_cutoff, stigma_level
from stigmagame.welfare import SweepRow, WelfareReport

REPO_ROOT = Path(__file__).resolve().parent.parent
PAPER_CFG = REPO_ROOT / "paper.cfg"
# 33-knot piecewise beta and y, generated by perfbench/workloads.py at seed 1
PIECEWISE_CFG = REPO_ROOT / "tests" / "data" / "piecewise.cfg"
# W peaks above its natural level, just past a kink a 101-point grid steps over
KINKED_CFG = REPO_ROOT / "tests" / "data" / "kinked_optimum.cfg"
# present bias up to 2, so that beta* = u/gap lies above 1 at tau_hat = 0.5
BETA_ABOVE_ONE_CFG = REPO_ROOT / "tests" / "data" / "beta_above_one.cfg"


def config_copy(config: Path, directory: Path, **keys) -> Path:
    """A copy of config in directory with each given key set to its value (its
    line replaced, or a line added), beside copies of the knot files that its
    piecewise: values name, which are relative to the config."""
    lines = []
    for line in config.read_text(encoding="utf-8").splitlines():
        key, _, value = (part.strip() for part in line.split("#", 1)[0].partition("="))
        if value.startswith("piecewise:"):
            name = value.removeprefix("piecewise:").strip()
            shutil.copyfile(config.parent / name, directory / name)
        lines.append(f"{key} = {keys.pop(key)}" if key in keys else line)
    lines += [f"{key} = {value}" for key, value in keys.items()]
    path = directory / config.name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def src_env() -> dict:
    """Environment for a fresh interpreter that imports this checkout's src/."""
    path = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


def pytest_configure(config):
    # hypothesis caches the constants it finds in the package under its home
    # directory (default ./.hypothesis) at collection, even without an example
    # database; give it a temporary one
    home = tempfile.mkdtemp(prefix="hypothesis-")
    set_hypothesis_home_dir(home)
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))


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


def ppf(spec, q):
    """Inverse CDF through the simulation kernel's ppf_from_knots: a scalar
    for a scalar q, else an ndarray of q's shape."""
    u = np.array(q, dtype=np.float64)  # a copy, which the kernel maps in place
    flat = u.reshape(-1)
    ppf_from_knots(flat, knot_arrays(spec), scratch=(np.empty(flat.size), np.empty(flat.size, bool)))
    return u if u.ndim else float(flat[0])


def ppf_reference(spec, u) -> np.ndarray:
    """The search-and-interpolate inverse CDF, the oracle that ppf_from_knots
    must equal bit for bit: the segment k = clip(searchsorted(ps, u,
    "right") - 1, 0, n - 2), then x0 + (u - p0) * slope with slope its width
    over its mass, or its left end if it has no mass."""
    xs = np.asarray(spec.knots_x, dtype=np.float64)
    ps = np.asarray(spec.knots_p, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    den = ps[1:] - ps[:-1]
    slope = (xs[1:] - xs[:-1]) / np.where(den > 0.0, den, 1.0)
    k = np.clip(np.searchsorted(ps, u, side="right") - 1, 0, len(ps) - 2)
    return np.where(den[k] > 0.0, xs[k] + (u - ps[k]) * slope[k], xs[k])


def ppf_division_reference(spec, u) -> np.ndarray:
    """ppf_reference with the segment's width multiplied in before its mass
    divides, x0 + (u - p0) * (x1 - x0) / (p1 - p0): the form the slope's
    rounding is measured against."""
    xs = np.asarray(spec.knots_x, dtype=np.float64)
    ps = np.asarray(spec.knots_p, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    k = np.clip(np.searchsorted(ps, u, side="right") - 1, 0, len(ps) - 2)
    den = ps[k + 1] - ps[k]
    x = xs[k] + (u - ps[k]) * (xs[k + 1] - xs[k]) / np.where(den > 0.0, den, 1.0)
    return np.where(den > 0.0, x, xs[k])


def unit_reference(seed: int, counters: np.ndarray) -> np.ndarray:
    """splitmix64's output function keyed on (seed, counter), as uniform
    doubles in [0, 1 - 2**-32]: row 0 from each output's low 32 bits, row 1
    from its high 32 bits. The kernel's RNG written as one expression per step."""
    z = np.uint64(seed) + (counters + np.uint64(1)) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return np.array([z & np.uint64(0xFFFFFFFF), z >> np.uint64(32)]) * 2.0**-32


def simulate_pairs_reference(seed, first_pair, n_pairs, params, row, literal_b):
    """The pair kernel in expression form, every intermediate a new array,
    drawing through ppf_reference: the oracle that _kernels.simulate_pairs
    (same arguments, plus the two knot_arrays tables) must equal byte for
    byte in both outputs, w and the outcome code. Like the kernel, it reads
    S, tau_hat and the gap (so the hot threshold beta*) from the SweepRow."""
    p, stigma = params, row.S
    beta_star = hot_threshold(p.u, row.gap)
    cutoff = rejection_cutoff(p, row.tau_hat)
    # draw k of pair i: half k % 2 (low, high) of counter 3 i + k // 2's output
    base = (np.arange(n_pairs, dtype=np.uint64) + np.uint64(first_pair)) * np.uint64(3)
    units = [unit_reference(seed, base + np.uint64(j)) for j in range(3)]
    b1, b2, ya1, ya2, yb1, yb2 = (
        ppf_reference(p.dist_beta if k < 2 else p.dist_y, units[k // 2][k % 2]) for k in range(6)
    )

    hot1 = b1 < beta_star
    hot2 = b2 < beta_star
    unsafe = (hot1 & hot2) | ((hot1 ^ hot2) & (b1 + b2 < 2.0 * beta_star))
    theta = np.where(unsafe, p.theta_H, p.theta_L)
    pay1 = np.where(unsafe, p.M, p.M - p.u)

    net = theta * p.v - p.c
    t1 = net - stigma * ya1 > 0.0
    t2 = net - stigma * ya2 > 0.0
    d1 = yb1 < cutoff
    d2 = yb2 < cutoff
    m1 = ~(d1 & t1)
    m2 = ~(d2 & t2)

    t1f = t1.astype(np.float64)
    t2f = t2.astype(np.float64)
    m1f = m1.astype(np.float64)
    m2f = m2.astype(np.float64)
    ua1 = pay1 + t1f * net - theta * p.c_h + m1f * ya1
    ua2 = pay1 + t2f * net - theta * p.c_h + m2f * ya2
    if literal_b:
        ub1 = np.where(d1, t1f, 1.0) * yb1
        ub2 = np.where(d2, t2f, 1.0) * yb2
    else:
        ub1 = m1f * yb1
        ub2 = m2f * yb2
    w = 0.5 * (ua1 + ua2 + ub1 + ub2)

    nhot = hot1.astype(np.uint8) + hot2.astype(np.uint8)
    ntest = t1.astype(np.uint8) + t2.astype(np.uint8)
    ndisc = d1.astype(np.uint8) + d2.astype(np.uint8)
    code = unsafe.astype(np.uint8) + 2 * nhot + 6 * ntest + 18 * ndisc
    return w, code


def pair_outcome(beta_1: float, beta_2: float, beta_star: float) -> str:
    """Equilibrium a matched pair coordinates on: "safe" or "unsafe".

    A player exactly at beta_star counts as cold, and a mixed pair exactly
    at the joint threshold plays safe; both ties are measure-zero and fixed
    for determinism.
    """
    hot_1 = beta_1 < beta_star
    hot_2 = beta_2 < beta_star
    if hot_1 and hot_2:
        return "unsafe"
    if not hot_1 and not hot_2:
        return "safe"
    return "unsafe" if beta_1 + beta_2 < 2.0 * beta_star else "safe"


def best_response_test(theta_a: float, y_a: float, S: float, params: ModelParams) -> int:
    """1 iff testing beats abstaining: theta_a*v - c - S*y_a > 0 (strict)."""
    return 1 if theta_a * params.v - params.c - S * y_a > 0.0 else 0


def best_response_interact(t_a: int, y_b: float, params: ModelParams, tau_hat: float) -> int:
    """B accepts any untested partner; a tested one only above the cutoff at
    the policy value tau_hat.

    Indifference at the cutoff resolves to acceptance.
    """
    if t_a == 0:
        return 1
    return 1 if y_b >= rejection_cutoff(params, tau_hat) else 0


def sample(spec, stream: np.random.Generator, size=None):
    """Inverse-CDF draws from a numpy Generator through the kernel's
    ppf_from_knots: a scalar when size is None, else an ndarray."""
    return ppf(spec, stream.random(size))


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
    h = cdf(spec, beta_star)
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


def partial_expectation_reference(spec, t: float) -> float:
    """E[X * 1{X <= t}] summed segment by segment, the loop that
    distributions.partial_expectation's table of running sums must equal
    bit for bit."""
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


def exact_r(spec, beta_star: float) -> Fraction:
    """High-risk fraction in exact rationals, an oracle that shares no code
    with the program: the sum over pairs of segments k, l (those with mass)
    of m_k m_l P(U_k + U_l < 2 beta*), with U_k uniform on segment k and m_k
    its mass. P is the share of the rectangle of the two segments below the
    line u + v = 2 beta*, by inclusion-exclusion over its four corners."""
    s = 2 * Fraction(beta_star)
    xs = [Fraction(x) for x in spec.knots_x]
    ps = [Fraction(p) for p in spec.knots_p]
    segments = [(a, b, q - p) for a, b, p, q in zip(xs, xs[1:], ps, ps[1:]) if q > p]

    def corner(c):  # area of {u, v >= 0: u + v < c}
        return c * c / 2 if c > 0 else 0

    total = Fraction(0)
    for a0, a1, m in segments:
        for b0, b1, n in segments:
            area = corner(s - a0 - b0) - corner(s - a1 - b0) - corner(s - a0 - b1) + corner(s - a1 - b1)
            total += m * n * area / ((a1 - a0) * (b1 - b0))
    return total


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


def point_reference(params: ModelParams, tau_hat: float, convention: str):
    """(SweepRow, WelfareReport) at tau_hat composed link by link, with a
    separate CDF read and truncated-moment read at each threshold:
    stigma_level, continuation_values' arithmetic with the segment-loop
    moment (its CDF read at y* is R_H), period1_outcome, then the moment at
    the cutoff.
    welfare._point, which reads both values from one knot lookup per
    threshold, must equal it bit for bit."""
    p, y = params, params.dist_y
    s = stigma_level(p, tau_hat)
    net = p.theta_H * p.v - p.c
    y_star = net / s if s else math.inf  # a high-risk player tests below it
    r_h = cdf(y, y_star)
    bonus = net * r_h
    bonus -= s * partial_expectation_reference(y, y_star)
    ev_l = y.mean - p.theta_L * p.c_h
    ev_h = y.mean - p.theta_H * p.c_h + bonus
    gap = p.c_h * (p.theta_H - p.theta_L) - bonus
    p1 = period1_outcome(p, gap)
    r_pop = p1.r * r_h
    w_high = p1.r * (p.M + ev_h)
    w_low = (1.0 - p1.r) * (p.M - p.u + ev_l)
    pe = partial_expectation_reference(y, rejection_cutoff(p, tau_hat))
    w_disc = ((1.0 - r_pop) if convention == "corrected" else r_pop) * pe
    w_acc = y.mean - pe
    w_a, w_b = w_high + w_low, w_disc + w_acc
    row = SweepRow(tau_hat, s, gap, p1.H, p1.r, r_h, r_pop, w_a, w_b, w_a + w_b)
    return row, WelfareReport(w_a, w_b, w_a + w_b, w_high, w_low, w_disc, w_acc)
