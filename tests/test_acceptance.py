"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line (run with `pytest -s tests/test_acceptance.py`)."""

import time

import numpy as np

from stigmagame import (
    analytic_targets,
    check_assumptions,
    evaluate_point,
    high_risk_fraction,
    optimize,
    present_bias_loss,
    simulate,
    sweep,
    uniform,
    welfare,
)
from stigmagame import cli

from conftest import PAPER_CFG, quadrature_r, random_valid_params

SEED = 20240810


def report(num: int, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    in_time = elapsed <= budget
    status = "PASS" if (ok and in_time) else "FAIL"
    print(
        f"criterion {num}: {status} - {detail} [{elapsed:.2f}s of {budget:.0f}s budget]"
    )
    assert ok, detail
    assert in_time, f"criterion {num} exceeded runtime budget: {elapsed:.2f}s"


def paper_config_params():
    return cli.load_config(PAPER_CFG).params


def test_criterion_1_paper_parameter_fidelity():
    t0 = time.perf_counter()
    params = paper_config_params()
    rep = check_assumptions(params, params.tau_hat)
    bound = (params.theta_H * params.v - params.c) / (params.theta_H - params.theta_L)
    inequality_ok = rep.a3_holds and params.c_h > bound and abs(bound - 0.25 / 0.6) < 1e-12
    grid = [i / 100 for i in range(101)]
    rows = sweep(params, grid)
    stigma_ok = all(abs(row.S - g) <= 1e-12 for g, row in zip(grid, rows))
    report(
        1,
        inequality_ok and stigma_ok,
        "gap inequality 1 > 0.25/0.6 reproduced and S tracks tau_hat within 1e-12",
        time.perf_counter() - t0,
        1.0,
    )


def test_criterion_2_monotonicity_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    taus = [i / 20 for i in range(21)]
    violations = 0
    for _ in range(200):
        p = random_valid_params(rng)
        prev_s, prev_rh, prev_gap, prev_r = -1.0, 2.0, -1.0, 2.0
        for tau in taus:
            row = evaluate_point(p, tau)
            s, gap, r, r_h = row.S, row.gap, row.r, row.R_H
            if s < prev_s - 1e-10 or r_h > prev_rh + 1e-10:
                violations += 1
            if gap < prev_gap - 1e-10 or r > prev_r + 1e-10:
                violations += 1
            prev_s, prev_rh, prev_gap, prev_r = s, r_h, gap, r
    report(
        2,
        violations == 0,
        "S up, R_H down, gap up, r down in tau_hat over 200 random parameter sets",
        time.perf_counter() - t0,
        10.0,
    )


def test_criterion_3_closed_form_vs_quadrature():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    beta01 = uniform(0.0, 1.0)
    worst_formula = worst_quad = 0.0
    for beta_star in rng.uniform(0.0, 0.5, size=100):
        r = high_risk_fraction(beta01, float(beta_star))
        worst_formula = max(worst_formula, abs(r - 2.0 * float(beta_star) ** 2))
        worst_quad = max(worst_quad, abs(r - quadrature_r(beta01, float(beta_star))))
    report(
        3,
        worst_formula <= 1e-12 and worst_quad <= 1e-12,
        f"uniform r vs closed form 2*beta*^2 (worst gap {worst_formula:.2e}) "
        f"and vs the double-integral quadrature (worst gap {worst_quad:.2e})",
        time.perf_counter() - t0,
        5.0,
    )


def test_criterion_4_simulation_oracle_agreement():
    t0 = time.perf_counter()
    params = paper_config_params()
    ok = True
    worst = 0.0
    for tau in (0.0, 0.25, 0.5, 0.75, 1.0):
        res = simulate(params, tau, 500_000, SEED)
        tgt = analytic_targets(params, tau)
        for key in ("r", "R", "R_H", "W"):
            est, se, target = (getattr(e, key) for e in (res.hat, res.stderr, tgt))
            gap = abs(est - target)
            ok = ok and gap <= 3.0 * se + 1e-12
            if se > 0:
                worst = max(worst, gap / se)
    report(
        4,
        ok,
        f"r, R, R_H, W within 3 standard errors at five policies, worst z {worst:.2f}",
        time.perf_counter() - t0,
        60.0,
    )


def test_criterion_5_welfare_curve_shape():
    t0 = time.perf_counter()
    params = paper_config_params()
    w0 = welfare(params, 0.0).W
    w1 = welfare(params, 1.0).W
    res = optimize(params, tol=1e-6)
    corrected_ok = (
        w1 > w0 and 0.25 <= res.tau_star <= 0.50 and res.W_star > max(w0, w1)
    )
    # the literal B bookkeeping must fail the same comparison; asserting the
    # failure documents that only the corrected convention matches the
    # qualitative claim
    lit0 = welfare(params, 0.0, "paper_literal").W
    lit1 = welfare(params, 1.0, "paper_literal").W
    literal_fails_as_expected = lit1 < lit0
    report(
        5,
        corrected_ok and literal_fails_as_expected,
        f"corrected: W(1) > W(0), argmax {res.tau_star:.3f} in [0.25, 0.50]; "
        "paper-literal comparison flips as documented",
        time.perf_counter() - t0,
        5.0,
    )


def test_criterion_6_limits_and_kinks():
    t0 = time.perf_counter()
    params = paper_config_params()
    row0 = evaluate_point(params, 0.0)
    zero_ok = row0.R_H == 1.0 and row0.R == row0.r
    rows = sweep(params, [i / 1000 for i in range(126)])  # tau_hat up to 0.125
    kink_ok = all(row.R_H == 1.0 for row in rows)
    above = sweep(params, [0.126, 0.2])
    past_ok = all(row.R_H < 1.0 for row in above)
    report(
        6,
        zero_ok and kink_ok and past_ok,
        "S -> 0 limit returns R_H = 1, R = r; R_H pinned at 1 up to tau_hat = 0.125",
        time.perf_counter() - t0,
        1.0,
    )


def test_criterion_7_byte_identical_reruns(tmp_path):
    t0 = time.perf_counter()
    pairs_of_dirs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        rc1 = cli.main(
            ["sweep", "--config", str(PAPER_CFG), "--grid", "101", "--out", str(out)]
        )
        rc2 = cli.main(
            [
                "simulate",
                "--config",
                str(PAPER_CFG),
                "--pairs",
                "200000",
                "--seed",
                str(SEED),
                "--out",
                str(out),
            ]
        )
        assert rc1 == 0 and rc2 == 0
        pairs_of_dirs.append(out)
    a, b = pairs_of_dirs
    same = (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes() and (
        a / "sim.csv"
    ).read_bytes() == (b / "sim.csv").read_bytes()
    report(
        7,
        same,
        "sweep.csv and sim.csv byte-identical across repeated runs",
        time.perf_counter() - t0,
        90.0,
    )


def test_criterion_8_present_bias_loss():
    t0 = time.perf_counter()
    params = paper_config_params()
    loss = present_bias_loss(params)
    r0 = 2.0 * (0.1 / 0.35) ** 2
    ok = (
        abs(loss.continuation_loss - r0 * 0.35) <= 1e-9
        and abs(loss.total_shortfall - r0 * 0.25) <= 1e-9
    )
    report(
        8,
        ok,
        f"loss {loss.continuation_loss:.9f} ~ 0.057142857 and benchmark "
        f"shortfall {loss.total_shortfall:.9f} ~ 0.040816327",
        time.perf_counter() - t0,
        5.0,
    )
