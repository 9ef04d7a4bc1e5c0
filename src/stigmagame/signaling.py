"""Second-period analytics: stigma, best responses, testing rates and
continuation values for the partially separating outcome.

Population B discriminates against observed testing whenever its own
interaction value falls below the perceived-risk cutoff; the mass of such
players is the stigma index S. Population A tests when the health gain net
of the expected social loss S*y is positive, which only ever attracts
high-risk players, so testing is an informative signal.

All operations are pure functions of immutable inputs.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .distributions import DistributionSpec, _checked, cdf, cdf_and_moment
# unused here; perfbench/tracer.py patches this name, so it must still resolve
from .distributions import partial_expectation  # noqa: F401

__all__ = [
    "AssumptionViolation",
    "ModelParams",
    "rejection_cutoff",
    "stigma_level",
    "testing_threshold",
    "continuation_values",
    "pointwise_continuation",
]


class AssumptionViolation(ValueError):
    """A maintained model assumption fails for the given parameters."""

    def __init__(self, assumption: str, message: str):
        self.assumption = assumption
        super().__init__(f"{assumption} violated: {message}")


_NON_NEGATIVE = ("v", "c", "c_h", "z", "u", "M")
MAX_BETA_KNOTS = 512  # the table behind r holds about knots**2 / 2 breakpoints


def _check_tau(tau_hat: float) -> None:
    if not 0.0 <= tau_hat <= 1.0:
        raise ValueError(f"tau_hat must lie in [0, 1], got {tau_hat!r}")


@_checked
class ModelParams(NamedTuple):
    """Exogenous scalars plus the two population distributions.

    theta_L/theta_H: infection probabilities of the low/high risk types.
    v: treatment benefit of a positive test; c: direct testing cost;
    c_h: infection cost (choice-irrelevant); z: partner's health cost if
    infected; u: period-1 payoff premium of the unsafe choice; M: period-1
    payoff of successful coordination; tau_hat: the configured perceived
    transmission risk (the policy instrument); tau_true: actual transmission
    risk, which the analysis takes to be 0. dist_beta governs present bias,
    dist_y interaction valuations; both supports start at 0 or above.

    Only the CLI reads tau_hat, and _validate checks it: every library
    function takes the policy value it evaluates as an argument.
    """

    theta_L: float
    theta_H: float
    v: float
    c: float
    c_h: float
    z: float
    u: float
    dist_beta: DistributionSpec
    dist_y: DistributionSpec
    tau_hat: float
    M: float = 1.0
    tau_true: float = 0.0

    def _validate(self):
        if not 0.0 < self.theta_L < self.theta_H < 1.0:
            raise ValueError(
                f"need 0 < theta_L < theta_H < 1, got "
                f"({self.theta_L!r}, {self.theta_H!r})"
            )
        for name, val in zip(_NON_NEGATIVE, (self.v, self.c, self.c_h, self.z, self.u, self.M)):
            if not 0.0 <= val < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {val!r}")
        _check_tau(self.tau_hat)
        if self.tau_true != 0.0:
            raise ValueError(
                f"tau_true must be 0 (the analysis assumes no actual transmission "
                f"risk), got {self.tau_true!r}"
            )
        # the closed forms take valuations and present bias to be non-negative
        if not min(self.dist_beta.knots_x[0], self.dist_y.knots_x[0]) >= 0.0:
            name = "dist_beta" if self.dist_beta.knots_x[0] < 0.0 else "dist_y"
            lo = getattr(self, name).support_lo
            raise ValueError(f"{name} support must start at 0 or above, got {lo!r}")
        if len(self.dist_beta.knots_x) > MAX_BETA_KNOTS:
            raise ValueError(f"dist_beta has more knots than the limit of {MAX_BETA_KNOTS}")
        # testing must be worthwhile for high risk only; checked here rather
        # than silently assumed downstream
        if not self.theta_L * self.v < self.c:
            raise AssumptionViolation(
                "assumption 1",
                f"theta_L*v = {self.theta_L * self.v!r} must be < c = {self.c!r}",
            )
        if not self.c < self.theta_H * self.v:
            raise AssumptionViolation(
                "assumption 1",
                f"c = {self.c!r} must be < theta_H*v = {self.theta_H * self.v!r}",
            )


def rejection_cutoff(params: ModelParams, tau_hat: float) -> float:
    """tau_hat*theta_H*z: B rejects a tested partner below this valuation."""
    return tau_hat * params.theta_H * params.z


def stigma_level(params: ModelParams, tau_hat: float) -> float:
    """Mass of B players who reject a tested partner: G(tau_hat*theta_H*z)."""
    return cdf(params.dist_y, rejection_cutoff(params, tau_hat))


def testing_threshold(params: ModelParams, S: float) -> float:
    """Valuation below which a high-risk player tests; +inf when S = 0."""
    if S == 0.0:
        return math.inf
    return (params.theta_H * params.v - params.c) / S


def continuation_values(params: ModelParams, S: float) -> tuple[float, float, float, float]:
    """(EV_L, EV_H, gap, R_H): expected period-2 payoffs by risk type, from
    one lookup of G_y and E[y; y <= y*] at the testing threshold y*.

    EV_H adds the expected testing bonus
    integral of (theta_H*v - c - y*S) over y below y*, evaluated in closed
    form through the CDF and the truncated first moment; R_H = G_y(y*) is
    the high-risk testing rate. The gap is c_h*(theta_H - theta_L) - bonus,
    not EV_L - EV_H: both of those carry E[y], which cancels on wide
    valuation supports.
    """
    net = params.theta_H * params.v - params.c
    r_h, pe = cdf_and_moment(params.dist_y, testing_threshold(params, S))
    bonus = net * r_h - S * pe
    mu = params.dist_y.mean
    ev_l = mu - params.theta_L * params.c_h
    ev_h = mu - params.theta_H * params.c_h + bonus
    # net*G <= net (G <= 1) and S*E[y; y <= y*] >= 0 (y >= 0), so in floats
    # bonus <= net and gap >= assumption3_margin, with equality at S = 0
    return ev_l, ev_h, params.c_h * (params.theta_H - params.theta_L) - bonus, r_h


def pointwise_continuation(params: ModelParams, S: float, y_a: float, risk: str) -> float:
    """Period-2 payoff at a single valuation y_a for risk type "L" or "H"."""
    if risk == "L":
        return y_a - params.theta_L * params.c_h
    if risk != "H":
        raise ValueError(f"risk must be 'L' or 'H', got {risk!r}")
    value = y_a - params.theta_H * params.c_h
    net = params.theta_H * params.v - params.c - S * y_a
    if net > 0.0:
        value += net
    return value
