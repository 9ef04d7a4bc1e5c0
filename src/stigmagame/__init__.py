"""Two-period testing-stigma game: equilibrium chain, welfare analysis,
and an agent-based cross-check, with a policy CLI on top."""

from .distributions import (
    DistributionSpec,
    QuadratureError,
    cdf,
    integrate,
    partial_expectation,
    piecewise_linear_cdf,
    uniform,
)
from .signaling import (
    AssumptionViolation,
    ModelParams,
    continuation_values,
    pointwise_continuation,
    stigma_level,
    testing_threshold,
)
from .coordination import (
    Period1Outcome,
    high_risk_fraction,
    hot_fraction,
    hot_threshold,
    period1_outcome,
)
from .welfare import (
    AssumptionReport,
    OptimizeResult,
    PolicyDecomposition,
    PresentBiasLoss,
    SweepRow,
    WelfareReport,
    check_assumptions,
    decomposition,
    evaluate_point,
    first_best_benchmark,
    optimize,
    present_bias_loss,
    sweep,
    welfare,
)

__version__ = "0.1.0"
# montecarlo loads on the first use of one of these, not with the analytic chain
_SIMULATION = ("Estimates", "SimResult", "analytic_targets", "simulate")


def __getattr__(name):
    if name not in _SIMULATION:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import montecarlo
    return getattr(montecarlo, name)


def __dir__():
    return sorted({*globals(), *_SIMULATION})
