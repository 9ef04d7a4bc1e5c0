"""Two-period testing-stigma game: equilibrium chain, welfare analysis,
and an agent-based cross-check, with a policy CLI on top."""

from .distributions import (
    DistributionSpec,
    QuadratureError,
    cdf,
    integrate,
    mean,
    partial_expectation,
    piecewise_linear_cdf,
    uniform,
)
from .signaling import (
    AssumptionReport,
    AssumptionViolation,
    ModelParams,
    check_assumptions,
    continuation_values,
    pointwise_continuation,
    stigma_level,
    testing_rates,
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
    OptimizeResult,
    PolicyDecomposition,
    PresentBiasLoss,
    SweepRow,
    WelfareReport,
    decomposition,
    evaluate_point,
    first_best_benchmark,
    optimize,
    present_bias_loss,
    sweep,
    welfare,
)
from .montecarlo import (
    Estimates,
    SimConfig,
    SimResult,
    analytic_targets,
    simulate,
)

__version__ = "0.1.0"
