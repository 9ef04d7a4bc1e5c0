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
from .montecarlo import (
    Estimates,
    SimResult,
    analytic_targets,
    simulate,
)

__version__ = "0.1.0"
