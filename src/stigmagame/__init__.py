"""Two-period testing-stigma game: equilibrium chain, welfare analysis,
and an agent-based cross-check, with a policy CLI on top."""

from .distributions import *
from .signaling import *
from .coordination import *
from .welfare import *

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
