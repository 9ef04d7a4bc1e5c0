"""Records are NamedTuples, frozen like tuples.

DistributionSpec and ModelParams are checked: the `_checked`
decorator wraps their __new__, so every way of building one (the
constructor, _replace, _make, unpickling) runs the same checks with the
same messages. The tests find checked records by that wrapper, and each
must have a row in CHECKS. The other records hold results and check nothing.
The "sim" rows check simulate's run arguments, given by keyword and by position.
"""

import importlib
import inspect
import math
import pickle
import pkgutil

import pytest

import stigmagame
from stigmagame import (
    AssumptionViolation,
    DistributionSpec,
    ModelParams,
    evaluate_point,
    piecewise_linear_cdf,
    simulate,
    uniform,
)
from stigmagame.cli import load_config

from conftest import PIECEWISE_CFG

SPEC = piecewise_linear_cdf([(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)])
SIM = {"tau_hat": 0.5, "n_pairs": 10, "seed": 1}  # simulate's arguments after params

# (field changes, error, message) per check, in the order the checks run
PARAMS_CHECKS = [
    ({"theta_L": 0.9}, ValueError, "need 0 < theta_L < theta_H < 1, got (0.9, 0.8)"),
    *[({name: -1.0}, ValueError, f"{name} must be finite and >= 0, got -1.0")
      for name in ("v", "c", "c_h", "z", "u", "M")],
    ({"tau_hat": 1.5}, ValueError, "tau_hat must lie in [0, 1], got 1.5"),
    ({"tau_hat": math.nan}, ValueError, "tau_hat must lie in [0, 1], got nan"),
    ({"dist_beta": uniform(-0.5, 1.0)}, ValueError,
     "dist_beta support must start at 0 or above, got -0.5"),
    ({"dist_y": uniform(-1.0, 2.0)}, ValueError,
     "dist_y support must start at 0 or above, got -1.0"),
    ({"c": 0.1}, AssumptionViolation,
     "assumption 1 violated: theta_L*v = 0.2 must be < c = 0.1"),
    ({"c": 0.9}, AssumptionViolation,
     "assumption 1 violated: c = 0.9 must be < theta_H*v = 0.8"),
]
SPEC_CHECKS = [
    ({"knots_x": (0.0, 1.0)}, ValueError, "need at least two (x, p) knots"),
    ({"knots_x": (0.0, 0.5, 1e200)}, ValueError,
     "knot positions must be finite with finite squares (|x| <= 1.34e154)"),
    ({"knots_x": (0.0, 1.0, 0.5)}, ValueError, "knot positions must be strictly increasing"),
    ({"knots_p": (0.0, 1.5, 1.0)}, ValueError,
     "knot probabilities must be finite and lie in [0, 1]"),
    ({"knots_p": (0.0, 0.6, 0.4)}, ValueError, "knot probabilities must be non-decreasing"),
    ({"knots_p": (0.1, 0.5, 1.0)}, ValueError,
     "knot probabilities must start at 0 and end at 1"),
    ({"knots_x": (0.0, 1e-160, 1.0)}, ValueError, "a segment density above 1e150 (5e+159)"),
    ({"knots_p": (0.0, 5e-324, 1.0)}, ValueError, "a segment whose width over mass overflows"),
]
SIM_CHECKS = [
    ({"n_pairs": 0}, ValueError, "n_pairs must be an int >= 1, got 0"),
    ({"n_pairs": 10.0}, ValueError, "n_pairs must be an int >= 1, got 10.0"),
    ({"seed": -1}, ValueError, "seed must be an int in [0, 2**64), got -1"),
    ({"seed": 2**64}, ValueError, f"seed must be an int in [0, 2**64), got {2**64}"),
    ({"seed": 1.0}, ValueError, "seed must be an int in [0, 2**64), got 1.0"),
    ({"tau_hat": -0.1}, ValueError, "tau_hat must lie in [0, 1], got -0.1"),
    ({"convention": "folk"}, ValueError,
     "convention must be one of ('corrected', 'paper_literal'), got 'folk'"),
]
# test ids number the rows, so rows added later go last and earlier ids keep theirs
CHECKS = (
    [("params", *case) for case in PARAMS_CHECKS]
    + [("spec", *case) for case in SPEC_CHECKS[:6]]
    + [("sim", *case) for case in SIM_CHECKS]
    + [("spec", *case) for case in SPEC_CHECKS[6:]]
)
CHECK_IDS = [f"{kind}-{next(iter(change))}-{i}" for i, (kind, change, *_) in enumerate(CHECKS)]


@pytest.fixture
def checked(paper_params):
    return {"params": paper_params, "spec": SPEC}


@pytest.mark.parametrize("kind, change, error, message", CHECKS, ids=CHECK_IDS)
def test_replace_runs_every_check(checked, kind, change, error, message):
    if kind == "sim":  # the arguments by keyword, as the constructor takes fields
        with pytest.raises(error) as called:
            simulate(checked["params"], **{**SIM, **change})
        assert str(called.value) == message
        return
    base = checked[kind]
    with pytest.raises(error) as replaced:
        base._replace(**change)
    with pytest.raises(error) as built:
        type(base)(**{**base._asdict(), **change})
    assert str(replaced.value) == str(built.value) == message


@pytest.mark.parametrize("kind, change, error, message", CHECKS, ids=CHECK_IDS)
def test_make_and_unpickling_run_every_check(checked, kind, change, error, message):
    if kind == "sim":  # the arguments by position, as _make takes values
        with pytest.raises(error) as called:
            simulate(checked["params"], *{**SIM, **change}.values())
        assert str(called.value) == message
        return
    cls = type(checked[kind])
    values = {**checked[kind]._asdict(), **change}.values()
    with pytest.raises(error) as made:
        cls._make(values)
    unchecked = tuple.__new__(cls, values)  # past the checks, as a corrupt pickle would be
    with pytest.raises(error) as unpickled:
        pickle.loads(pickle.dumps(unchecked))
    assert str(made.value) == str(unpickled.value) == message


def test_replace_keeps_the_checked_type(checked):
    for base in checked.values():
        assert type(base._replace()) is type(base)
        assert base._replace() == base


def _records():
    """Every public record class of the package, by name."""
    records = {}
    for info in pkgutil.iter_modules(stigmagame.__path__):
        module = importlib.import_module(f"stigmagame.{info.name}")
        for name in module.__all__:
            obj = getattr(module, name)
            if isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "_fields"):
                records[name] = obj
    return records


def test_every_checked_record_has_rows(checked):
    """A record whose __new__ the _checked decorator wraps needs an instance in
    `checked` and rows in CHECKS, so every way of building it is tested."""
    wrapped = {cls for cls in _records().values() if hasattr(cls.__new__, "__wrapped__")}
    assert wrapped == {type(obj) for obj in checked.values()}
    assert {kind for kind, *_ in CHECKS} == set(checked) | {"sim"}


@pytest.mark.parametrize("kind", ["params", "spec"])
def test_checked_records_show_their_fields(checked, kind):
    cls = type(checked[kind])
    with pytest.raises(TypeError, match=rf"^{cls.__name__}\.__new__\(\) missing"):
        cls()
    with pytest.raises(TypeError, match=rf"^{cls.__name__}\.__new__\(\) takes"):
        cls(*range(len(cls._fields) + 1))
    assert list(inspect.signature(cls).parameters) == list(cls._fields)


def test_records_are_read_only(checked):
    records = _records()
    assert {
        "Period1Outcome", "AssumptionReport", "WelfareReport", "PolicyDecomposition",
        "PresentBiasLoss", "OptimizeResult", "FigureTable", "PairCounts", "SimResult",
        "RunConfig", "DistributionSpec", "ModelParams", "SweepRow",
        "Estimates", "InverseCdf",
    } <= set(records)
    instances = {type(obj): obj for obj in checked.values()}
    for name, cls in records.items():
        obj = instances.get(cls) or cls._make(range(len(cls._fields)))
        for field in cls._fields:
            with pytest.raises(AttributeError):
                setattr(obj, field, getattr(obj, field))
        with pytest.raises(AttributeError):
            obj.extra = 1


def test_params_survive_a_pickle_round_trip():
    params = load_config(PIECEWISE_CFG).params
    want = evaluate_point(params, 0.3)  # caches dist_y.mean
    back = pickle.loads(pickle.dumps(params))
    assert back == params
    assert type(back) is ModelParams
    assert type(back.dist_y) is DistributionSpec
    assert back.dist_y.mean == params.dist_y.mean
    assert evaluate_point(back, 0.3) == want
