"""The benchmark's tracer patches program functions by module and name.

perfbench/tracer.py looks each name up in its stigmagame module at install
time, so a refactor that drops or renames one breaks `perfbench/run.py
--trace 1`. This test loads the tracer by file path and checks every name
it patches still resolves to a callable.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _load_tracer()
    targets = [(short, attr) for short, attr, _ in tracer.SPANS + tracer.COUNTS]
    targets += [(short, "period1_outcome") for short in tracer.PERIOD1_CALLERS]
    assert len(targets) > 20
    missing = [
        f"stigmagame.{short}.{attr}"
        for short, attr in targets
        if not callable(
            getattr(importlib.import_module(f"stigmagame.{short}"), attr, None)
        )
    ]
    assert missing == []
