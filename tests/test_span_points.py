"""The benchmark's traced run wraps semshard names by attribute lookup; a
refactor that drops one must fail here, not crash the traced run."""

import importlib.util
from pathlib import Path

from semshard import cli, consensus, core, dqn, env

TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"


def test_every_span_point_names_an_attribute():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    points = tracing.span_points((cli, consensus, core, dqn, env))
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in points if attr not in owner.__dict__]
    assert missing == []
