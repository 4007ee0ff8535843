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


def test_step_info_carries_the_keys_the_tracer_counts():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    shard_env = env.ShardEnv(core.NetworkConfig(nodes_initial=60))
    rng = core.Rng(0)
    shard_env.reset(rng)
    rec = tracing.Recorder()
    tracing._count_step(rec, 0, (), shard_env.step(env.Action.INC_SHARDS, rng))
    tracing._count_step(rec, 1, (), shard_env.force_setting(2, 8_000_000, rng))
    assert rec.counts["env.steps"] == 2
