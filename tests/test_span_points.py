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
    shard_env.reset(core.Rng(0))
    rec = tracing.Recorder()
    tracing._count_step(rec, 0, (), shard_env.step(env.Action.INC_SHARDS))
    tracing._count_step(rec, 1, (), shard_env.force_setting(2, 8_000_000))
    assert rec.counts["env.steps"] == 2


def test_traced_call_sites_stay_on_the_training_path(monkeypatch):
    # the tracer times these names where train() and the env look them up;
    # work moved off one of them would read 0 calls in the traced run
    calls = {}

    def count(owner, attr):
        original = owner.__dict__[attr]

        def counting(*args, **kwargs):
            calls[attr] = calls.get(attr, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counting)

    for owner, attr in ((dqn, "act"), (dqn, "train_step"),
                        (dqn, "td_targets"), (dqn, "loss_and_gradients"),
                        (dqn, "sync_target"), (dqn.ReplayBuffer, "push"),
                        (dqn.ReplayBuffer, "sample"), (env, "clamp_sharding"),
                        (env, "round_latency"), (env, "throughput")):
        count(owner, attr)
    rounds = 25
    hp = dqn.Hyperparameters(batch_size=4, epochs=1, target_sync_interval=10)
    dqn.train(env.ShardEnv(core.NetworkConfig(rounds_per_episode=rounds)),
              hp, core.Rng(1))
    grad_steps = rounds - hp.batch_size + 1
    assert calls.pop("clamp_sharding") >= rounds
    # one sync as QNetwork() sets the target up, then one per interval
    assert calls == {"act": rounds, "push": rounds, "train_step": rounds,
                     "sample": grad_steps, "td_targets": grad_steps,
                     "loss_and_gradients": grad_steps,
                     "sync_target": 1 + grad_steps // hp.target_sync_interval,
                     "round_latency": rounds, "throughput": rounds}
