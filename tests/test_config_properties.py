"""A config that constructs must run: random-policy episodes with node churn,
and a gradient step as soon as the replay buffer holds a batch."""

import math
from typing import get_type_hints

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from semshard.core import MAX_INTEGER_SPAN, ConfigError, NetworkConfig, Rng
from semshard.dqn import Hyperparameters, QNetwork, ReplayBuffer, train_step
from semshard.env import NUM_ACTIONS, OBSERVATION_SIZE, Action, ShardEnv

# Bounded so the test takes a few seconds. Node counts often fall near
# min_shard_size, where the validators draw the line.
node_counts = st.integers(1, 12) | st.integers(1, 600)
# Now and then a huge walk step: up to 2**31 - 1 its span, 2 * step + 1,
# fits what Rng.integers serves, and above that the config must not load.
walk_steps = st.integers(1, 50) | st.integers(2**31 - 2, 2**64)


def ordered(values):
    return st.tuples(values, values).map(sorted)


def construct(draw, cls, kwargs):
    """cls(**kwargs). Now and then one float field is first set to NaN or an
    infinity, which range checks alone let through: if cls accepts that
    value, the test runs it; if it rejects it, the example goes on with the
    drawn value, so rejections cost no examples."""
    key = draw(st.none() | st.sampled_from(
        [k for k, kind in get_type_hints(cls).items() if kind is float]))
    if key is not None:
        bad = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        try:
            return cls(**{**kwargs, key: bad})
        except ConfigError:
            pass
    return cls(**kwargs)


def walk_step(draw) -> int:
    """A drawn walk step. One whose span exceeds what Rng.integers serves
    must be rejected naming the key; the example then goes on with a small
    step, so the rejection costs no example, as in construct."""
    step = draw(walk_steps)
    if 2 * step + 1 <= MAX_INTEGER_SPAN:
        return step
    with pytest.raises(ConfigError, match="network.node_walk_step"):
        NetworkConfig(node_walk_step=step)
    return draw(st.integers(1, 50))


@st.composite
def network_configs(draw):
    nodes_max = draw(st.integers(1, 600))
    size_lo, size_hi = draw(ordered(st.integers(8_000, 8_000_000)))
    rate_lo, rate_hi = draw(ordered(st.floats(1e6, 1e8)))
    try:
        return construct(draw, NetworkConfig, dict(
            nodes_min=min(draw(node_counts), nodes_max),
            nodes_initial=min(draw(node_counts), nodes_max),
            nodes_max=nodes_max, node_walk_step=walk_step(draw),
            min_shard_size=draw(st.integers(4, 10)),
            rounds_per_episode=draw(st.integers(1, 10)),
            tx_size=draw(st.integers(1_000, 8_000)),
            message_size_min=size_lo, avg_message_size_max=size_hi,
            message_size_step=draw(st.integers(1, 8_000_000)),
            rate_min=rate_lo, rate_max=rate_hi,
            semantic_time_max=draw(st.floats(0.01, 30.0)),
            seed=draw(st.integers(0, 2**64 - 1))))
    except ConfigError:
        assume(False)


@st.composite
def hyperparameters(draw):
    try:
        return construct(draw, Hyperparameters, dict(
            learning_rate=draw(st.floats(1e-4, 0.1)),
            discount=draw(st.floats(0.01, 0.99)),
            epsilon=draw(st.floats(0.0, 1.0)),
            batch_size=draw(st.integers(1, 16)),
            buffer_capacity=draw(st.integers(1, 32)),
            hidden_units=draw(st.integers(1, 16))))
    except ConfigError:
        assume(False)


@settings(max_examples=60, deadline=None)
@given(cfg=network_configs(), hp=hyperparameters())
def test_constructible_configs_run(cfg, hp):
    rng = Rng(cfg.seed)
    env = ShardEnv(cfg)
    net = QNetwork(OBSERVATION_SIZE, hp.hidden_units, NUM_ACTIONS, rng)
    buffer = ReplayBuffer(hp.buffer_capacity)
    # at least one whole episode, and at least batch_size pushes
    for pushes in range(1, max(cfg.rounds_per_episode, hp.batch_size) + 1):
        if env.terminal:
            obs = env.reset(rng)
        action = Action(int(rng.integers(0, NUM_ACTIONS - 1)))
        next_obs, reward, terminal, _ = env.step(action, rng)
        assert math.isfinite(reward) and reward > 0.0
        buffer.push(obs, int(action), reward, next_obs, terminal)
        obs = next_obs
        loss = train_step(net, buffer, hp, rng)
        if pushes < hp.batch_size:
            assert loss is None
        else:
            assert isinstance(loss, float)
