"""Round-based control environment for the verifier network.

Each reset draws the episode's exogenous path: every round's transmission
rate, semantic processing time and node count. Each step applies the agent's
discrete action to the sharding setting, clamps it for the round's node
count, and pays the resulting transaction throughput as reward.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Optional

import numpy as np

# kept as env attributes for perfbench's call-site tracer; the env calls none
# of ratify_setting, select_leader and make_sharding_state
from .consensus import ratify_setting, select_leader  # noqa: F401
from .core import NetworkConfig, Rng, clamp_sharding, make_sharding_state  # noqa: F401
from .throughput import round_latency, throughput


class EpisodeFinishedError(RuntimeError):
    pass


class Action(IntEnum):
    INC_SHARDS = 0
    DEC_SHARDS = 1
    INC_MSG = 2
    DEC_MSG = 3
    NOOP = 4


NUM_ACTIONS = len(Action)

# (shard change, message-size steps, log label) by action value: a dict, so
# a lookup finds exactly what Action() finds by value (2, np.int64(2), True,
# a member) and misses -1 and 2.5, where a tuple index would take -1 as NOOP
_MOVES = {a.value: (dk, ds, a.name) for a, dk, ds in (
    (Action.INC_SHARDS, 1, 0), (Action.DEC_SHARDS, -1, 0),
    (Action.INC_MSG, 0, 1), (Action.DEC_MSG, 0, -1), (Action.NOOP, 0, 0))}

OBSERVATION_SIZE = 4


# slotted, not frozen: a frozen record takes ~1.4 us a round to build, a
# slotted one ~0.25 us, and dataclasses.replace takes either
@dataclass(slots=True)
class EpisodeRecord:
    round: int
    num_shards: int
    message_size: int
    n_nodes: int
    rate: float
    semantic_time: float
    tps: float
    action: str
    clamped: bool
    reconfigured: bool


@dataclass
class EpisodeLog:
    records: list[EpisodeRecord] = field(default_factory=list)


class ShardEnv:
    """Single-threaded environment; run independent instances for sweeps.

    draw_path makes every exogenous draw, from reset's rng alone. No action
    changes the path, so policies reset on equal streams face equal rounds.
    """

    def __init__(self, cfg: NetworkConfig):
        self.cfg = cfg
        self._round = 0
        self._terminal = True
        self.log: Optional[EpisodeLog] = None

    # -- lifecycle ---------------------------------------------------------

    def reset(self, rng: Rng) -> np.ndarray:
        cfg = self.cfg
        self._n = cfg.nodes_initial
        self._k = 1
        self._s = cfg.avg_message_size_max
        self._round = 0
        self._terminal = False
        self.log = EpisodeLog()
        self._rates, self._t_sems, self._nodes = self.draw_path(rng)
        return self.observe()

    def draw_path(self, rng: Rng) -> tuple[list, list, list]:
        """The episode's rates, semantic times and node counts, a Python
        float, float and int per round, from one (rounds, 3) draw of rng's
        doubles: row r holds round r's, each made as Rng.uniform or
        Rng.integers(-step, step) makes it. N walks from nodes_initial,
        clamped to [nodes_min, nodes_max]."""
        cfg, step = self.cfg, self.cfg.node_walk_step
        u = rng.uniform(size=(cfg.rounds_per_episode, 3))
        rates = cfg.rate_min + (cfg.rate_max - cfg.rate_min) * u[:, 0]
        walks = (u[:, 2] * (2 * step + 1)).astype(np.int64) - step
        n, nodes = cfg.nodes_initial, []
        for walk in walks.tolist():
            n = min(max(n + walk, cfg.nodes_min), cfg.nodes_max)
            nodes.append(n)
        return (rates.tolist(), (cfg.semantic_time_max * u[:, 1]).tolist(),
                nodes)

    @property
    def terminal(self) -> bool:
        return self._terminal

    @property
    def sharding(self) -> tuple[int, int]:
        return self._k, self._s

    @property
    def n_nodes(self) -> int:
        return self._n

    def observe(self) -> np.ndarray:
        """(K, S, N, round), each scaled to [0, 1] by its maximum, in the
        learner's float32; not the rate or semantic time, drawn afresh for
        each round."""
        cfg = self.cfg
        return np.array([
            self._k / cfg.max_shards_cap,
            self._s / cfg.avg_message_size_max,
            self._n / cfg.nodes_max,
            self._round / cfg.rounds_per_episode,
        ], np.float32)

    # -- dynamics ----------------------------------------------------------

    def step(self, action: Action):
        """Apply one agent action and advance a round.

        Returns (observation, reward, terminal, info).
        """
        self._require_active()
        try:
            dk, ds, label = _MOVES[action]
        except (KeyError, TypeError):
            # what Action() takes past a plain lookup (an unhashable value
            # equal to one), or its ValueError before any state changes
            dk, ds, label = _MOVES[Action(action)]
        k, s = self._k + dk, self._s
        if ds:
            s += ds * self.cfg.message_size_step
        k, s, clamped = clamp_sharding(k, s, self._n, self.cfg)
        return self._advance(k, s, label, clamped)

    def force_setting(self, num_shards: int, message_size: int, _unused=None):
        """Advance a round with the setting pinned (policy bypass).

        Used by fixed-setting baselines and oracle tests; the setting is still
        clamped against the current node count. The third argument is ignored;
        the benchmark's self-test passes one until ROADMAP item 1 drops it.
        """
        self._require_active()
        k, s, clamped = clamp_sharding(num_shards, message_size, self._n, self.cfg)
        return self._advance(k, s, "FORCED", clamped)

    def _require_active(self) -> None:
        if self._terminal:
            raise EpisodeFinishedError("episode finished; call reset()")

    def _advance(self, k_target: int, s_target: int, action_label: str,
                 clamped: bool):
        cfg, r = self.cfg, self._round
        k_prev = self._k
        rate, t_sem, self._n = self._rates[r], self._t_sems[r], self._nodes[r]
        # node churn can strand the shard count above the valid range
        self._k, self._s, _ = clamp_sharding(k_target, s_target, self._n, cfg)

        reconfigured = self._k != k_prev
        lat = round_latency(self._k, self._s, self._n, rate, t_sem,
                            reconfigured, cfg)
        tps = throughput(self._k, self._s, lat.t_round, cfg)
        reward = tps / cfg.reward_scale

        # positional, in field order: keywords cost ~0.6 us a record
        self.log.records.append(EpisodeRecord(
            r, self._k, self._s, self._n, rate, t_sem, tps,
            action_label, clamped, reconfigured))
        self._round = r + 1
        self._terminal = self._round >= cfg.rounds_per_episode
        info = {"clamped": clamped, "reconfigured": reconfigured}
        return self.observe(), reward, self._terminal, info


def run_episodes(env: ShardEnv, episodes: int, rng: Rng, play) -> list[float]:
    """Mean reward per episode. Each episode resets env on rng, drawing its
    path; play(episode, obs) then advances each round with env.step or
    env.force_setting and returns that call's 4-tuple. The score is total
    reward / rounds_per_episode."""
    means = []
    for episode in range(episodes):
        obs = env.reset(rng)
        total = 0.0
        while not env.terminal:
            obs, reward, _, _ = play(episode, obs)
            total += reward
        means.append(total / env.cfg.rounds_per_episode)
    return means


def run_baseline(cfg: NetworkConfig, episodes: int, rng: Rng) -> list[float]:
    """Mean reward per episode for the static-max policy.

    The baseline pins the shard count at the maximum supported by the initial
    node count and the message size at its maximum; the setting is re-clamped
    every round as the node count drifts, but never re-tuned.
    """
    env = ShardEnv(cfg)
    k_fixed = cfg.nodes_initial // cfg.min_shard_size
    return run_episodes(env, episodes, rng, lambda episode, obs: (
        env.force_setting(k_fixed, cfg.avg_message_size_max)))
