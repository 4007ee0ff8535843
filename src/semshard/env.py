"""Round-based control environment for the verifier network.

Each step: apply the agent's discrete action to the sharding setting, clamp it
into the valid range for the current node count, draw the round's exogenous
conditions (transmission rate, semantic processing time, node churn), and pay
the resulting transaction throughput as reward.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Optional

import numpy as np

# kept as env attributes for perfbench's call-site tracer; the env calls neither
from .consensus import ratify_setting, select_leader  # noqa: F401
from .core import NetworkConfig, Rng, clamp_sharding, make_sharding_state
from .throughput import RoundConditions, round_latency, throughput


class EpisodeFinishedError(RuntimeError):
    pass


class Action(IntEnum):
    INC_SHARDS = 0
    DEC_SHARDS = 1
    INC_MSG = 2
    DEC_MSG = 3
    NOOP = 4


NUM_ACTIONS = len(Action)

OBSERVATION_SIZE = 8

EPISODE_CSV_HEADER = "round,K,S_bits,N,R_bps,t_sem,tps,action,clamped"


@dataclass(frozen=True)
class Transition:
    """One replay record: (state, action, reward, next state, terminal)."""

    observation: np.ndarray
    action: int
    reward: float
    next_observation: np.ndarray
    terminal: bool


@dataclass(frozen=True)
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
    seed: int
    records: list[EpisodeRecord] = field(default_factory=list)

    def write_csv(self, fh) -> None:
        """Emit the per-round log; schema is EPISODE_CSV_HEADER."""
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(EPISODE_CSV_HEADER.split(","))
        for r in self.records:
            writer.writerow([
                r.round, r.num_shards, r.message_size, r.n_nodes,
                repr(r.rate), repr(r.semantic_time), repr(r.tps),
                r.action, int(r.clamped),
            ])


class ShardEnv:
    """Single-threaded environment; run independent instances for sweeps.

    Passing frozen_exogenous=(rate, semantic_time) pins the exogenous draws to
    constants and disables node churn (test hook for oracle comparisons).
    """

    def __init__(self, cfg: NetworkConfig,
                 frozen_exogenous: Optional[tuple[float, float]] = None):
        self.cfg = cfg
        self._frozen = frozen_exogenous
        self._round = 0
        self._terminal = True
        self.log: Optional[EpisodeLog] = None

    # -- lifecycle ---------------------------------------------------------

    def reset(self, rng: Rng) -> np.ndarray:
        cfg = self.cfg
        self._n = cfg.nodes_initial
        self._k = 1
        self._s = cfg.avg_message_size_max
        self._rate, self._t_sem = self._draw_conditions(rng)
        self._round = 0
        self._terminal = False
        self.log = EpisodeLog(seed=rng.seed)
        return self.observe()

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
        """Current state, each component scaled to [0, 1] by its maximum."""
        cfg = self.cfg
        return np.array([
            self._k / cfg.max_shards_cap,
            self._s / cfg.avg_message_size_max,
            self._n / cfg.nodes_max,
            self._rate / cfg.rate_max,
            self._t_sem / cfg.semantic_time_max,
            self._round % self._n / cfg.nodes_max,  # round-robin leader
            0.0,  # consensus algorithm index: PBFT is the only one
            self._round / cfg.rounds_per_episode,
        ])

    # -- dynamics ----------------------------------------------------------

    def step(self, action: Action, rng: Rng):
        """Apply one agent action and advance a round.

        Returns (observation, reward, terminal, info).
        """
        self._require_active()
        k, s = self._k, self._s
        action = Action(action)
        if action == Action.INC_SHARDS:
            k += 1
        elif action == Action.DEC_SHARDS:
            k -= 1
        elif action == Action.INC_MSG:
            s += self.cfg.message_size_step
        elif action == Action.DEC_MSG:
            s -= self.cfg.message_size_step
        k, s, clamped = clamp_sharding(k, s, self._n, self.cfg)
        return self._advance(k, s, action.name, clamped, rng)

    def force_setting(self, num_shards: int, message_size: int, rng: Rng):
        """Advance a round with the setting pinned (policy bypass).

        Used by fixed-setting baselines and oracle tests; the setting is still
        clamped against the current node count.
        """
        self._require_active()
        k, s, clamped = clamp_sharding(num_shards, message_size, self._n, self.cfg)
        return self._advance(k, s, "FORCED", clamped, rng)

    def _require_active(self) -> None:
        if self._terminal:
            raise EpisodeFinishedError("episode finished; call reset()")

    def _draw_conditions(self, rng: Rng) -> tuple[float, float]:
        if self._frozen is not None:
            return self._frozen
        cfg = self.cfg
        rate = float(rng.uniform(cfg.rate_min, cfg.rate_max))
        t_sem = float(rng.uniform(0.0, cfg.semantic_time_max))
        return rate, t_sem

    def _advance(self, k_target: int, s_target: int, action_label: str,
                 clamped: bool, rng: Rng):
        cfg = self.cfg
        k_prev = self._k
        self._k, self._s = k_target, s_target

        rate, t_sem = self._draw_conditions(rng)
        if self._frozen is None:
            walk = int(rng.integers(-cfg.node_walk_step, cfg.node_walk_step))
            self._n = min(max(self._n + walk, cfg.nodes_min), cfg.nodes_max)
            # node churn can strand the shard count above the valid range
            self._k, self._s, _ = clamp_sharding(self._k, self._s, self._n, cfg)

        reconfigured = self._k != k_prev
        state = make_sharding_state(self._k, self._s, self._n, self._round, cfg)
        lat = round_latency(state, RoundConditions(rate, t_sem, reconfigured), cfg)
        tps = throughput(state, lat, cfg)
        reward = tps / cfg.reward_scale

        self.log.records.append(EpisodeRecord(
            round=self._round, num_shards=self._k, message_size=self._s,
            n_nodes=self._n, rate=rate, semantic_time=t_sem, tps=tps,
            action=action_label, clamped=clamped, reconfigured=reconfigured,
        ))
        self._rate, self._t_sem = rate, t_sem
        self._round += 1
        self._terminal = self._round >= cfg.rounds_per_episode
        info = {
            "clamped": clamped,
            "reconfigured": reconfigured,
            "tps": tps,
            "latency": lat,
            "n_nodes": self._n,
            "num_shards": self._k,
            "message_size": self._s,
        }
        return self.observe(), reward, self._terminal, info


def run_baseline(cfg: NetworkConfig, episodes: int, rng: Rng,
                 frozen_exogenous: Optional[tuple[float, float]] = None,
                 ) -> list[float]:
    """Mean reward per episode for the static-max policy.

    The baseline pins the shard count at the maximum supported by the initial
    node count and the message size at its maximum; the setting is re-clamped
    every round as the node count drifts, but never re-tuned.
    """
    env = ShardEnv(cfg, frozen_exogenous)
    k_fixed = cfg.nodes_initial // cfg.min_shard_size
    means = []
    for _ in range(episodes):
        env.reset(rng)
        total = 0.0
        while not env.terminal:
            _, reward, _, _ = env.force_setting(
                k_fixed, cfg.avg_message_size_max, rng)
            total += reward
        means.append(total / cfg.rounds_per_episode)
    return means
