"""Shared domain types, node partitioning, and the deterministic RNG contract."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np


class ConfigError(ValueError):
    """Raised when a configuration value is out of range; message names the key."""


class InvalidShardingError(ValueError):
    """Raised when a requested shard count cannot be satisfied by the node set."""


def require_finite(config, section: str) -> None:
    """ConfigError naming the first float field of a config that is NaN or
    infinite: range checks pass NaN, and inf passes a lower bound."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{section}.{f.name}: must be finite")


@dataclass
class NetworkConfig:
    """All exogenous simulation constants and scenario parameters.

    Units: times in seconds, sizes in bits, rates in bits/second.
    1 MB is taken as 10^6 bytes = 8e6 bits so size/rate division is
    unit-consistent with Mbps transmission rates.
    """

    config_latency: float = 0.001
    validation_delay: float = 0.1
    avg_message_size_max: int = 8_000_000
    semantic_time_max: float = 20.0
    rate_min: float = 10_000_000.0
    rate_max: float = 60_000_000.0
    nodes_initial: int = 100
    tx_size: int = 4_000
    message_size_min: int = 800_000
    message_size_step: int = 800_000
    min_shard_size: int = 4
    accuracy_threshold: float = 0.8
    rounds_per_episode: int = 100
    seed: int = 0
    # Environment dynamics knobs (invented, tunable).
    nodes_min: int = 50
    nodes_max: int = 600
    node_walk_step: int = 5
    noise_sigma: float = 0.5
    semantic_dim: int = 8
    reward_scale: float = 1000.0

    def __post_init__(self):
        require_finite(self, "network")
        positive = (
            "config_latency", "validation_delay", "avg_message_size_max",
            "semantic_time_max", "rate_min", "rate_max", "nodes_initial",
            "tx_size", "message_size_min", "message_size_step",
            "rounds_per_episode", "nodes_min", "nodes_max", "node_walk_step",
            "noise_sigma", "semantic_dim", "reward_scale",
        )
        for name in positive:
            if getattr(self, name) <= 0:
                raise ConfigError(f"network.{name}: must be strictly positive")
        if self.rate_min > self.rate_max:
            raise ConfigError("network.rate_max: must be >= rate_min")
        if self.message_size_min > self.avg_message_size_max:
            raise ConfigError(
                "network.message_size_min: must be <= avg_message_size_max")
        if self.tx_size > self.message_size_min:
            raise ConfigError("network.tx_size: must be <= message_size_min")
        if self.min_shard_size < 4:
            # below 4 nodes a shard cannot tolerate even one BFT fault
            raise ConfigError("network.min_shard_size: must be >= 4")
        if self.nodes_min > self.nodes_max:
            raise ConfigError("network.nodes_max: must be >= nodes_min")
        for name in ("nodes_min", "nodes_initial"):
            # fewer nodes than one shard needs cannot be partitioned
            if getattr(self, name) < self.min_shard_size:
                raise ConfigError(f"network.{name}: must be >= min_shard_size")
        if self.nodes_initial > self.nodes_max:
            raise ConfigError("network.nodes_initial: exceeds nodes_max")
        if not 0.0 <= self.accuracy_threshold <= 1.0:
            raise ConfigError("network.accuracy_threshold: must be in [0, 1]")
        if self.seed < 0 or self.seed > 2**64 - 1:
            raise ConfigError("network.seed: must fit in unsigned 64 bits")

    @property
    def max_shards_cap(self) -> int:
        """Largest shard count reachable at the node-count ceiling."""
        return self.nodes_max // self.min_shard_size


@dataclass(frozen=True)
class ShardingState:
    """A concrete sharding configuration of the verifier network."""

    num_shards: int
    message_size: int
    shard_sizes: tuple[int, ...]
    leader_ids: tuple[int, ...]

    def validate(self, cfg: NetworkConfig) -> None:
        """Raise InvalidShardingError unless all structural invariants hold."""
        k, s = self.num_shards, self.message_size
        n = sum(self.shard_sizes)
        if len(self.shard_sizes) != k or k < 1:
            raise InvalidShardingError("shard_sizes must have one entry per shard")
        if k > n // cfg.min_shard_size:
            raise InvalidShardingError(
                f"{k} shards cannot be formed from {n} nodes "
                f"with min shard size {cfg.min_shard_size}")
        if min(self.shard_sizes) < cfg.min_shard_size:
            raise InvalidShardingError("shard below minimum size")
        if max(self.shard_sizes) - min(self.shard_sizes) > 1:
            raise InvalidShardingError("partition not balanced")
        if not cfg.message_size_min <= s <= cfg.avg_message_size_max:
            raise InvalidShardingError(f"message size {s} out of range")
        if len(self.leader_ids) != k:
            raise InvalidShardingError("need exactly one leader per shard")

    def is_valid(self, cfg: NetworkConfig) -> bool:
        try:
            self.validate(cfg)
        except InvalidShardingError:
            return False
        return True


@dataclass
class VerifierNode:
    """A verifier with background knowledge modeled as a unit vector."""

    id: int
    knowledge: np.ndarray

    def __post_init__(self):
        self.knowledge = np.asarray(self.knowledge, dtype=float)
        norm = float(np.linalg.norm(self.knowledge))
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"knowledge vector norm {norm} != 1")


@dataclass
class Content:
    """A proposed content item with ground-truth semantics and escrowed tokens."""

    id: int
    truth: np.ndarray
    reward_pool: int = 0
    bond: int = 0

    def __post_init__(self):
        self.truth = np.asarray(self.truth, dtype=float)
        norm = float(np.linalg.norm(self.truth))
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"truth vector norm {norm} != 1")
        if self.reward_pool < 0 or self.bond < 0:
            raise ValueError("reward_pool and bond must be non-negative")


class Rng:
    """Deterministic pseudo-random stream.

    Backed by numpy's PCG64 bit generator: a named, documented 64-bit PRNG
    whose output stream is fixed for a given seed. One Rng instance must have
    a single owner; never share it across threads.
    """

    def __init__(self, seed: int):
        if seed < 0 or seed > 2**64 - 1:
            raise ConfigError("seed: must fit in unsigned 64 bits")
        self.seed = seed
        self._gen = np.random.Generator(np.random.PCG64(seed))

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        return self._gen.uniform(low, high, size)

    def integers(self, low: int, high: int, size=None):
        """Uniform integers on the inclusive range [low, high]."""
        return self._gen.integers(low, high, size, endpoint=True)

    def normal(self, scale: float = 1.0, size=None):
        return self._gen.normal(0.0, scale, size)

    def bytes(self, n: int) -> bytes:
        return self._gen.bytes(n)

    def spawn(self, key: int) -> "Rng":
        """Derive an independent child stream; deterministic in (seed, key)."""
        return Rng((self.seed * 0x9E3779B97F4A7C15 + key + 1) % 2**64)


def partition(n_nodes: int, num_shards: int, min_shard_size: int) -> list[int]:
    """Split n_nodes into num_shards balanced shard sizes.

    The first (n_nodes mod num_shards) shards take the ceiling size, the rest
    the floor, so the assignment is deterministic and sizes differ by at most
    one.
    """
    if num_shards < 1 or num_shards > n_nodes // min_shard_size:
        raise InvalidShardingError(
            f"cannot split {n_nodes} nodes into {num_shards} shards "
            f"of at least {min_shard_size}")
    base, extra = divmod(n_nodes, num_shards)
    return [base + 1 if i < extra else base for i in range(num_shards)]


def clamp_sharding(num_shards: int, message_size: int, n_nodes: int,
                   cfg: NetworkConfig) -> tuple[int, int, bool]:
    """Clip a proposed (shards, message size) setting into the valid range.

    Returns the clipped pair plus a flag that is true iff any clipping
    occurred. Idempotent.
    """
    k_max = max(1, n_nodes // cfg.min_shard_size)
    k = min(max(num_shards, 1), k_max)
    s = min(max(message_size, cfg.message_size_min), cfg.avg_message_size_max)
    return k, s, (k != num_shards or s != message_size)


def make_sharding_state(num_shards: int, message_size: int, n_nodes: int,
                        round_index: int, cfg: NetworkConfig) -> ShardingState:
    """Build a balanced ShardingState over nodes 0..n_nodes-1.

    Nodes are assigned to shards contiguously; each shard's leader rotates
    round-robin over its members by round index.
    """
    sizes = partition(n_nodes, num_shards, cfg.min_shard_size)
    leaders = []
    offset = 0
    for size in sizes:
        leaders.append(offset + round_index % size)
        offset += size
    return ShardingState(num_shards, message_size, tuple(sizes), tuple(leaders))
