"""Shared domain types, node partitioning, and the deterministic RNG contract."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields

import numpy as np


# Doubles an Rng draws from its generator in one call, served one by one
BLOCK_DOUBLES = 4096
# The widest range [low, high] that Rng.integers serves, high - low + 1
MAX_INTEGER_SPAN = 2**32
# The most bytes that one config key may size: one array, train's per-epoch
# records or one episode's log. A key past it is rejected at load, not by a
# MemoryError partway into a run.
MAX_ARRAY_BYTES = 1 << 30  # 1 GiB


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
        for f in fields(self):
            # the latency and throughput formulas take every size as a float
            try:
                float(getattr(self, f.name))
            except OverflowError:
                raise ConfigError(f"network.{f.name}: too large for a "
                                  "float") from None
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
        # each round of an episode logs an EpisodeRecord: about 249 bytes
        # with its floats and list slot, as tracemalloc measured it on
        # CPython 3.11, rounded up to 256
        nbytes = self.rounds_per_episode * 256
        if nbytes > MAX_ARRAY_BYTES:
            raise ConfigError(f"network.rounds_per_episode: one episode's log "
                              f"would take {nbytes} bytes, more than "
                              f"{MAX_ARRAY_BYTES}")
        if self.semantic_dim * 8 > MAX_ARRAY_BYTES:
            # one semantic vector of float64s
            raise ConfigError(f"network.semantic_dim: one semantic vector "
                              f"would take {self.semantic_dim * 8} bytes, "
                              f"more than {MAX_ARRAY_BYTES}")
        if 2 * self.node_walk_step + 1 > MAX_INTEGER_SPAN:
            # each round draws the walk from [-step, step] with Rng.integers
            raise ConfigError("network.node_walk_step: the walk's span "
                              "2 * step + 1 must be <= 2**32")
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


def _unit_vector(values, name: str) -> np.ndarray:
    """values as a float array; ValueError unless its norm is 1."""
    vector = np.asarray(values, dtype=float)
    norm = float(np.linalg.norm(vector))
    if not abs(norm - 1.0) <= 1e-9:  # a NaN norm fails too
        raise ValueError(f"{name} vector norm {norm} != 1")
    return vector


def token_amount(what: str, amount) -> int:
    """amount as a Python int; ValueError naming `what` otherwise. Token
    amounts are non-negative integers; a float, even a whole one, NaN or inf
    would break conservation or make fractional tokens. A numpy integer is
    taken as an int, so that balances cannot wrap at 64 bits."""
    if not (type(amount) is int or isinstance(amount, np.integer)):
        raise ValueError(f"{what}: token amounts are integers, got {amount!r}")
    if amount < 0:
        raise ValueError(f"{what}: token amounts are non-negative, got {amount}")
    return int(amount)


@dataclass
class VerifierNode:
    """A verifier with background knowledge modeled as a unit vector."""

    id: int
    knowledge: np.ndarray

    def __post_init__(self):
        self.knowledge = _unit_vector(self.knowledge, "knowledge")


@dataclass
class Content:
    """A proposed content item with ground-truth semantics and escrowed tokens."""

    id: int
    truth: np.ndarray
    reward_pool: int = 0
    bond: int = 0

    def __post_init__(self):
        self.truth = _unit_vector(self.truth, "truth")
        self.reward_pool = token_amount("reward_pool", self.reward_pool)
        self.bond = token_amount("bond", self.bond)


class Rng:
    """Deterministic pseudo-random stream.

    Backed by numpy's PCG64 bit generator: a named, documented 64-bit PRNG
    whose output stream is fixed for a given seed. One Rng instance must have
    a single owner; never share it across threads.

    random(), uniform() and integers() serve consecutive doubles of the
    generator's own random() stream from a block of BLOCK_DOUBLES drawn in
    one call, drawn when the first of them is asked for and again each time
    the block runs out: a numpy call per draw cost more than the draw.
    normal() and bytes() bypass the block and read the generator itself.
    """

    def __init__(self, seed: int):
        if seed < 0 or seed > 2**64 - 1:
            raise ConfigError("seed: must fit in unsigned 64 bits")
        self.seed = seed
        self._gen = np.random.Generator(np.random.PCG64(seed))
        self._start_block(np.empty(0))

    def _start_block(self, block: np.ndarray) -> None:
        # a memoryview item is a Python float, and reads ~2x faster than
        # ndarray.item
        self._block, self._items = block, memoryview(block)
        self._next, self._end = 0, len(block)

    def random(self) -> float:
        """The next double in [0, 1), as a Python float."""
        i = self._next
        if i == self._end:
            self._start_block(self._gen.random(BLOCK_DOUBLES))
            i = 0
        self._next = i + 1
        return self._items[i]

    def _doubles(self, size) -> np.ndarray:
        """The next doubles of the stream, in an array of shape size (an int
        or a tuple). The array may view served doubles of a block, which
        nothing writes; callers return arithmetic on it, never the view."""
        n = size if type(size) is int else math.prod(size)
        if n < 0:
            raise ValueError(f"negative size {size}")
        i, j = self._next, self._next + n
        if j <= self._end:
            self._next = j
            served = self._block[i:j]
        else:
            # the rest of this block, then the generator's next doubles
            head = self._block[i:]
            tail = n - len(head)
            fresh = self._gen.random(tail + BLOCK_DOUBLES)
            self._start_block(fresh[tail:])
            served = np.concatenate((head, fresh[:tail]))
        return served if type(size) is int else served.reshape(size)

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        """low + (high - low) * u for the next double u, or an array of
        shape size of them; a Python float when size is None."""
        if size is None:
            return low + (high - low) * self.random()
        return low + (high - low) * self._doubles(size)

    def integers(self, low: int, high: int, size=None):
        """Uniform integers on the inclusive range [low, high]: low +
        floor(u * span) for the next double u, span = high - low + 1. A
        Python int when size is None, else an int64 array of shape size.

        u takes 2**53 equally likely values, and rounding the product moves
        each cut between integers by less than one of them, so each integer
        comes up with a probability within a relative span * 2**-52 of
        1/span: about 2e-12 at span 10**4. A span above MAX_INTEGER_SPAN
        (2**32) raises ValueError.
        """
        span = high - low + 1
        if type(span) is not int or not 0 < span <= MAX_INTEGER_SPAN:
            low, high = operator.index(low), operator.index(high)
            span = high - low + 1
            if span < 1:
                raise ValueError(f"integers: low {low} > high {high}")
            if span > MAX_INTEGER_SPAN:
                raise ValueError(
                    f"integers: span {span} of [{low}, {high}] exceeds "
                    f"MAX_INTEGER_SPAN {MAX_INTEGER_SPAN}")
        if size is None:
            return low + int(self.random() * span)
        # truncation is floor here, as u * span is not negative
        drawn = (self._doubles(size) * span).astype(np.int64)
        if low:
            drawn += low
        return drawn

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
