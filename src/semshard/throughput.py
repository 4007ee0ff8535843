"""Per-round latency decomposition and transaction throughput.

Latency has three parts: configuration time (charged only when the sharding
setting changed this round), intra-shard time (PBFT message propagation plus
validation delay plus semantic processing), and inter-shard time (submitting
one aggregated message to the main chain). Shards run their consensus rounds
in parallel, so the largest shard bounds the propagation term.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import NetworkConfig


class LatencyBreakdown(NamedTuple):
    t_config: float
    t_prop: float
    t_intra: float
    t_inter: float
    t_round: float


def propagation_time(shard_size: int, message_size: float, rate: float) -> float:
    """PBFT propagation: 2 * n * (n - 1) * message_size / rate seconds."""
    return 2.0 * shard_size * (shard_size - 1) * message_size / rate


def round_latency(num_shards: int, message_size: float, n_nodes: int,
                  rate: float, semantic_time: float, reconfigured: bool,
                  cfg: NetworkConfig) -> LatencyBreakdown:
    """One round's latency breakdown; rate in bits/s, semantic_time in s."""
    # the largest of K balanced shards, ceil(N/K), bounds the parallel phase
    n = -(-n_nodes // num_shards)
    t_prop = propagation_time(n, message_size, rate)
    t_intra = t_prop + cfg.validation_delay + semantic_time
    t_inter = message_size / rate
    t_config = cfg.config_latency if reconfigured else 0.0
    # positional, in field order: keywords cost ~0.25 us a call
    return LatencyBreakdown(t_config, t_prop, t_intra, t_inter,
                            t_config + t_intra + t_inter)


def throughput(num_shards: int, message_size: float, t_round: float,
               cfg: NetworkConfig) -> float:
    """Transactions per second for one round.

    Every shard commits one message of message_size bits per round, so the
    round moves K * (S / tx_size) transactions in t_round seconds.
    Fractional transactions per message are allowed: this is a rate.
    """
    return num_shards * (message_size / cfg.tx_size) / t_round
