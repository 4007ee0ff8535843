"""Pinned round draws for the env's oracle tests.

ShardEnv draws an episode's whole exogenous path in draw_path, at reset.
PinnedEnv overrides that one method with constant columns: every round runs
at rate_min and semantic_time_max, with N held at nodes_initial. Under
pinned_config(), where rate_max = rate_min = RATE, every round then runs at
exactly RATE and SEMANTIC_TIME with no churn, the conditions the
closed-form oracles assume.
"""

from semshard.core import NetworkConfig
from semshard.env import ShardEnv

RATE = 1e7  # bits/second, 10 Mbps
SEMANTIC_TIME = 20.0  # seconds, NetworkConfig's semantic_time_max


def pinned_config(**kwargs) -> NetworkConfig:
    return NetworkConfig(rate_min=RATE, rate_max=RATE, **kwargs)


class PinnedEnv(ShardEnv):
    """A ShardEnv whose paths are constant and draw nothing from the rng
    reset is handed. For train, whose env and agent streams are apart
    anyway: the env's stream is left untouched."""

    def draw_path(self, rng):
        cfg, rounds = self.cfg, self.cfg.rounds_per_episode
        return ([cfg.rate_min] * rounds, [cfg.semantic_time_max] * rounds,
                [cfg.nodes_initial] * rounds)
