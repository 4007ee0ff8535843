"""Pinned round draws for the env's oracle tests.

ShardEnv reads a round's rate as rate_min + (rate_max - rate_min) * random(),
its semantic time as semantic_time_max * random(), and its node walk as
integers(-step, step), all from the rng it is handed. PINNED stands in for
that rng: random() gives 1.0 and integers() gives 0. Under pinned_config(),
where rate_max = rate_min = RATE, every round then runs at exactly RATE and
SEMANTIC_TIME with no churn, the conditions the closed-form oracles assume.
"""

from semshard.core import NetworkConfig
from semshard.env import ShardEnv

RATE = 1e7  # bits/second, 10 Mbps
SEMANTIC_TIME = 20.0  # seconds, NetworkConfig's semantic_time_max


class PinnedDraws:
    def random(self) -> float:
        return 1.0

    def integers(self, low: int, high: int) -> int:
        return 0


PINNED = PinnedDraws()


def pinned_config(**kwargs) -> NetworkConfig:
    return NetworkConfig(rate_min=RATE, rate_max=RATE, **kwargs)


class PinnedEnv(ShardEnv):
    """A ShardEnv whose rounds draw from PINNED, whatever rng they are handed.

    For train, which hands the env the agent's rng: the agent's stream is
    left as it would be if the env drew nothing from it.
    """

    def step(self, action, rng):
        return super().step(action, PINNED)

    def force_setting(self, num_shards, message_size, rng):
        return super().force_setting(num_shards, message_size, PINNED)
