"""Sharded oracle verifier-network simulator with an adaptive DQN controller."""

from .core import (ConfigError, Content, InvalidShardingError, NetworkConfig,
                   Rng, ShardingState, VerifierNode, clamp_sharding,
                   make_sharding_state, partition)
from .throughput import (LatencyBreakdown, propagation_time, round_latency,
                         throughput)
from .consensus import (AggregationFailure, AggregationReport,
                        ChallengeOutcome, Commitment, Ledger, SemanticResult,
                        SettingMessage, commit, distribute_rewards,
                        interactive_challenge, offchain_aggregate,
                        propose_setting, ratify_setting, score_accuracy,
                        select_leader, simulate_verification,
                        verify_commitment)
from .env import (Action, EpisodeFinishedError, EpisodeLog, ShardEnv,
                  run_baseline)
from .dqn import (Hyperparameters, QNetwork, ReplayBuffer, act, load_network,
                  save_network, sync_target, td_targets, train, train_step)
from .config import RunConfig, ScenarioGrid, config_hash, load_config

__version__ = "0.1.0"
