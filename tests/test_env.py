import dataclasses
import itertools

import numpy as np
import pytest

from pinned_draws import (PINNED, RATE, SEMANTIC_TIME, PinnedEnv,
                          pinned_config)
from semshard import dqn
from semshard import env as env_module
from semshard.core import ConfigError, NetworkConfig, Rng, partition
from semshard.env import (OBSERVATION_SIZE, Action, EpisodeFinishedError,
                          EpisodeRecord, ShardEnv, run_baseline)
from semshard.throughput import round_latency, throughput

DRAWS = (RATE, SEMANTIC_TIME)  # rate 10 Mbps, semantic time 20 s


def pinned_env(**cfg_kwargs):
    cfg = pinned_config(**cfg_kwargs)
    return ShardEnv(cfg), cfg


def straight_line_reward(k, s, n, rate, t_sem, reconfigured):
    """Independent composition of the three formulas, constants inlined."""
    sizes = [n // k + (1 if i < n % k else 0) for i in range(k)]
    biggest = max(sizes)
    t_prop = 2.0 * biggest * (biggest - 1) * s / rate
    t_round = (0.001 if reconfigured else 0.0) + t_prop + 0.1 + t_sem + s / rate
    return (k * (s / 4000.0) / t_round) / 1000.0


class TestReset:
    def test_initial_state_and_normalization(self):
        env = ShardEnv(NetworkConfig(nodes_initial=100))
        obs = env.reset(Rng(0))
        assert obs.shape == (OBSERVATION_SIZE,)
        assert obs[2] == pytest.approx(100 / 600)
        assert env.sharding == (1, 8_000_000)
        assert np.all(obs >= 0.0) and np.all(obs <= 1.0)

    def test_equal_seeds_equal_observations(self):
        env_a = ShardEnv(NetworkConfig())
        env_b = ShardEnv(NetworkConfig())
        assert np.array_equal(env_a.reset(Rng(77)), env_b.reset(Rng(77)))

    def test_nodes_initial_above_cap_rejected(self):
        with pytest.raises(ConfigError, match="nodes_initial"):
            NetworkConfig(nodes_initial=601)


class TestObservation:
    def test_four_scaled_features_under_churn(self):
        cfg = NetworkConfig(nodes_initial=60, nodes_min=20, node_walk_step=10)
        env = ShardEnv(cfg)
        rng = Rng(21)
        node_counts = set()
        for _ in range(3):
            obs, round_index = env.reset(rng), 0
            while True:
                (k, s), n = env.sharding, env.n_nodes
                node_counts.add(n)
                assert obs.shape == (OBSERVATION_SIZE,)
                # each ratio rounded once, to the learner's float32
                assert obs.dtype == np.float32
                assert np.array_equal(obs, np.array([
                    k / cfg.max_shards_cap, s / cfg.avg_message_size_max,
                    n / cfg.nodes_max, round_index / cfg.rounds_per_episode],
                    np.float32))
                if env.terminal:
                    break
                obs, _, _, _ = env.step(Action(int(rng.integers(0, 4))), rng)
                round_index += 1
        assert len(node_counts) > 1

    def test_reset_draws_nothing(self):
        rng = Rng(13)
        ShardEnv(NetworkConfig()).reset(rng)
        assert rng.uniform() == Rng(13).uniform()


class TestDraws:
    @pytest.mark.parametrize("cfg_kwargs", [
        {}, {"rate_min": 7_300_001.5, "rate_max": 61_100_000,
             "semantic_time_max": 13.7, "nodes_initial": 60}],
        ids=["defaults", "int-rate-max"])
    def test_rounds_draw_what_rng_uniform_draws(self, cfg_kwargs):
        # a mirror stream of the same seed, drawing through Rng.uniform and
        # Rng.integers in round order, must see every round's values
        cfg = NetworkConfig(**cfg_kwargs)
        env = ShardEnv(cfg)
        rng, mirror = Rng(31), Rng(31)
        env.reset(rng)
        while not env.terminal:
            env.force_setting(cfg.nodes_initial // cfg.min_shard_size,
                              cfg.avg_message_size_max, rng)
        assert len(env.log.records) == cfg.rounds_per_episode
        n = cfg.nodes_initial
        for rec in env.log.records:
            assert rec.rate == mirror.uniform(cfg.rate_min, cfg.rate_max)
            assert rec.semantic_time == mirror.uniform(
                0.0, cfg.semantic_time_max)
            walk = mirror.integers(-cfg.node_walk_step, cfg.node_walk_step)
            n = min(max(n + walk, cfg.nodes_min), cfg.nodes_max)
            assert rec.n_nodes == n

    @pytest.mark.parametrize("env_class", [ShardEnv, PinnedEnv])
    def test_pinned_draws_fix_every_round(self, env_class):
        # the premise of the oracle tests: under PINNED every round, stepped
        # or forced, runs at rate_min and semantic_time_max with no churn,
        # and PinnedEnv draws nothing from the rng it is handed
        cfg = pinned_config(nodes_initial=60, rounds_per_episode=40)
        env = env_class(cfg)
        rng = PINNED if env_class is ShardEnv else Rng(8)
        picks = Rng(9)
        env.reset(rng)
        while not env.terminal:
            if picks.random() < 0.5:
                env.step(Action(int(picks.integers(0, 4))), rng)
            else:
                env.force_setting(int(picks.integers(1, 15)),
                                  cfg.message_size_min, rng)
        assert {r.action == "FORCED" for r in env.log.records} == {True, False}
        for rec in env.log.records:
            assert rec.rate == cfg.rate_min
            assert rec.semantic_time == cfg.semantic_time_max
            assert rec.n_nodes == cfg.nodes_initial
        if rng is not PINNED:
            assert rng.random() == Rng(8).random()


class TestStep:
    def test_noop_keeps_setting(self):
        env, _ = pinned_env()
        env.reset(Rng(0))
        _, reward, _, info = env.step(Action.NOOP, PINNED)
        assert env.sharding == (1, 8_000_000)
        assert not info["clamped"] and not info["reconfigured"]
        assert reward == pytest.approx(
            straight_line_reward(1, 8_000_000, 100, *DRAWS, False))

    def test_inc_at_cap_is_clamped(self):
        env, cfg = pinned_env()
        env.reset(Rng(0))
        for _ in range(24):  # ramp to the 25-shard cap
            env.step(Action.INC_SHARDS, PINNED)
        assert env.sharding[0] == 25
        _, _, _, info = env.step(Action.INC_SHARDS, PINNED)
        assert env.sharding[0] == 25
        assert info["clamped"] and not info["reconfigured"]

    def test_message_size_actions_move_by_one_step(self):
        env, cfg = pinned_env()
        env.reset(Rng(0))
        env.step(Action.DEC_MSG, PINNED)
        assert env.sharding[1] == 8_000_000 - cfg.message_size_step
        env.step(Action.INC_MSG, PINNED)
        assert env.sharding[1] == 8_000_000

    def test_ramp_to_optimum_reward_profile(self):
        # K 10 -> 25 via INC_SHARDS under pinned draws
        env, _ = pinned_env(rounds_per_episode=60)
        env.reset(Rng(0))
        for _ in range(9):
            env.step(Action.INC_SHARDS, PINNED)
        _, reward_at_10, _, _ = env.step(Action.NOOP, PINNED)
        assert reward_at_10 == pytest.approx(0.1213, abs=5e-5)

        ramp_rewards = []
        for _ in range(15):
            _, reward, _, _ = env.step(Action.INC_SHARDS, PINNED)
            ramp_rewards.append(reward)
        assert env.sharding[0] == 25
        assert all(b > a for a, b in zip(ramp_rewards, ramp_rewards[1:]))

        _, reward_at_25, _, _ = env.step(Action.NOOP, PINNED)
        assert reward_at_25 == pytest.approx(1.2469, abs=5e-5)

    def test_step_after_terminal_raises(self):
        env, _ = pinned_env(rounds_per_episode=2)
        env.reset(Rng(0))
        env.step(Action.NOOP, PINNED)
        _, _, terminal, _ = env.step(Action.NOOP, PINNED)
        assert terminal
        with pytest.raises(EpisodeFinishedError):
            env.step(Action.NOOP, PINNED)


class TestActionValues:
    """step takes exactly the values Action() takes, and logs each action's
    own name."""

    @pytest.mark.parametrize("bad", [-1, 5, 2.5, "2"])
    def test_rejected_before_any_state_changes(self, bad):
        with pytest.raises(ValueError):
            Action(bad)
        env, _ = pinned_env()
        env.reset(Rng(0))
        env.step(Action.INC_SHARDS, PINNED)
        obs, records = env.observe(), list(env.log.records)
        with pytest.raises(ValueError):
            env.step(bad, PINNED)
        assert np.array_equal(env.observe(), obs)  # round counter included
        assert env.sharding == (2, 8_000_000)
        assert env.log.records == records

    @pytest.mark.parametrize("value, member", [
        (2, Action.INC_MSG), (np.int64(2), Action.INC_MSG),
        (True, Action.DEC_SHARDS), (np.array(3), Action.DEC_MSG)],
        ids=["int", "np.int64", "bool", "unhashable"])
    def test_accepted_values_step_like_their_member(self, value, member):
        steps = []
        for action in (value, member):
            env = ShardEnv(NetworkConfig(seed=4))
            rng = Rng(4)
            env.reset(rng)
            env.step(Action.INC_SHARDS, rng)
            env.step(Action.DEC_MSG, rng)
            obs, reward, terminal, info = env.step(action, rng)
            steps.append((obs.tolist(), reward, terminal, info,
                           env.sharding, env.log.records))
        assert steps[0] == steps[1]

    def test_each_action_logs_its_own_name(self):
        env, _ = pinned_env()
        env.reset(Rng(0))
        for action in Action:
            env.step(action, PINNED)
        env.force_setting(2, 8_000_000, PINNED)
        assert [r.action for r in env.log.records] == [
            "INC_SHARDS", "DEC_SHARDS", "INC_MSG", "DEC_MSG", "NOOP", "FORCED"]


class TestTrajectoryProperties:
    def _rollout(self, seed, rounds=100):
        cfg = NetworkConfig(nodes_initial=60, rounds_per_episode=rounds)
        env = ShardEnv(cfg)
        rng = Rng(seed)
        obs = env.reset(rng)
        trace = [obs]
        while not env.terminal:
            action = Action(int(rng.integers(0, 4)))
            obs, reward, _, _ = env.step(action, rng)
            trace.append((obs.tolist(), reward, *env.sharding, env.n_nodes))
        return trace, env.log

    def test_seed_determines_trajectory(self):
        trace_a, log_a = self._rollout(123)
        trace_b, log_b = self._rollout(123)
        assert repr(trace_a) == repr(trace_b)
        assert log_a == log_b

    def test_sharding_invariants_hold_every_step(self):
        cfg = NetworkConfig(nodes_initial=60)
        env = ShardEnv(cfg)
        rng = Rng(5)
        for _ in range(3):
            env.reset(rng)
            while not env.terminal:
                action = Action(int(rng.integers(0, 4)))
                _, _, _, info = env.step(action, rng)
                k, s = env.sharding
                n = env.n_nodes
                assert 1 <= k <= n // cfg.min_shard_size
                assert cfg.message_size_min <= s <= cfg.avg_message_size_max
                sizes = partition(n, k, cfg.min_shard_size)
                assert sum(sizes) == n and min(sizes) >= 4

    def test_reward_consistency_with_log(self):
        _, log = self._rollout(99)
        assert len(log.records) == 100
        for rec in log.records:
            expected = straight_line_reward(
                rec.num_shards, rec.message_size, rec.n_nodes, rec.rate,
                rec.semantic_time, rec.reconfigured)
            assert rec.tps == pytest.approx(expected * 1000.0, rel=1e-12)

    def test_no_policy_beats_static_optimum(self):
        env, cfg = pinned_env(rounds_per_episode=40)
        best = max(
            straight_line_reward(k, s, 100, *DRAWS, False)
            for k, s in itertools.product(
                range(1, 26),
                range(cfg.message_size_min, cfg.avg_message_size_max + 1,
                      cfg.message_size_step)))
        rng = Rng(8)
        for _ in range(3):
            env.reset(rng)
            while not env.terminal:
                action = Action(int(rng.integers(0, 4)))
                _, reward, _, _ = env.step(action, PINNED)
                assert reward <= best + 1e-12


class TestBaseline:
    def test_pinned_draws_keep_the_max_setting(self):
        cfg = pinned_config(rounds_per_episode=20)
        run = run_baseline(cfg, 1, PINNED)
        assert len(run) == 1
        # re-derive via the log of an equivalent forced-setting episode
        env = ShardEnv(cfg)
        env.reset(Rng(4))
        while not env.terminal:
            env.force_setting(25, cfg.avg_message_size_max, PINNED)
        assert all(rec.num_shards == 25 and rec.message_size == 8_000_000
                   for rec in env.log.records)

    def test_equal_seeds_identical_rewards(self):
        cfg = NetworkConfig(rounds_per_episode=30)
        assert run_baseline(cfg, 3, Rng(6)) == run_baseline(cfg, 3, Rng(6))

    def test_mean_matches_hand_composition(self):
        cfg = pinned_config(rounds_per_episode=100)
        mean = run_baseline(cfg, 1, PINNED)[0]
        first = straight_line_reward(25, 8_000_000, 100, *DRAWS, True)
        steady = straight_line_reward(25, 8_000_000, 100, *DRAWS, False)
        assert mean == pytest.approx((first + 99 * steady) / 100, abs=1e-9)

    def test_matches_a_written_out_static_loop_under_churn(self):
        cfg = NetworkConfig(rounds_per_episode=30)
        for seed in (2, 9):
            env, rng, expected = ShardEnv(cfg), Rng(seed), []
            for _ in range(3):
                env.reset(rng)
                total = 0.0
                while not env.terminal:
                    _, reward, _, _ = env.force_setting(
                        cfg.nodes_initial // cfg.min_shard_size,
                        cfg.avg_message_size_max, rng)
                    total += reward
                expected.append(total / cfg.rounds_per_episode)
            assert len({rec.n_nodes for rec in env.log.records}) > 1
            assert run_baseline(cfg, 3, Rng(seed)) == expected


class TestRunEpisodes:
    def test_play_runs_each_round_from_the_last_observation(self):
        cfg = NetworkConfig(rounds_per_episode=4)
        env, rng, seen, totals = ShardEnv(cfg), Rng(3), [], [0.0, 0.0]

        def play(episode, obs):
            seen.append((episode, obs[3]))
            result = env.step(Action.INC_SHARDS, rng)
            totals[episode] += result[1]
            return result

        means = env_module.run_episodes(env, 2, rng, play)
        # the round feature: reset's 0, then each step's own observation
        assert seen == [(e, r / 4) for e in (0, 1) for r in range(4)]
        assert means == [totals[0] / 4, totals[1] / 4]

    def test_train_and_run_baseline_each_run_one_loop(self, monkeypatch):
        # the one loop is also the only caller of ShardEnv.reset
        calls, resets = [], []
        loop, reset = env_module.run_episodes, ShardEnv.reset

        def counting_loop(shard_env, episodes, rng, play):
            calls.append(episodes)
            return loop(shard_env, episodes, rng, play)

        def counting_reset(self, rng):
            resets.append(calls[-1] if calls else None)
            return reset(self, rng)

        assert dqn.run_episodes is loop
        monkeypatch.setattr(env_module, "run_episodes", counting_loop)
        monkeypatch.setattr(dqn, "run_episodes", counting_loop)
        monkeypatch.setattr(ShardEnv, "reset", counting_reset)
        cfg = NetworkConfig(rounds_per_episode=5, nodes_initial=60)
        dqn.train(ShardEnv(cfg), dqn.Hyperparameters(epochs=3, batch_size=4),
                  Rng(1))
        assert calls == [3]
        env_module.run_baseline(cfg, 4, Rng(1))
        assert calls == [3, 4]
        assert resets == [3] * 3 + [4] * 4


class TestEpisodeRecord:
    """The benchmark's self-test perturbs a record with dataclasses.replace,
    and ShardEnv._advance builds each record positionally."""

    def _live_episode(self):
        cfg = NetworkConfig(rounds_per_episode=20)
        env, rng = ShardEnv(cfg), Rng(4)
        env.reset(rng)
        steps = []
        for action in itertools.islice(itertools.cycle(Action), 20):
            _, reward, _, info = env.step(action, rng)
            steps.append((action, reward, info, env.sharding, env.n_nodes))
        return cfg, env.log.records, steps

    def test_replace_gives_a_perturbed_copy(self):
        _, records, _ = self._live_episode()
        rec = records[7]
        bad = dataclasses.replace(rec, tps=rec.tps * (1 + 1e-9))
        assert bad != rec
        assert dataclasses.replace(bad, tps=rec.tps) == rec

    def test_fields_run_in_the_order_advance_passes_them(self):
        cfg, records, steps = self._live_episode()
        assert len(records) == len(steps)
        for i, (rec, step) in enumerate(zip(records, steps)):
            action, reward, info, (k, s), n = step
            assert cfg.rate_min <= rec.rate <= cfg.rate_max
            assert 0.0 <= rec.semantic_time <= cfg.semantic_time_max
            lat = round_latency(k, s, n, rec.rate, rec.semantic_time,
                                info["reconfigured"], cfg)
            tps = throughput(k, s, lat.t_round, cfg)
            assert tps / cfg.reward_scale == reward
            # by keyword, so each value is checked against its field's name
            assert rec == EpisodeRecord(
                round=i, num_shards=k, message_size=s, n_nodes=n,
                rate=rec.rate, semantic_time=rec.semantic_time, tps=tps,
                action=action.name, clamped=info["clamped"],
                reconfigured=info["reconfigured"])
