import io
import itertools
import math
import struct

import numpy as np
import pytest

import semshard.dqn as dqn
from dqn_oracles import (gradient_check_instance, max_relative_gradient_error,
                         reference_forward, reference_train_step)
from semshard.core import ConfigError, NetworkConfig, Rng
from semshard.dqn import (Hyperparameters, QNetwork, ReplayBuffer, act,
                          epsilon_for_epoch, load_network, save_network,
                          sync_target, td_targets, train, train_step,
                          write_training_csv)
from semshard.env import Action, ShardEnv

OBS = 8


def toy_net(b2=None):
    """All-zero network; Q equals whatever bias is written into layer 2."""
    net = QNetwork(OBS, 4, 5)
    if b2 is not None:
        net.b2 = np.array(b2, dtype=float)
    return net


def random_obs(rng, n=1):
    return rng.uniform(0.0, 1.0, (n, OBS)) if n > 1 else rng.uniform(0.0, 1.0, OBS)


class TestForward:
    def test_all_zero_parameters(self):
        assert np.array_equal(toy_net().forward(np.ones(OBS)), np.zeros(5))

    def test_hand_computed_two_unit_hidden(self):
        net = QNetwork(OBS, 2, 5)
        net.b1 = np.array([1.5, -2.0])
        net.w2 = np.array([[1.0, 0.0, 2.0, 0.0, -1.0],
                           [1.0, 1.0, 1.0, 1.0, 1.0]])
        net.b2 = np.array([0.0, 0.5, 0.0, 0.0, 0.0])
        # hidden = relu([1.5, -2.0]) = [1.5, 0]; Q = 1.5 * w2[0] + b2
        expected = np.array([1.5, 0.5, 3.0, 0.0, -1.5])
        assert np.allclose(net.forward(random_obs(Rng(0)) * 0.0), expected)

    def test_zero_input_depends_only_on_biases(self):
        rng = Rng(2)
        net = QNetwork(OBS, 16, 5, rng)
        net.b1 = rng.uniform(-1, 1, 16)
        net.b2 = rng.uniform(-1, 1, 5)
        expected = np.maximum(net.b1, 0.0) @ net.w2 + net.b2
        assert np.allclose(net.forward(np.zeros(OBS)), expected)

    def test_batched_matches_single(self):
        net = QNetwork(OBS, 16, 5, Rng(3))
        batch = random_obs(Rng(4), 6)
        stacked = net.forward(batch)
        for i in range(6):
            assert np.allclose(stacked[i], net.forward(batch[i]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            toy_net().forward(np.ones(7))


class TestAct:
    def test_greedy_argmax(self):
        net = toy_net([1.0, 5.0, 3.0, 2.0, 0.0])
        assert act(net, np.ones(OBS), 0.0, Rng(0)) == Action(1)

    def test_greedy_tie_breaks_low_index(self):
        net = toy_net([2.0, 2.0, 0.0, 0.0, 0.0])
        assert act(net, np.ones(OBS), 0.0, Rng(0)) == Action(0)

    def test_full_exploration_is_uniform(self):
        rng = Rng(12)
        net = toy_net([9.0, 0.0, 0.0, 0.0, 0.0])
        counts = np.zeros(5)
        draws = 100_000
        for _ in range(draws):
            counts[int(act(net, np.ones(OBS), 1.0, rng))] += 1
        sigma = math.sqrt(draws * 0.2 * 0.8)
        assert np.all(np.abs(counts - draws * 0.2) < 3 * sigma)


def zero_obs_bundle(actions, rewards, terminals):
    """A ReplayBuffer.sample()-shaped batch with all-zero observations."""
    n = len(actions)
    return (np.zeros((n, OBS)), np.array(actions, dtype=np.int64),
            np.array(rewards, dtype=float), np.zeros((n, OBS)),
            np.array(terminals, dtype=bool))


class TestTdTargets:
    def test_bootstrap_value(self):
        target = toy_net([2.0, 0.0, 0.0, 0.0, 0.0])
        batch = zero_obs_bundle([0], [1.0], [False])
        assert td_targets(batch, target, 0.98) == pytest.approx([2.96])

    def test_terminal_uses_raw_reward(self):
        target = toy_net([5.0, 0.0, 0.0, 0.0, 0.0])
        batch = zero_obs_bundle([0], [0.5], [True])
        assert td_targets(batch, target, 0.98) == pytest.approx([0.5])

    def test_zero_discount_degenerates_to_reward(self):
        target = toy_net([5.0, 0.0, 0.0, 0.0, 0.0])
        batch = zero_obs_bundle([0, 1], [0.7, -0.2], [False, True])
        assert td_targets(batch, target, 0.0) == pytest.approx([0.7, -0.2])


class TestGradients:
    def test_matches_finite_differences(self):
        checked = 0
        seed = 0
        while checked < 5:
            instance = gradient_check_instance(seed)
            seed += 1
            if instance is None:
                continue
            assert max_relative_gradient_error(*instance) < 1e-4
            checked += 1


class TestTrainStep:
    def test_underfull_buffer_leaves_networks_unchanged(self):
        hp = Hyperparameters(batch_size=64)
        est = QNetwork(OBS, 8, 5, Rng(1))
        target = est.clone()
        before = {k: v.copy() for k, v in est.parameters().items()}
        buffer = ReplayBuffer(100)
        for i in range(63):
            buffer.push(np.zeros(OBS), 0, 0.0, np.zeros(OBS), True)
        assert train_step(est, target, buffer, hp, Rng(0)) is None
        for k, v in est.parameters().items():
            assert np.array_equal(v, before[k])

    def test_single_transition_convergence(self):
        hp = Hyperparameters(batch_size=1)
        rng = Rng(7)
        est = QNetwork(OBS, 128, 5, rng)
        target = est.clone()  # frozen: never re-synced
        buffer = ReplayBuffer(10)
        buffer.push(random_obs(Rng(3)), 2, 1.0, random_obs(Rng(4)), True)
        loss = None
        for step in range(500):
            loss = train_step(est, target, buffer, hp, rng)
            if loss is not None and loss < 1e-3:
                break
        assert loss is not None and loss < 1e-3


class TestSyncTarget:
    def test_forward_equal_after_sync(self):
        est = QNetwork(OBS, 32, 5, Rng(5))
        target = QNetwork(OBS, 32, 5, Rng(6))
        sync_target(est, target)
        rng = Rng(7)
        for _ in range(100):
            x = random_obs(rng)
            assert np.array_equal(est.forward(x), target.forward(x))

    def test_target_frozen_between_syncs(self):
        hp = Hyperparameters(batch_size=4)
        rng = Rng(9)
        est = QNetwork(OBS, 16, 5, rng)
        target = est.clone()
        frozen = {k: v.copy() for k, v in target.parameters().items()}
        buffer = ReplayBuffer(100)
        for i in range(10):
            buffer.push(random_obs(rng), i % 5, 1.0, random_obs(rng), False)
        for _ in range(9):
            assert train_step(est, target, buffer, hp, rng) is not None
        for k, v in target.parameters().items():
            assert np.array_equal(v, frozen[k])
        assert not np.array_equal(est.w2, frozen["w2"])

    def test_training_loop_syncs_every_interval(self, monkeypatch):
        calls = []
        real_sync = dqn.sync_target

        def counting_sync(est, target):
            calls.append(1)
            real_sync(est, target)

        monkeypatch.setattr(dqn, "sync_target", counting_sync)
        cfg = NetworkConfig(rounds_per_episode=25)
        hp = Hyperparameters(batch_size=4, epochs=1, target_sync_interval=10)
        env = ShardEnv(cfg, frozen_exogenous=(1e7, 20.0))
        train(env, hp, Rng(1))
        # one clone() sync at setup, then gradient steps 10 and 20
        grad_steps = 25 - hp.batch_size + 1
        assert len(calls) - 1 == grad_steps // hp.target_sync_interval


class TestSameBitsAsReference:
    @pytest.mark.parametrize("hidden,batch", [(128, 64), (16, 8)])
    def test_steps_match_plain_numpy_bit_for_bit(self, hidden, batch):
        # 300 gradient steps and 30 target syncs on live env transitions,
        # from the same parameters and sampling stream on both sides
        hp = Hyperparameters(hidden_units=hidden, batch_size=batch)
        est = QNetwork(OBS, hidden, 5, Rng(8))
        target = est.clone()
        ref_est = {k: v.copy() for k, v in est.parameters().items()}
        ref_target = {k: v.copy() for k, v in ref_est.items()}
        buffer = ReplayBuffer(hp.buffer_capacity)
        rng, ref_rng, env_rng = Rng(9), Rng(9), Rng(10)
        env = ShardEnv(NetworkConfig(seed=3))
        obs = env.reset(env_rng)
        steps = 0
        while steps < 300:
            assert np.array_equal(est.forward(obs),
                                  reference_forward(ref_est, obs))
            action = act(est, obs, hp.epsilon, env_rng)
            next_obs, reward, terminal, _ = env.step(action, env_rng)
            buffer.push(obs, int(action), reward, next_obs, terminal)
            loss = train_step(est, target, buffer, hp, rng)
            assert loss == reference_train_step(ref_est, ref_target, buffer,
                                                hp, ref_rng)
            if loss is not None:
                steps += 1
                if steps % hp.target_sync_interval == 0:
                    sync_target(est, target)
                    ref_target = {k: v.copy() for k, v in ref_est.items()}
            for net, ref in ((est, ref_est), (target, ref_target)):
                for k, v in net.parameters().items():
                    assert np.array_equal(v, ref[k]), k
            obs = env.reset(env_rng) if terminal else next_obs


class TestFlatParameters:
    def test_assignment_reaches_forward_and_saved_bytes(self, tmp_path):
        net = QNetwork(OBS, 16, 5, Rng(1))
        x = random_obs(Rng(2))
        w2 = Rng(3).uniform(-1, 1, (16, 5))
        hidden = np.maximum(x @ net.w1 + net.b1, 0.0)
        save_network(net, tmp_path / "before.bin")
        net.w2 = w2
        assert np.array_equal(net.forward(x), hidden @ w2 + net.b2)
        save_network(net, tmp_path / "after.bin")
        before = (tmp_path / "before.bin").read_bytes()
        after = (tmp_path / "after.bin").read_bytes()
        # header, then w1 and b1 precede w2
        start = 20 + 8 * (OBS * 16 + 16)
        end = start + 8 * w2.size
        assert after[start:end] == w2.astype("<f8").tobytes() \
            != before[start:end]
        assert after[:start] == before[:start] and after[end:] == before[end:]

    @pytest.mark.parametrize("name,shape", [
        ("w1", (16, OBS)), ("b1", (17,)), ("w2", (5,)), ("b2", ())])
    def test_wrong_shape_assignment_raises(self, name, shape):
        # (5,) and () would broadcast into w2 and b2 without the check
        net = QNetwork(OBS, 16, 5, Rng(1))
        before = net.theta.copy()
        with pytest.raises(ValueError, match=name):
            setattr(net, name, np.ones(shape))
        assert np.array_equal(net.theta, before)

    def test_step_after_sync_leaves_target_theta(self):
        hp = Hyperparameters(batch_size=4)
        rng = Rng(4)
        est, target = QNetwork(OBS, 16, 5, rng), QNetwork(OBS, 16, 5)
        sync_target(est, target)
        frozen = target.theta.copy()
        buffer = ReplayBuffer(10)
        for i in range(4):
            buffer.push(random_obs(rng), i, 1.0, random_obs(rng), False)
        assert train_step(est, target, buffer, hp, rng) is not None
        assert np.array_equal(target.theta, frozen)
        assert not np.array_equal(est.theta, frozen)


class TestReplayBuffer:
    def test_fifo_eviction(self):
        buffer = ReplayBuffer(100, obs_size=2)
        for i in range(250):
            buffer.push(np.zeros(2), 0, float(i), np.zeros(2), False)
        assert len(buffer) == 100
        rewards = [t[2] for t in buffer.snapshot()]
        assert rewards == [float(i) for i in range(150, 250)]

    def test_sample_with_replacement_covers_buffer(self):
        buffer = ReplayBuffer(8, obs_size=2)
        for i in range(8):
            buffer.push(np.full(2, i), i % 5, float(i), np.zeros(2), False)
        _, _, rewards, _, _ = buffer.sample(1000, Rng(0))
        assert set(rewards.astype(int)) == set(range(8))


class TestInitialization:
    def test_uniform_bounds_and_zero_biases(self):
        net = QNetwork(OBS, 128, 5, Rng(11))
        b1 = 1.0 / math.sqrt(OBS)
        b2 = 1.0 / math.sqrt(128)
        assert np.max(np.abs(net.w1)) <= b1 and np.max(np.abs(net.w2)) <= b2
        # uniform std is bound / sqrt(3)
        assert net.w1.std() == pytest.approx(b1 / math.sqrt(3), rel=0.1)
        assert np.array_equal(net.b1, np.zeros(128))
        assert np.array_equal(net.b2, np.zeros(5))

    def test_seeded_reproducible(self):
        a, b = QNetwork(OBS, 16, 5, Rng(1)), QNetwork(OBS, 16, 5, Rng(1))
        assert np.array_equal(a.w1, b.w1) and np.array_equal(a.w2, b.w2)


class TestRewardScalingInvariance:
    def test_argmax_ordering_survives_scaling(self):
        # ten states, all five actions constrained per state, terminal
        # transitions so targets equal rewards exactly; 0.2 reward gaps keep
        # the argmax robust to the residual fit error
        rng = Rng(21)
        states = rng.uniform(0.0, 1.0, (10, OBS))
        levels = np.array([0.2, 0.4, 0.6, 0.8, 1.0])
        rewards = np.array([levels[np.argsort(rng.uniform(size=5))]
                            for _ in range(10)])

        def retrain(scale):
            hp = Hyperparameters(batch_size=50, learning_rate=0.05)
            est = QNetwork(OBS, 64, 5, Rng(33))
            target = est.clone()
            buffer = ReplayBuffer(64)
            for s, a in itertools.product(range(10), range(5)):
                buffer.push(states[s], a, scale * rewards[s, a], states[s],
                            True)
            sample_rng = Rng(44)
            for _ in range(4000):
                loss = train_step(est, target, buffer, hp, sample_rng)
            assert loss < 1e-2 * scale ** 2
            return est

        net_a = retrain(1.0)
        net_b = retrain(3.0)
        for s in range(10):
            assert (np.argmax(net_a.forward(states[s]))
                    == np.argmax(net_b.forward(states[s]))
                    == np.argmax(rewards[s]))


class TestSerialization:
    def test_roundtrip_bitwise(self, tmp_path):
        net = QNetwork(OBS, 32, 5, Rng(3))
        net.b1 = Rng(4).uniform(-1, 1, 32)
        path = tmp_path / "net.bin"
        save_network(net, path)
        loaded = load_network(path)
        for k, v in net.parameters().items():
            assert np.array_equal(loaded.parameters()[k], v)
        assert (loaded.input_size, loaded.hidden_size, loaded.output_size) \
            == (OBS, 32, 5)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTANET!" + b"\0" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_network(path)

    def test_truncated_file_rejected(self, tmp_path):
        net = QNetwork(OBS, 8, 5, Rng(0))
        path = tmp_path / "net.bin"
        save_network(net, path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(ValueError, match="truncated"):
            load_network(path)

    def test_short_header_rejected(self, tmp_path):
        path = tmp_path / "net.bin"
        path.write_bytes(dqn.NETWORK_MAGIC + b"\0" * 5)
        with pytest.raises(ValueError, match="header"):
            load_network(path)

    def test_header_dims_checked_before_allocating(self, tmp_path):
        # w1 alone would take 8 * (2**32 - 1)**2 bytes, above 2**60
        path = tmp_path / "net.bin"
        path.write_bytes(dqn.NETWORK_MAGIC
                         + struct.pack("<III", 2**32 - 1, 2**32 - 1, 5))
        with pytest.raises(ValueError, match="truncated"):
            load_network(path)


class TestHyperparameters:
    def test_case_study_defaults(self):
        hp = Hyperparameters()
        assert (hp.learning_rate, hp.discount, hp.epsilon, hp.batch_size,
                hp.target_sync_interval, hp.epochs) \
            == (0.002, 0.98, 0.1, 64, 10, 1000)

    def test_bad_discount_names_key(self):
        with pytest.raises(ConfigError, match="discount"):
            Hyperparameters(discount=1.5)

    def test_epsilon_decay_defaults_off(self):
        hp = Hyperparameters(epochs=100)
        assert epsilon_for_epoch(hp, 50) == 0.1
        decaying = Hyperparameters(epochs=100, epsilon_decay=True)
        assert epsilon_for_epoch(decaying, 0) == 0.1
        assert epsilon_for_epoch(decaying, 99) == pytest.approx(0.01)


class TestTraining:
    def _smoke(self):
        cfg = NetworkConfig(rounds_per_episode=20, nodes_initial=60, seed=0)
        hp = Hyperparameters(epochs=10, batch_size=8)
        env = ShardEnv(cfg)
        return train(env, hp, Rng(42))

    def test_smoke_run_bit_reproducible(self):
        net_a, rows_a = self._smoke()
        net_b, rows_b = self._smoke()
        assert rows_a == rows_b
        for k, v in net_a.parameters().items():
            assert np.array_equal(net_b.parameters()[k], v)

    def test_csv_rows_schema(self):
        _, rows = self._smoke()
        buf = io.StringIO()
        write_training_csv(rows, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "epoch,mean_reward,epsilon,mean_loss"
        assert len(lines) == 11

    def test_trained_policy_reaches_static_optimum_on_frozen_fixture(self):
        cfg = NetworkConfig(seed=5)
        frozen = (1e7, 20.0)
        hp = Hyperparameters(epochs=200)
        net, _ = train(ShardEnv(cfg, frozen_exogenous=frozen), hp, Rng(5))

        best = max(
            (k * (s / cfg.tx_size)) / (2 * -(-100 // k) * (-(-100 // k) - 1)
                                       * s / 1e7 + 0.1 + 20.0 + s / 1e7)
            for k in range(1, 26)
            for s in range(cfg.message_size_min, cfg.avg_message_size_max + 1,
                           cfg.message_size_step)) / cfg.reward_scale

        eval_env = ShardEnv(cfg, frozen_exogenous=frozen)
        rng = Rng(99)
        obs = eval_env.reset(rng)
        reward = 0.0
        while not eval_env.terminal:
            action = Action(int(np.argmax(net.forward(obs))))
            obs, reward, _, _ = eval_env.step(action, rng)
        assert reward >= 0.9 * best

    def test_full_exploration_matches_random_policy(self):
        # with epsilon pinned at 1.0 the learner's behavior distribution is
        # the uniform-random policy; compare means over 20 seeds (Welch t)
        def mean_rewards(random_policy):
            means = []
            for seed in range(20):
                cfg = NetworkConfig(rounds_per_episode=25, nodes_initial=60,
                                    seed=seed)
                env = ShardEnv(cfg)
                rng = Rng(seed)
                if random_policy:
                    total, episodes = 0.0, 2
                    for _ in range(episodes):
                        env.reset(rng)
                        while not env.terminal:
                            a = Action(int(rng.integers(0, 4)))
                            _, r, _, _ = env.step(a, rng)
                            total += r
                    means.append(total / (episodes * 25))
                else:
                    hp = Hyperparameters(epochs=2, batch_size=8, epsilon=1.0)
                    _, rows = train(env, hp, rng)
                    means.append(float(np.mean([r.mean_reward for r in rows])))
            return np.array(means)

        a, b = mean_rewards(True), mean_rewards(False)
        pooled = math.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))
        t_stat = abs(a.mean() - b.mean()) / pooled
        assert t_stat < 3.0
