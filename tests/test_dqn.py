import itertools
import math
import struct
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semshard.dqn as dqn
from dqn_oracles import (gradient_check_instance,
                         max_relative_gradient_error, reference_forward,
                         reference_train_step)
from pinned_draws import PinnedEnv, pinned_config
from semshard import cli
from semshard.core import MAX_ARRAY_BYTES, ConfigError, NetworkConfig, Rng
from semshard.dqn import (Hyperparameters, QNetwork, ReplayBuffer, TrainRow,
                          act, epsilon_for_epoch, load_network, save_network,
                          sync_target, td_targets, train, train_step)
from semshard.env import (NUM_ACTIONS, OBSERVATION_SIZE, Action, ShardEnv,
                          run_baseline)

OBS = OBSERVATION_SIZE  # the replay buffer's row width


def toy_net(b2=None):
    """All-zero network; Q equals whatever bias is written into layer 2,
    which is synced into the target row."""
    net = QNetwork(OBS, 4, 5)
    if b2 is not None:
        net.b2 = np.array(b2, dtype=float)
        sync_target(net)
    return net


def random_obs(rng, n=1):
    """Observations in float32, as ShardEnv.observe gives them."""
    shape = (n, OBS) if n > 1 else OBS
    return rng.uniform(0.0, 1.0, shape).astype(np.float32)


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

    @pytest.mark.parametrize("epsilon", [0.0, 1.0], ids=["greedy", "explore"])
    def test_returns_action_members(self, epsilon):
        net, rng = toy_net([1.0, 5.0, 3.0, 2.0, 0.0]), Rng(3)
        for _ in range(20):
            assert type(act(net, np.ones(OBS), epsilon, rng)) is Action

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
    """A ReplayBuffer.sample()-shaped batch, in its dtypes, with all-zero
    observations: each obs and next_obs row is OBS zeros and the bias input
    1.0."""
    n = len(actions)
    rows = np.zeros((2, n, OBS + 1), np.float32)
    rows[..., -1] = 1.0
    return (rows, np.array(actions, dtype=np.int64),
            np.array(rewards, dtype=np.float32),
            np.array(terminals, dtype=bool))


class TestTdTargets:
    def test_bootstrap_value(self):
        net = toy_net([2.0, 0.0, 0.0, 0.0, 0.0])
        batch = zero_obs_bundle([0], [1.0], [False])
        assert td_targets(batch, net, 0.98)[0] == pytest.approx([2.96])

    def test_terminal_uses_raw_reward(self):
        net = toy_net([5.0, 0.0, 0.0, 0.0, 0.0])
        batch = zero_obs_bundle([0], [0.5], [True])
        assert td_targets(batch, net, 0.98)[0] == pytest.approx([0.5])

    def test_zero_discount_degenerates_to_reward(self):
        net = toy_net([5.0, 0.0, 0.0, 0.0, 0.0])
        batch = zero_obs_bundle([0, 1], [0.7, -0.2], [False, True])
        assert td_targets(batch, net, 0.0)[0] == pytest.approx([0.7, -0.2])

    def test_one_pass_gives_each_network_its_own_rows(self):
        # row 0 of params runs on obs, row 1 on next_obs; after a write to
        # row 0 the rows differ, so a crossed stack would show
        rng = Rng(6)
        net = QNetwork(OBS, 16, 5, rng)
        net.w2 = rng.uniform(-1, 1, (16, 5))
        obs, next_obs = random_obs(rng, 3), random_obs(rng, 3)
        rows = np.ones((2, 3, OBS + 1), np.float32)
        rows[0, :, :-1], rows[1, :, :-1] = obs, next_obs
        batch = (rows, np.array([0, 1, 2]), np.zeros(3, np.float32),
                 np.zeros(3, dtype=bool))
        targets, (x, hidden, q) = td_targets(batch, net, 0.5)
        # each against a plain pass on its row's weights
        est, target = net.named(net.theta), net.named(net.target_theta)
        assert np.array_equal(
            targets, 0.5 * reference_forward(target, next_obs).max(axis=1))
        assert np.array_equal(x, rows[0]) and np.shares_memory(x, rows)
        assert np.array_equal(q, reference_forward(est, obs))
        assert np.array_equal(hidden,
                              np.maximum(obs @ est["w1"] + est["b1"], 0.0))
        assert targets.dtype == q.dtype == hidden.dtype == np.float32


class TestBatchConstants:
    def test_cached_constants_are_read_only(self):
        # the batch passes share these across steps and networks: a write
        # would corrupt every later batch of the same shape
        net = toy_net([1.0, 5.0, 3.0, 2.0, 0.0])
        batch = zero_obs_bundle([0, 3, 4], [1.0, 0.5, -0.2],
                                [False, True, False])
        targets, forward = td_targets(batch, net, 0.98)
        dqn.loss_and_gradients(net, batch[1], targets, forward)
        zeros, rows = dqn._zeros((2, 3, net.hidden_size)), dqn._row_index(3)
        assert zeros is dqn._zeros((2, 3, net.hidden_size))
        assert zeros.dtype == np.float32
        assert not zeros.any() and rows.tolist() == [0, 1, 2]
        for array in (zeros, rows):
            with pytest.raises(ValueError):
                array[0] = 7
            with pytest.raises(ValueError):
                np.add(array, 1, out=array)


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
        net = QNetwork(OBS, 8, 5, Rng(1))
        before = net.params.copy()
        buffer = ReplayBuffer(100)
        for i in range(63):
            buffer.push(np.zeros(OBS), 0, 0.0, np.zeros(OBS), True)
        assert train_step(net, buffer, hp, Rng(0)) is None
        assert np.array_equal(net.params, before)

    def test_single_transition_convergence(self):
        hp = Hyperparameters(batch_size=1)
        rng = Rng(7)
        net = QNetwork(OBS, 128, 5, rng)  # target frozen: never re-synced
        buffer = ReplayBuffer(10)
        buffer.push(random_obs(Rng(3)), 2, 1.0, random_obs(Rng(4)), True)
        loss = None
        for step in range(500):
            loss = train_step(net, buffer, hp, rng)
            if loss is not None and loss < 1e-3:
                break
        assert loss is not None and loss < 1e-3


class TestSyncTarget:
    def test_forward_equal_after_sync(self):
        net = QNetwork(OBS, 32, 5, Rng(5))
        net.target_theta[:] = QNetwork(OBS, 32, 5, Rng(6)).theta
        rows = np.ones((100, OBS + 1), np.float32)
        rows[:, :-1] = random_obs(Rng(7), 100)
        rows = np.stack([rows, rows])  # the same inputs on both rows
        _, q = net.stacked_forward(rows)
        assert not np.array_equal(q[0], q[1])
        sync_target(net)
        assert net.target_theta.tobytes() == net.theta.tobytes()
        _, q = net.stacked_forward(rows)
        assert np.array_equal(q[0], q[1])

    def test_target_frozen_between_syncs(self):
        hp = Hyperparameters(batch_size=4)
        rng = Rng(9)
        net = QNetwork(OBS, 16, 5, rng)
        frozen = {k: v.copy()
                  for k, v in net.named(net.target_theta).items()}
        buffer = ReplayBuffer(100)
        for i in range(10):
            buffer.push(random_obs(rng), i % 5, 1.0, random_obs(rng), False)
        for _ in range(9):
            assert train_step(net, buffer, hp, rng) is not None
        for k, v in net.named(net.target_theta).items():
            assert np.array_equal(v, frozen[k])
        assert not np.array_equal(net.w2, frozen["w2"])

    def test_training_loop_syncs_every_interval(self, monkeypatch):
        calls = []
        real_sync = dqn.sync_target

        def counting_sync(net):
            calls.append(1)
            real_sync(net)

        monkeypatch.setattr(dqn, "sync_target", counting_sync)
        cfg = NetworkConfig(rounds_per_episode=25)
        hp = Hyperparameters(batch_size=4, epochs=1, target_sync_interval=10)
        train(ShardEnv(cfg), hp, Rng(1))
        # one sync as the network is built, then gradient steps 10 and 20
        grad_steps = 25 - hp.batch_size + 1
        assert len(calls) - 1 == grad_steps // hp.target_sync_interval


class TestSameBitsAsReference:
    # batches of 37 and 3 are not multiples of a BLAS tile, so the edge
    # kernels run the dot products that the reference takes with @; a
    # 100-row ring is wrapped several times by the 363 pushes
    @pytest.mark.parametrize("hidden,batch,capacity",
                             [(128, 64, 10_000), (16, 8, 10_000),
                              (128, 37, 10_000), (7, 3, 10_000),
                              (128, 64, 100)],
                             ids=["128-64", "16-8", "128-37", "7-3",
                                  "128-64-ring100"])
    def test_steps_match_plain_numpy_bit_for_bit(self, hidden, batch,
                                                 capacity):
        # 300 gradient steps and 30 target syncs on live env transitions,
        # from the same parameters and sampling stream on both sides
        hp = Hyperparameters(hidden_units=hidden, batch_size=batch,
                             buffer_capacity=capacity)
        net = QNetwork(OBSERVATION_SIZE, hidden, 5, Rng(8))
        ref_est = {k: v.copy() for k, v in net.named(net.theta).items()}
        ref_target = {k: v.copy() for k, v in ref_est.items()}
        buffer = ReplayBuffer(hp.buffer_capacity)
        rng, ref_rng, env_rng = Rng(9), Rng(9), Rng(10)
        env = ShardEnv(NetworkConfig(seed=3))
        obs = env.reset(env_rng)
        steps = 0
        while steps < 300:
            assert np.array_equal(net.forward(obs),
                                  reference_forward(ref_est, obs))
            action = act(net, obs, hp.epsilon, env_rng)
            next_obs, reward, terminal, _ = env.step(action)
            buffer.push(obs, int(action), reward, next_obs, terminal)
            loss = train_step(net, buffer, hp, rng)
            assert loss == reference_train_step(ref_est, ref_target, buffer,
                                                hp, ref_rng)
            if loss is not None:
                steps += 1
                if steps % hp.target_sync_interval == 0:
                    sync_target(net)
                    ref_target = {k: v.copy() for k, v in ref_est.items()}
            for flat, ref in ((net.theta, ref_est),
                              (net.target_theta, ref_target)):
                for k, v in net.named(flat).items():
                    assert np.array_equal(v, ref[k]), k
            obs = env.reset(env_rng) if terminal else next_obs


class TestFlatParameters:
    def test_assignment_reaches_forward_and_saved_bytes(self, tmp_path):
        net = QNetwork(OBS, 16, 5, Rng(1))
        x = random_obs(Rng(2))
        # float32, as the weights are, so the saved float64 bytes are exact
        w2 = Rng(3).uniform(-1, 1, (16, 5)).astype(np.float32)
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

    @pytest.mark.parametrize("dims", [(OBS, 16, 5), (1, 1, 1), (3, 7, 2)])
    def test_views_sit_at_network_bin_offsets(self, dims):
        i, h, o = dims
        net = QNetwork(i, h, o)
        net.theta[:] = np.arange(net.theta.size)
        # network.bin's body: w1, b1, w2, b2, each row-major
        b1_at, w2_at, b2_at = i * h, (i + 1) * h, (i + 1 + o) * h
        assert net.theta.size == b2_at + o
        want = {"w1": np.arange(b1_at).reshape(i, h),
                "b1": np.arange(b1_at, w2_at),
                "w2": np.arange(w2_at, b2_at).reshape(h, o),
                "b2": np.arange(b2_at, b2_at + o)}
        sources = {"property": {k: getattr(net, k) for k in want},
                   "plain": {k: getattr(net, "_" + k) for k in want},
                   "named": net.named(net.theta)}
        for source, views in sources.items():
            assert list(views) == list(want), source
            for k, view in views.items():
                assert view.shape == want[k].shape, (source, k)
                assert np.array_equal(view, want[k]), (source, k)
                assert np.shares_memory(view, net.theta), (source, k)
        # theta's blocks, and the stacked blocks the stacked forward reads,
        # at theta's row of params
        block_want = (np.arange(w2_at).reshape(i + 1, h), want["w2"],
                      want["b2"])
        w1b1, w2, b2 = net.stacked
        for views, source in ((net.blocks(net.theta), net.theta),
                              ((w1b1[0], w2[0], b2[0, 0]), net.theta)):
            for view, expected in zip(views, block_want):
                assert view.shape == expected.shape
                assert np.array_equal(view, expected)
                assert np.shares_memory(view, source)

    @pytest.mark.parametrize("dims", [(OBS, 16, 5), (1, 1, 1), (3, 7, 2)])
    def test_clone_is_an_independent_copy(self, dims):
        net = QNetwork(*dims, rng=Rng(2))
        # rows that differ, so a copy of one row into both would show
        net.target_theta[:] = QNetwork(*dims, rng=Rng(3)).theta
        twin = net.clone()
        assert twin.sizes == net.sizes
        assert twin.params.tobytes() == net.params.tobytes()
        for mine, theirs in ((twin.params, net.params),
                             (twin.grad, net.grad)):
            assert not np.shares_memory(mine, theirs)
        # the twin's batch pass reads its own params
        for view in twin.stacked:
            assert np.shares_memory(view, twin.params)
        for name in ("w1", "b1", "w2", "b2"):
            assert np.shares_memory(getattr(twin, name), twin.theta)
        before = net.params.copy()
        twin.params += 1.0
        assert np.array_equal(net.params, before)

    @pytest.mark.parametrize("dims", [(OBS, 16, 5), (1, 1, 1), (3, 7, 2)])
    def test_network_bin_body_is_theta_to_the_byte(self, tmp_path, dims):
        size = QNetwork(*dims).theta.size
        head = dqn.NETWORK_MAGIC + struct.pack("<III", *dims)
        path = tmp_path / "net.bin"
        path.write_bytes(head + np.arange(size, dtype="<f8").tobytes())
        assert np.array_equal(load_network(path).theta, np.arange(size))
        for body, error in ((8 * size - 1, "truncated"),
                            (8 * size + 1, "trailing")):
            path.write_bytes(head + b"\0" * body)
            with pytest.raises(ValueError, match=error):
                load_network(path)

    def test_step_after_sync_leaves_target_theta(self):
        hp = Hyperparameters(batch_size=4)
        rng = Rng(4)
        net = QNetwork(OBS, 16, 5, rng)
        frozen = net.target_theta.copy()
        buffer = ReplayBuffer(10)
        for i in range(4):
            buffer.push(random_obs(rng), i, 1.0, random_obs(rng), False)
        assert train_step(net, buffer, hp, rng) is not None
        assert np.array_equal(net.target_theta, frozen)
        assert not np.array_equal(net.theta, frozen)


class TestBatchForward:
    # the batch path reads params through views built once; after any write
    # to the weights, the next batch forward must read the new ones
    def write(self, how, net, tmp_path):
        """Apply one write path; return the network whose batch forward is
        checked next."""
        rng = Rng(12)
        if how == "setter":
            net.w2 = rng.uniform(-1, 1, (16, 5))
        elif how == "load_network":
            trained = QNetwork(OBS, 16, 5, rng)
            save_network(trained, tmp_path / "net.bin")
            return load_network(tmp_path / "net.bin")
        elif how == "sync_target":
            # row 0 moves first, so the sync writes new weights into row 1
            net.w2 = rng.uniform(-1, 1, (16, 5))
            net.stacked_forward(np.ones((2, 1, OBS + 1), np.float32))
            sync_target(net)
        else:
            buffer = ReplayBuffer(10)
            for i in range(4):
                buffer.push(random_obs(rng), i, 1.0, random_obs(rng), False)
            assert train_step(net, buffer, Hyperparameters(batch_size=4),
                              rng) is not None
        return net

    @pytest.mark.parametrize("how", ["setter", "load_network", "sync_target",
                                     "train_step"])
    def test_next_batch_forward_reads_the_current_weights(self, how,
                                                          tmp_path):
        net = QNetwork(OBS, 16, 5, Rng(11))
        rows = np.ones((2, 6, OBS + 1), np.float32)
        rows[..., :-1] = Rng(13).uniform(0.0, 1.0, (2, 6, OBS))
        net.stacked_forward(rows)  # a pass as of before the write
        net = self.write(how, net, tmp_path)
        _, q = net.stacked_forward(rows)
        for r, flat in enumerate((net.theta, net.target_theta)):
            want = reference_forward(net.named(flat), rows[r, :, :-1])
            assert np.array_equal(q[r], want), r


class TestReplayBuffer:
    def test_fifo_eviction(self):
        buffer = ReplayBuffer(100)
        for i in range(250):
            buffer.push(np.zeros(OBS), 0, float(i), np.zeros(OBS), False)
        assert len(buffer) == 100
        # the ring from its cursor on, oldest first
        rewards = np.roll(buffer._rewards, -buffer._cursor).tolist()
        assert rewards == [float(i) for i in range(150, 250)]

    def test_sample_with_replacement_covers_buffer(self):
        buffer = ReplayBuffer(8)
        for i in range(8):
            buffer.push(np.full(OBS, i), i % 5, float(i), np.zeros(OBS), False)
        _, _, rewards, _ = buffer.sample(1000, Rng(0))
        assert set(rewards.astype(int)) == set(range(8))

    def test_sampled_rows_end_in_the_bias_input(self):
        buffer = ReplayBuffer(5)
        rng = Rng(1)
        stored = {}
        for i in range(12):  # wraps the ring twice
            obs, next_obs = (rng.uniform(-1, 1, OBS).astype(np.float32)
                             for _ in range(2))
            buffer.push(obs, i % 5, float(i), next_obs, False)
            stored[float(i)] = (obs, next_obs)
        rows, _, rewards, _ = buffer.sample(200, Rng(2))
        obs, next_obs = rows
        assert rows.shape == (2, 200, OBS + 1)
        assert set(rewards) == {7.0, 8.0, 9.0, 10.0, 11.0}
        for row, next_row, reward in zip(obs, next_obs, rewards):
            assert row[OBS] == next_row[OBS] == 1.0
            assert np.array_equal(row[:OBS], stored[reward][0])
            assert np.array_equal(next_row[:OBS], stored[reward][1])

    def test_sampled_indices_stay_below_len_while_filling_and_wrapped(self):
        # the index is floor(u * len): one at len or above would read a row
        # never pushed (reward 0.0) while filling, or raise once wrapped
        buffer = ReplayBuffer(6)
        rng = Rng(4)
        for i in range(1, 16):  # fills, then wraps the ring twice
            buffer.push(np.zeros(OBS), 0, float(i), np.zeros(OBS), False)
            _, _, rewards, _ = buffer.sample(500, rng)
            assert set(rewards) == {float(j) for j in range(max(1, i - 5),
                                                            i + 1)}

    def test_stored_rows_have_the_observation_width(self):
        buffer = ReplayBuffer(5)
        for i in range(7):
            buffer.push(np.full(OBS, i), 0, 0.0, np.full(OBS, -i), False)
        assert len(buffer) == 5
        # each row, oldest first, is the observation and the bias input
        obs, next_obs = np.roll(buffer._rows, -buffer._cursor, axis=1)
        for i, row, next_row in zip(range(2, 7), obs, next_obs, strict=True):
            assert np.array_equal(row, [i] * OBS + [1.0])
            assert np.array_equal(next_row, [-i] * OBS + [1.0])


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
        # the argmax robust to the residual fit error. On four features the
        # fit at scale 1 takes about 6,000 steps to order every state
        rng = Rng(21)
        states = rng.uniform(0.0, 1.0, (10, OBS))
        levels = np.array([0.2, 0.4, 0.6, 0.8, 1.0])
        rewards = np.array([levels[np.argsort(rng.uniform(size=5))]
                            for _ in range(10)])

        def retrain(scale):
            hp = Hyperparameters(batch_size=50, learning_rate=0.05)
            est = QNetwork(OBS, 64, 5, Rng(33))
            buffer = ReplayBuffer(64)
            for s, a in itertools.product(range(10), range(5)):
                buffer.push(states[s], a, scale * rewards[s, a], states[s],
                            True)
            sample_rng = Rng(44)
            for _ in range(12_000):
                loss = train_step(est, buffer, hp, sample_rng)
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
        for k, v in net.named(net.theta).items():
            assert np.array_equal(loaded.named(loaded.theta)[k], v)
        # the target row starts as a copy of the loaded weights
        assert loaded.target_theta.tobytes() == loaded.theta.tobytes()
        assert (loaded.input_size, loaded.hidden_size, loaded.output_size) \
            == (OBS, 32, 5)

    @staticmethod
    def write_body(path, dims, body):
        path.write_bytes(dqn.NETWORK_MAGIC + struct.pack("<III", *dims)
                         + np.asarray(body, "<f8").tobytes())

    def test_values_round_to_the_nearest_float32(self, tmp_path):
        # float32's spacing just above 1.0 is ulp, so 1 + ulp / 2 is a tie
        ulp, tiny = 2.0 ** -23, 2.0 ** -40
        cases = [(1 + ulp / 2, 1.0),  # tie, to the even neighbour
                 (1 + 1.5 * ulp, 1 + 2 * ulp),  # tie, to the even one
                 (1 + ulp / 2 + tiny, 1 + ulp),
                 (-(1 + ulp / 2 - tiny), -1.0),
                 (np.inf, np.inf), (-np.inf, -np.inf)]
        # (3, 1, 1) holds six values: w1 (3), b1, w2 and b2
        self.write_body(tmp_path / "net.bin", (3, 1, 1), [v for v, _ in cases])
        theta = load_network(tmp_path / "net.bin").theta
        assert theta.tolist() == [want for _, want in cases]
        # values of every scale float32 keeps: no float32 lies nearer
        rng, dims = Rng(17), (OBS, 16, 5)
        size = QNetwork(*dims).theta.size
        values = rng.normal(1.0, size) * 10.0 ** rng.uniform(-40, 37, size)
        self.write_body(tmp_path / "net.bin", dims, values)
        theta = load_network(tmp_path / "net.bin").theta
        for value, got in zip(values.tolist(), theta):
            distance = abs(Fraction(value) - Fraction(float(got)))
            for way in (-np.inf, np.inf):
                neighbour = Fraction(float(np.nextafter(got, np.float32(way))))
                assert distance <= abs(Fraction(value) - neighbour), value

    @pytest.mark.parametrize("value", [3.5e38, -1e300])
    def test_value_past_float32_range_rejected(self, tmp_path, value):
        self.write_body(tmp_path / "net.bin", (1, 1, 1), [0.0, value, 0, 0])
        with pytest.raises(ValueError, match="float32's range"):
            load_network(tmp_path / "net.bin")

    @given(dims=st.tuples(*[st.integers(1, 4)] * 3), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_save_of_load_is_byte_identical(self, dims, data):
        # any file save_network writes: any float32 weights, the
        # infinities, subnormals and a NaN included
        net = QNetwork(*dims)
        net.theta[:] = data.draw(st.lists(
            st.floats(width=32, allow_nan=False) | st.just(math.nan),
            min_size=net.theta.size, max_size=net.theta.size))
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp, "first.bin"), Path(tmp, "second.bin")
            save_network(net, first)
            save_network(load_network(first), second)
            assert second.read_bytes() == first.read_bytes()

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

    def test_trailing_bytes_rejected(self, tmp_path):
        net = QNetwork(OBS, 8, 5, Rng(0))
        path = tmp_path / "net.bin"
        save_network(net, path)
        path.write_bytes(path.read_bytes() + b"\0" * 8)
        with pytest.raises(ValueError, match="trailing"):
            load_network(path)

    @pytest.mark.parametrize("dims", [(0, 8, 5), (OBS, 0, 5), (OBS, 8, 0),
                                      (0, 0, 0)])
    def test_zero_dimension_rejected(self, tmp_path, dims):
        # sized as the dims imply, so only the zero can fail it
        body = 8 * (dims[0] * dims[1] + dims[1] + dims[1] * dims[2] + dims[2])
        path = tmp_path / "net.bin"
        path.write_bytes(dqn.NETWORK_MAGIC + struct.pack("<III", *dims)
                         + b"\0" * body)
        with pytest.raises(ValueError, match="zero dimension"):
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

    def test_array_bounds_hold_to_the_byte(self):
        # the largest value whose array fits MAX_ARRAY_BYTES loads; one more
        # is rejected naming its key, and neither allocates anything
        limit = MAX_ARRAY_BYTES
        for key, fits, others in (
                ("buffer_capacity", limit // 40, {}),  # 2 rows x 5 x 4 bytes
                ("hidden_units", (limit - 40) // 80,  # 2 x (10 h + 5) x 4
                 {"batch_size": 1, "buffer_capacity": 1}),
                ("batch_size", limit // 1024,  # 2 x 128 hidden x 4 bytes
                 {"buffer_capacity": limit // 1024 + 1}),
                ("epochs", limit // 256, {})):  # 256 bytes per epoch
            Hyperparameters(**{key: fits}, **others)
            with pytest.raises(ConfigError, match=f"agent.{key}"):
                Hyperparameters(**{key: fits + 1}, **others)

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
        assert net_a.params.tobytes() == net_b.params.tobytes()

    def test_rows_and_weights_match_a_written_out_loop(self):
        # decaying epsilon; 10-round epochs against batches of 25, so epochs
        # 0 and 1 take no gradient step; a sync every 7 steps, which does
        # not divide an epoch's 10, so a step count kept per epoch shows
        cfg = NetworkConfig(rounds_per_episode=10, nodes_initial=60, seed=0)
        hp = Hyperparameters(epochs=6, batch_size=25, target_sync_interval=7,
                             epsilon=0.5, epsilon_decay=True, hidden_units=16)
        net, rows = train(ShardEnv(cfg), hp, Rng(7))

        # the env draws its paths from the run's stream, the agent from
        # that stream's spawn(1)
        rng, env = Rng(7), ShardEnv(cfg)
        agent_rng = rng.spawn(1)
        est = QNetwork(OBSERVATION_SIZE, hp.hidden_units, NUM_ACTIONS,
                       agent_rng)
        buffer = ReplayBuffer(hp.buffer_capacity)
        steps, expected = 0, []
        for epoch in range(hp.epochs):
            epsilon = epsilon_for_epoch(hp, epoch)
            obs = env.reset(rng)
            total, losses = 0.0, []
            while not env.terminal:
                action = act(est, obs, epsilon, agent_rng)
                next_obs, reward, terminal, _ = env.step(action)
                buffer.push(obs, int(action), reward, next_obs, terminal)
                loss = train_step(est, buffer, hp, agent_rng)
                if loss is not None:
                    losses.append(loss)
                    steps += 1
                    if steps % hp.target_sync_interval == 0:
                        sync_target(est)
                total += reward
                obs = next_obs
            expected.append(TrainRow(
                epoch, total / cfg.rounds_per_episode, epsilon,
                float(np.mean(losses)) if losses else 0.0))
        assert rows == expected
        assert net.params.tobytes() == est.params.tobytes()
        # the fixture reaches what the comments above say it does
        assert [r.mean_loss == 0.0 for r in rows] == [True] * 2 + [False] * 4
        assert len({r.epsilon for r in rows}) == hp.epochs
        assert steps % hp.target_sync_interval != 0

    @pytest.mark.parametrize("nodes", [100, 500])
    def test_every_episode_faces_the_baselines_path(self, nodes,
                                                    monkeypatch):
        # common random numbers: on equal seeds the adaptive and static
        # runs see the same rate, semantic time and node count every round,
        # whatever the agent draws for its actions and batches
        logs = []
        reset = ShardEnv.reset

        def logging_reset(env, rng):
            obs = reset(env, rng)
            logs.append(env.log)
            return obs

        monkeypatch.setattr(ShardEnv, "reset", logging_reset)
        cfg = NetworkConfig(nodes_initial=nodes, rounds_per_episode=40)
        hp = Hyperparameters(epochs=8, batch_size=16)
        paths = {}
        for run in ("adaptive", "static"):
            logs.clear()
            if run == "adaptive":
                train(ShardEnv(cfg), hp, Rng(4))
            else:
                run_baseline(cfg, hp.epochs, Rng(4))
            paths[run] = [[(r.rate, r.semantic_time, r.n_nodes)
                           for r in log.records] for log in logs]
        assert paths["adaptive"] == paths["static"]
        assert len(paths["static"]) == hp.epochs
        assert all(len(path) == 40 for path in paths["static"])
        assert len({path[-1] for path in paths["static"]}) == hp.epochs

    def test_csv_rows_schema(self, tmp_path):
        # semshard train on _smoke's scenario, seeded 42 as _smoke's Rng is
        cfg_path, out = tmp_path / "smoke.cfg", tmp_path / "out"
        cfg_path.write_text("[network]\nrounds_per_episode = 20\n"
                            "nodes_initial = 60\n"
                            "[agent]\nepochs = 10\nbatch_size = 8\n")
        assert cli.main(["train", str(cfg_path), "--seed", "42",
                         "--out", str(out)]) == 0
        with open(out / "rewards.csv", newline="") as fh:
            lines = fh.read().split("\n")
        assert lines[0] == "epoch,mean_reward,epsilon,mean_loss"
        assert len(lines) == 12 and lines[-1] == ""  # 11 lines, LF-ended
        # every float is written as its repr, so it reads back exactly
        _, rows = self._smoke()
        assert [TrainRow(int(e), float(m), float(eps), float(loss))
                for e, m, eps, loss in (line.split(",")
                                        for line in lines[1:-1])] == rows

    def test_trained_policy_reaches_static_optimum_on_pinned_fixture(self):
        cfg = pinned_config(seed=5)
        hp = Hyperparameters(epochs=200)
        net, _ = train(PinnedEnv(cfg), hp, Rng(5))

        best = max(
            (k * (s / cfg.tx_size)) / (2 * -(-100 // k) * (-(-100 // k) - 1)
                                       * s / 1e7 + 0.1 + 20.0 + s / 1e7)
            for k in range(1, 26)
            for s in range(cfg.message_size_min, cfg.avg_message_size_max + 1,
                           cfg.message_size_step)) / cfg.reward_scale

        eval_env = PinnedEnv(cfg)
        obs = eval_env.reset(Rng(0))
        reward = 0.0
        while not eval_env.terminal:
            action = Action(int(np.argmax(net.forward(obs))))
            obs, reward, _, _ = eval_env.step(action)
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
                            _, r, _, _ = env.step(a)
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
