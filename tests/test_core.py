import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from semshard.consensus import ratify_setting
from semshard.core import (BLOCK_DOUBLES, MAX_ARRAY_BYTES, MAX_INTEGER_SPAN,
                           ConfigError, Content, InvalidShardingError,
                           NetworkConfig, Rng, VerifierNode, clamp_sharding,
                           make_sharding_state, partition)


class TestPartition:
    def test_even_split(self):
        assert partition(100, 10, 4) == [10] * 10

    def test_remainder_goes_to_first_shards(self):
        assert partition(101, 10, 4) == [11] + [10] * 9

    def test_too_many_shards_rejected(self):
        # 2 shards of >= 4 nodes cannot be carved from 7 nodes
        with pytest.raises(InvalidShardingError):
            partition(7, 2, 4)

    def test_zero_shards_rejected(self):
        with pytest.raises(InvalidShardingError):
            partition(100, 0, 4)

    @given(n=st.integers(4, 600), k=st.integers(1, 150))
    def test_exhaustive_and_balanced(self, n, k):
        if k > n // 4:
            with pytest.raises(InvalidShardingError):
                partition(n, k, 4)
            return
        sizes = partition(n, k, 4)
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1
        assert min(sizes) >= 4


class TestClampSharding:
    def setup_method(self):
        self.cfg = NetworkConfig()

    def test_shard_count_clipped(self):
        k, s, clamped = clamp_sharding(30, 8_000_000, 100, self.cfg)
        assert (k, clamped) == (25, True)  # floor(100 / 4)

    def test_message_size_floor(self):
        k, s, clamped = clamp_sharding(5, 0, 100, self.cfg)
        assert s == self.cfg.message_size_min
        assert clamped

    def test_in_range_identity(self):
        assert clamp_sharding(5, 8_000_000, 100, self.cfg) == (5, 8_000_000, False)

    @given(k=st.integers(-3, 400), s=st.integers(-10, 20_000_000),
           n=st.integers(4, 600))
    def test_idempotent(self, k, s, n):
        k1, s1, _ = clamp_sharding(k, s, n, self.cfg)
        k2, s2, clamped2 = clamp_sharding(k1, s1, n, self.cfg)
        assert (k2, s2, clamped2) == (k1, s1, False)
        assert 1 <= k1 <= max(1, n // 4)
        assert self.cfg.message_size_min <= s1 <= self.cfg.avg_message_size_max


class TestNetworkConfig:
    def test_defaults_are_valid(self):
        NetworkConfig()

    @pytest.mark.parametrize("kwargs,key", [
        (dict(rate_min=2e7, rate_max=1e7), "rate_max"),
        (dict(message_size_min=9_000_000), "message_size_min"),
        (dict(tx_size=900_000), "tx_size"),
        (dict(min_shard_size=3), "min_shard_size"),
        (dict(validation_delay=0.0), "validation_delay"),
        (dict(accuracy_threshold=1.5), "accuracy_threshold"),
        (dict(node_walk_step=2**31), "node_walk_step"),
        (dict(node_walk_step=2**63), "node_walk_step"),
        # 256 bytes a logged round
        (dict(rounds_per_episode=MAX_ARRAY_BYTES // 256 + 1),
         "rounds_per_episode"),
        # 8 bytes a vector component
        (dict(semantic_dim=MAX_ARRAY_BYTES // 8 + 1), "semantic_dim"),
    ])
    def test_invalid_values_name_the_key(self, kwargs, key):
        with pytest.raises(ConfigError, match=key):
            NetworkConfig(**kwargs)

    def test_longest_episode_whose_log_fits_is_accepted(self):
        assert MAX_ARRAY_BYTES // 256 == 4_194_304
        NetworkConfig(rounds_per_episode=MAX_ARRAY_BYTES // 256)

    def test_widest_semantic_vector_that_fits_is_accepted(self):
        NetworkConfig(semantic_dim=MAX_ARRAY_BYTES // 8)

    def test_int_a_float_holds_is_accepted(self):
        # the largest int that float() rounds to a finite value
        biggest = 2**1024 - 2**970 - 1
        NetworkConfig(avg_message_size_max=biggest, nodes_max=biggest)

    def test_widest_walk_rng_serves_is_accepted(self):
        # the walk draws from [-step, step], a span of 2 * step + 1
        step = (MAX_INTEGER_SPAN - 1) // 2
        NetworkConfig(node_walk_step=step)
        assert -step <= Rng(0).integers(-step, step) <= step


class TestRng:
    def test_equal_seeds_equal_streams(self):
        a, b = Rng(1234), Rng(1234)
        assert np.array_equal(a.uniform(size=10_000), b.uniform(size=10_000))

    def test_different_seeds_differ(self):
        assert not np.array_equal(Rng(1).uniform(size=100),
                                  Rng(2).uniform(size=100))

    def test_integers_inclusive_range(self):
        draws = Rng(0).integers(-5, 5, size=5_000)
        assert draws.min() == -5 and draws.max() == 5

    def test_golden_prefix(self):
        # pins the exact PCG64 stream this package is specified against
        rng = Rng(42)
        got = rng.uniform(size=3)
        expected = np.random.Generator(np.random.PCG64(42)).uniform(size=3)
        assert np.array_equal(got, expected)

    def test_random_draws_what_uniform_draws(self):
        a, b = Rng(5), Rng(5)
        assert [a.random() for _ in range(1_000)] \
            == [float(b.uniform()) for _ in range(1_000)]

    def test_draws_serve_the_generators_own_doubles_in_order(self):
        # scalar and sized draws, interleaved, one straddling the first
        # refill and one longer than a whole block
        rng = Rng(77)
        served = []
        for _ in range(BLOCK_DOUBLES - 3):
            served.append(rng.random())
        served.extend(rng.uniform(size=5))  # crosses the block's end
        served.append(rng.random())
        served.extend(rng.uniform(size=(2, 3)).ravel())
        served.extend(rng.uniform(size=BLOCK_DOUBLES + 10))
        for _ in range(BLOCK_DOUBLES):
            served.append(rng.random())
        expected = np.random.Generator(np.random.PCG64(77)).random(
            len(served))
        assert np.array_equal(served, expected)

    def test_scalar_draws_are_python_numbers(self):
        rng = Rng(3)
        assert type(rng.random()) is float
        assert type(rng.uniform(2.0, 5.0)) is float
        assert type(rng.integers(-4, 4)) is int
        assert rng.integers(-4, 4, size=3).dtype == np.int64

    @pytest.mark.parametrize("low, high", [(0.0, 1.0), (-2.5, 7.25),
                                           (7_300_001.5, 61_100_000)])
    def test_uniform_is_low_plus_span_times_u(self, low, high):
        a, b = Rng(11), Rng(11)
        for _ in range(BLOCK_DOUBLES + 7):
            assert a.uniform(low, high) == low + (high - low) * b.random()
        sized = a.uniform(low, high, size=100)
        assert np.array_equal(
            sized, [low + (high - low) * b.random() for _ in range(100)])

    @pytest.mark.parametrize("span", [1, 5, 11, 10_000])
    def test_integers_hit_every_value_and_stay_inside(self, span):
        low, high = -3, span - 4
        a, b = Rng(span), Rng(span)
        draws = a.integers(low, high, size=30 * span)
        assert draws.min() >= low and draws.max() <= high
        assert set(draws.tolist()) == set(range(low, high + 1))
        u = np.array([b.random() for _ in range(30 * span)])
        assert np.array_equal(draws, low + np.floor(u * span))
        scalars = [a.integers(low, high) for _ in range(30 * span)]
        assert set(scalars) == set(range(low, high + 1))
        assert scalars == [low + math.floor(b.random() * span)
                           for _ in range(30 * span)]

    def test_integers_serve_spans_up_to_the_limit(self):
        rng = Rng(8)
        draws = rng.integers(0, MAX_INTEGER_SPAN - 1, size=1_000)
        assert draws.min() >= 0 and draws.max() < MAX_INTEGER_SPAN
        assert draws.max() >= 2**31  # the top bit of the span is reached
        for low, high in [(0, MAX_INTEGER_SPAN), (-2**40, 2**40), (5, 4)]:
            with pytest.raises(ValueError, match=str(high)):
                rng.integers(low, high)
            with pytest.raises(ValueError, match=str(high)):
                rng.integers(low, high, size=3)

    def test_over_limit_span_consumes_nothing(self):
        a, b = Rng(6), Rng(6)
        with pytest.raises(ValueError, match="span"):
            a.integers(-2**31, 2**31)
        assert a.random() == b.random()

    def test_served_arrays_keep_their_values_through_later_draws(self):
        rng = Rng(21)
        doubles, ints = rng.uniform(size=8), rng.integers(0, 99, size=8)
        kept = doubles.copy(), ints.copy()
        rng.uniform(size=3 * BLOCK_DOUBLES)  # two refills
        for _ in range(BLOCK_DOUBLES):
            rng.random()
        assert np.array_equal(doubles, kept[0])
        assert np.array_equal(ints, kept[1])

    def test_writing_a_served_array_leaves_later_draws_alone(self):
        a, b = Rng(22), Rng(22)
        a.uniform(size=8)[:] = -1.0
        a.integers(0, 99, size=8)[:] = -1
        b.uniform(size=8)
        b.integers(0, 99, size=8)
        assert [a.random() for _ in range(100)] \
            == [b.random() for _ in range(100)]

    def test_normal_and_bytes_read_the_generator_itself(self):
        # before any uniform-family draw they see the stream unchanged, so
        # the consensus and pos-demo draws keep their values
        rng = Rng(2)
        gen = np.random.Generator(np.random.PCG64(2))
        assert np.array_equal(rng.normal(1.5, 8), gen.normal(0.0, 1.5, 8))
        assert rng.bytes(16) == gen.bytes(16)
        assert rng.normal() == gen.normal()

    def test_spawn_is_deterministic_and_independent(self):
        a, b = Rng(9).spawn(0), Rng(9).spawn(0)
        assert a.seed == b.seed
        assert Rng(9).spawn(0).seed != Rng(9).spawn(1).seed


class TestShardingState:
    def test_make_sharding_state_leaders_rotate(self):
        cfg = NetworkConfig()
        s0 = make_sharding_state(3, 8_000_000, 13, 0, cfg)
        assert s0.shard_sizes == (5, 4, 4)
        assert s0.leader_ids == (0, 5, 9)  # first member of each shard
        s1 = make_sharding_state(3, 8_000_000, 13, 1, cfg)
        assert s1.leader_ids == (1, 6, 10)

    def test_validate_rejects_unbalanced(self):
        cfg = NetworkConfig()
        state = make_sharding_state(2, 8_000_000, 20, 0, cfg)
        bad = type(state)(num_shards=2, message_size=8_000_000,
                          shard_sizes=(14, 6), leader_ids=(0, 14))
        with pytest.raises(InvalidShardingError):
            bad.validate(cfg)
        assert ratify_setting(state, cfg)


@pytest.mark.parametrize("make", [
    lambda v: VerifierNode(id=0, knowledge=v),
    lambda v: Content(id=0, truth=v)], ids=["VerifierNode", "Content"])
@pytest.mark.parametrize("vector", [
    [float("nan")] * 8, [2.0] + [0.0] * 7, [0.0] * 8],
    ids=["nan", "norm-2", "zero"])
def test_vector_without_unit_norm_rejected(make, vector):
    with pytest.raises(ValueError, match="norm"):
        make(vector)


@pytest.mark.parametrize("field", ["reward_pool", "bond"])
@pytest.mark.parametrize("amount", [2.5, 0.5, 2.0, float("nan"), float("inf"),
                                    -1, True])
def test_content_bad_token_amount_rejected_naming_field(field, amount):
    with pytest.raises(ValueError, match=field):
        Content(id=0, truth=[1.0, 0.0], **{field: amount})


def test_content_token_amounts_taken_as_ints():
    content = Content(id=0, truth=[1.0, 0.0], reward_pool=np.int64(120),
                      bond=np.int32(25))
    assert (content.reward_pool, content.bond) == (120, 25)
    assert type(content.reward_pool) is int and type(content.bond) is int
