import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semshard.core import NetworkConfig
from semshard.throughput import propagation_time, round_latency, throughput
from test_config_properties import network_configs

CFG = NetworkConfig()


class TestPropagationTime:
    def test_ten_node_shard(self):
        # 2 * 10 * 9 * 8e6 / 1e7
        assert propagation_time(10, 8e6, 1e7) == pytest.approx(144.0)

    def test_single_node_shard_is_free(self):
        assert propagation_time(1, 8e6, 1e7) == 0.0

    def test_four_node_shard(self):
        assert propagation_time(4, 8e6, 1e7) == pytest.approx(19.2)

    @given(n=st.integers(1, 300), s=st.floats(1e3, 1e7),
           r=st.floats(1e6, 1e9))
    def test_quadratic_identity(self, n, s, r):
        # doubling the shard size follows the expanded quadratic exactly
        expanded = (8.0 * n * n - 4.0 * n) * s / r
        assert propagation_time(2 * n, s, r) == pytest.approx(expanded,
                                                              rel=1e-12)


class TestRoundLatency:
    def test_reconfigured_round(self):
        lat = round_latency(10, 8_000_000, 100, 1e7, 20.0, True, CFG)
        assert lat.t_round == pytest.approx(164.901, abs=1e-9)

    def test_steady_round_drops_config_time(self):
        lat = round_latency(10, 8_000_000, 100, 1e7, 20.0, False, CFG)
        assert lat.t_config == 0.0
        assert lat.t_round == pytest.approx(164.900, abs=1e-9)

    def test_max_sharding(self):
        lat = round_latency(25, 8_000_000, 100, 1e7, 20.0, False, CFG)
        assert lat.t_round == pytest.approx(40.1, abs=1e-9)

    def test_largest_shard_bounds_propagation(self):
        # 101 nodes in 10 shards: one shard of 11 dominates
        lat = round_latency(10, 8_000_000, 101, 1e7, 0.0, False, CFG)
        assert lat.t_prop == pytest.approx(2 * 11 * 10 * 0.8)

    @given(k=st.integers(1, 25), s=st.integers(800_000, 8_000_000),
           rate=st.floats(1e7, 1e8), t_sem=st.floats(0.0, 20.0),
           reconf=st.booleans())
    def test_breakdown_additivity(self, k, s, rate, t_sem, reconf):
        lat = round_latency(k, s, 100, rate, t_sem, reconf, CFG)
        assert lat.t_round == pytest.approx(
            lat.t_config + lat.t_intra + lat.t_inter, rel=1e-12)
        assert lat.t_intra == pytest.approx(
            lat.t_prop + CFG.validation_delay + t_sem, rel=1e-12)


class TestThroughput:
    def _tps(self, k, s, rate, t_sem, reconf, n=100):
        lat = round_latency(k, s, n, rate, t_sem, reconf, CFG)
        return throughput(k, s, lat.t_round, CFG)

    def test_ten_shards(self):
        assert self._tps(10, 8_000_000, 1e7, 20.0, True) == pytest.approx(
            20_000 / 164.901)

    def test_max_shards(self):
        assert self._tps(25, 8_000_000, 1e7, 20.0, False) == pytest.approx(
            50_000 / 40.1)

    def test_one_transaction_per_round(self):
        # one shard carrying exactly one transaction
        cfg = NetworkConfig(message_size_min=4_000, tx_size=4_000)
        lat = round_latency(1, 4_000, 8, 1e7, 1.0, False, cfg)
        assert throughput(1, 4_000, lat.t_round, cfg) == pytest.approx(
            1.0 / lat.t_round)

    @given(k=st.integers(1, 25), s=st.integers(800_000, 8_000_000),
           t_sem=st.floats(0.0, 19.0),
           rate=st.floats(1.0e7, 5.9e7), bump=st.floats(1e5, 1e6))
    def test_monotone_in_rate_and_semantic_time(self, k, s, t_sem, rate, bump):
        base = self._tps(k, s, rate, t_sem, False)
        assert self._tps(k, s, rate + bump, t_sem, False) > base
        assert self._tps(k, s, rate, t_sem + 0.5, False) < base


@settings(max_examples=100, deadline=None)
@given(cfg=network_configs(), data=st.data())
def test_tps_rises_strictly_in_shards_and_message_size(cfg, data):
    """Over constructible configs, with the round's rate, semantic time,
    node count and reconfigured flag held fixed, tps rises strictly with K
    over 1..N // min_shard_size and with each message_size_step in S. So
    the per-round optimum is the most shards and the largest message,
    whatever the draws: a model change that lets demand move the best
    setting breaks this on purpose."""
    n = data.draw(st.integers(cfg.nodes_min, cfg.nodes_max), label="nodes")
    rate = data.draw(st.floats(cfg.rate_min, cfg.rate_max), label="rate")
    t_sem = data.draw(st.floats(0.0, cfg.semantic_time_max), label="t_sem")
    reconfigured = data.draw(st.booleans(), label="reconfigured")
    step, s_hi = cfg.message_size_step, cfg.avg_message_size_max
    # one step above S stays in range, where the range holds a step
    s = data.draw(st.integers(cfg.message_size_min,
                              max(cfg.message_size_min, s_hi - step)),
                  label="message_size")

    def tps(k, size):
        lat = round_latency(k, size, n, rate, t_sem, reconfigured, cfg)
        return throughput(k, size, lat.t_round, cfg)

    by_k = [tps(k, s) for k in range(1, n // cfg.min_shard_size + 1)]
    assert all(a < b for a, b in zip(by_k, by_k[1:]))
    if s + step <= s_hi:
        for k, at_s in enumerate(by_k, start=1):
            assert at_s < tps(k, s + step), k


def test_sweep_matches_straight_line_composition():
    """Every valid K at N = 101, 200 and 599 against an independent hand
    composition over a balanced split."""
    s, rate, t_sem = 8_000_000, 1e7, 20.0
    for n in (101, 200, 599):
        for k in range(1, n // 4 + 1):
            sizes = [n // k + (1 if i < n % k else 0) for i in range(k)]
            biggest = max(sizes)
            t_prop = 2.0 * biggest * (biggest - 1) * s / rate
            t_round = t_prop + 0.1 + t_sem + s / rate
            expected = k * (s / 4000.0) / t_round

            lat = round_latency(k, s, n, rate, t_sem, False, CFG)
            assert throughput(k, s, lat.t_round, CFG) == pytest.approx(
                expected, rel=1e-12)
