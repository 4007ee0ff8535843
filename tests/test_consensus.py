import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semshard.consensus import (AggregationFailure, AggregationReport,
                                DegenerateInputError, DimensionMismatchError,
                                InsufficientFundsError, Ledger,
                                NoVerifiersError, SemanticResult,
                                UnscoredResultError, commit,
                                distribute_rewards, interactive_challenge,
                                offchain_aggregate, random_salt,
                                ratify_setting, score_accuracy,
                                select_leader, simulate_verification,
                                verify_commitment)
from semshard.core import (Content, InvalidShardingError, NetworkConfig,
                           Rng, ShardingState, VerifierNode,
                           make_sharding_state)
from pos_oracles import (reference_score_accuracy,
                         reference_simulate_verification, verification_pairs)

CFG = NetworkConfig()


def unit(*components):
    v = np.array(components, dtype=float)
    return v / np.linalg.norm(v)


def result_with_accuracy(verifier_id, accuracy):
    """d=2 vector at the angle whose cosine against (1, 0) is `accuracy`."""
    vec = np.array([accuracy, math.sqrt(1.0 - accuracy ** 2)])
    r = SemanticResult(verifier_id, vec)
    r.accuracy = accuracy
    return r


TRUTH2 = np.array([1.0, 0.0])


class TestSimulateVerification:
    def test_perfect_alignment_reproduces_truth(self):
        # basis vector: unit norm is exact, so the noise coefficient is 0.0
        truth = np.zeros(8)
        truth[2] = 1.0
        verifier = VerifierNode(0, truth.copy())
        content = Content(0, truth)
        result = simulate_verification(verifier, content, Rng(3))
        assert np.array_equal(result.vector, truth)

    def test_near_perfect_alignment_stays_close(self):
        truth = unit(*range(1, 9))
        verifier = VerifierNode(0, truth.copy())
        content = Content(0, truth)
        result = simulate_verification(verifier, content, Rng(3))
        assert np.allclose(result.vector, truth, atol=1e-12)

    def test_orthogonal_knowledge_accuracy_distribution(self):
        # Monte Carlo over 10,000 draws: misaligned verifiers drift from truth
        truth = np.zeros(8)
        truth[0] = 1.0
        knowledge = np.zeros(8)
        knowledge[1] = 1.0
        verifier = VerifierNode(1, knowledge)
        content = Content(0, truth)
        rng = Rng(11)
        accs = []
        for _ in range(10_000):
            r = simulate_verification(verifier, content, rng)
            accs.append(score_accuracy(r, truth))
        accs = np.array(accs)
        assert accs.mean() < 0.95
        assert accs.std() > 0.05
        assert np.all(accs <= 1.0) and np.all(accs >= 0.0)

    def test_deterministic_given_stream(self):
        truth = unit(1, 2, 3, 4, 5, 6, 7, 8)
        verifier = VerifierNode(0, unit(8, 7, 6, 5, 4, 3, 2, 1))
        content = Content(0, truth)
        a = simulate_verification(verifier, content, Rng(5))
        b = simulate_verification(verifier, content, Rng(5))
        assert np.array_equal(a.vector, b.vector)

    def test_dimension_mismatch(self):
        verifier = VerifierNode(0, unit(1, 0, 0))
        content = Content(0, unit(1, 0))
        with pytest.raises(DimensionMismatchError):
            simulate_verification(verifier, content, Rng(0))

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"),
                                       float("-inf"), -0.5])
    def test_bad_noise_sigma_rejected(self, sigma):
        verifier = VerifierNode(0, unit(1, 2))
        content = Content(0, unit(2, 1))
        with pytest.raises(ValueError):
            simulate_verification(verifier, content, Rng(0), noise_sigma=sigma)


class _NegatedTruthRng:
    """A stream whose noise is exactly -truth, for the zero-norm fallback."""

    def __init__(self, truth):
        self.truth = truth

    def normal(self, scale=1.0, size=None):
        return -self.truth


class TestSameBitsAsReference:
    """simulate_verification and score_accuracy against the plain-numpy forms
    in pos_oracles: the same vector bytes, the same accuracy and the same
    stream position afterwards."""

    @pytest.mark.parametrize("sigma", [0.1, 0.5, 1.0, 3.0])
    @pytest.mark.parametrize("dim", [1, 2, 8, 33])
    def test_pairs(self, dim, sigma):
        pairs = verification_pairs(dim, 25, seed=1000 * dim + int(10 * sigma))
        fast, slow = Rng(dim), Rng(dim)
        for verifier, content in pairs:
            result = simulate_verification(verifier, content, fast, sigma)
            expected = reference_simulate_verification(verifier, content,
                                                       slow, sigma)
            assert result.vector.dtype == expected.dtype
            assert result.vector.tobytes() == expected.tobytes()
            assert (score_accuracy(result, content.truth)
                    == reference_score_accuracy(expected, content.truth))
        assert fast.random() == slow.random()

    def test_unnormalized_vectors_score_the_same(self):
        gen = np.random.default_rng(4)
        for dim in (1, 2, 8, 33):
            for _ in range(50):
                vec = gen.normal(size=dim) * 10.0 ** gen.uniform(-3, 3)
                truth = gen.normal(size=dim)
                assert (score_accuracy(SemanticResult(0, vec), truth)
                        == reference_score_accuracy(vec, truth))

    def test_anti_aligned_knowledge_clips_to_zero(self):
        truth = unit(1, 2, 3, 4, 5, 6, 7, 8)
        verifier = VerifierNode(0, -truth)
        content = Content(0, truth)
        fast, slow = Rng(8), Rng(8)
        result = simulate_verification(verifier, content, fast, 0.5)
        expected = reference_simulate_verification(verifier, content, slow,
                                                   0.5)
        assert result.vector.tobytes() == expected.tobytes()
        assert fast.random() == slow.random()

    def test_perfect_alignment_returns_truth(self):
        truth = np.zeros(33)
        truth[5] = 1.0
        verifier = VerifierNode(0, truth.copy())
        content = Content(0, truth)
        fast, slow = Rng(9), Rng(9)
        result = simulate_verification(verifier, content, fast, 3.0)
        expected = reference_simulate_verification(verifier, content, slow,
                                                   3.0)
        assert result.vector.tobytes() == truth.tobytes()
        assert expected.tobytes() == truth.tobytes()
        assert fast.random() == slow.random()

    def test_zero_norm_falls_back_to_a_copy_of_truth(self):
        truth = np.array([1.0, 0.0, 0.0])
        verifier = VerifierNode(0, np.array([0.0, 1.0, 0.0]))  # align = 0
        content = Content(0, truth)
        result = simulate_verification(verifier, content,
                                       _NegatedTruthRng(truth), 1.0)
        expected = reference_simulate_verification(
            verifier, content, _NegatedTruthRng(truth), 1.0)
        assert result.vector.tobytes() == expected.tobytes() == truth.tobytes()
        assert result.vector is not truth


class TestScoreAccuracy:
    def test_identical_vectors(self):
        r = SemanticResult(0, TRUTH2.copy())
        assert score_accuracy(r, TRUTH2) == 1.0
        assert r.accuracy == 1.0

    def test_orthogonal_clips_to_zero(self):
        r = SemanticResult(0, np.array([0.0, 1.0]))
        assert score_accuracy(r, TRUTH2) == 0.0
        r = SemanticResult(0, np.array([-1.0, 0.0]))
        assert score_accuracy(r, TRUTH2) == 0.0

    def test_forty_five_degrees(self):
        r = SemanticResult(0, np.array([1.0, 0.0]))
        truth = np.array([math.sqrt(2) / 2, math.sqrt(2) / 2])
        assert score_accuracy(r, truth) == pytest.approx(0.7071, abs=1e-4)

    def test_zero_vector_rejected(self):
        r = SemanticResult(0, np.zeros(2))
        with pytest.raises(DegenerateInputError):
            score_accuracy(r, TRUTH2)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf"), 1e200])
    def test_non_finite_norm_rejected(self, bad):
        # 1e200 is finite, but its square overflows the norm
        with pytest.raises(DegenerateInputError), np.errstate(over="ignore"):
            score_accuracy(SemanticResult(2, np.array([bad, 1.0])), TRUTH2)
        with pytest.raises(DegenerateInputError), np.errstate(over="ignore"):
            score_accuracy(SemanticResult(2, TRUTH2.copy()),
                           np.array([1.0, bad]))


class TestSelectLeader:
    def test_round_robin_over_sorted_ids(self):
        assert select_leader({3, 1, 7}, 0) == 1
        assert select_leader({3, 1, 7}, 1) == 3
        assert select_leader({3, 1, 7}, 3) == 1  # wraps around

    def test_empty_set(self):
        with pytest.raises(NoVerifiersError):
            select_leader(set(), 0)


class TestOffchainAggregate:
    def test_threshold_filter_and_mean(self):
        results = [result_with_accuracy(0, 0.9),
                   result_with_accuracy(1, 0.85),
                   result_with_accuracy(2, 0.5)]
        report = offchain_aggregate(results, TRUTH2, 0.8)
        assert report.contributors == {0, 1}
        mean = (results[0].vector + results[1].vector) / 2
        assert np.allclose(report.aggregated, mean / np.linalg.norm(mean),
                           atol=1e-12)

    def test_all_below_threshold(self):
        results = [result_with_accuracy(0, 0.2), result_with_accuracy(1, 0.5)]
        with pytest.raises(AggregationFailure):
            offchain_aggregate(results, TRUTH2, 0.8)

    def test_single_perfect_result(self):
        r = result_with_accuracy(0, 1.0)
        report = offchain_aggregate([r], TRUTH2, 0.8)
        assert np.allclose(report.aggregated, r.vector)
        assert report.contributors == {0}

    def test_unscored_result_rejected(self):
        with pytest.raises(UnscoredResultError):
            offchain_aggregate([SemanticResult(0, TRUTH2.copy())],
                               TRUTH2, 0.8)

    def test_mixed_dimensions_rejected(self):
        results = [result_with_accuracy(0, 0.9),
                   SemanticResult(1, unit(1, 1, 1), accuracy=0.9)]
        with pytest.raises(DimensionMismatchError):
            offchain_aggregate(results, TRUTH2, 0.8)

    def test_contributors_of_another_dimension_rejected(self):
        results = [SemanticResult(i, unit(1, 1, 1), accuracy=0.9)
                   for i in range(2)]
        with pytest.raises(DimensionMismatchError):
            offchain_aggregate(results, TRUTH2, 0.8)

    def test_failing_result_of_another_dimension_is_not_averaged(self):
        results = [result_with_accuracy(0, 0.9),
                   SemanticResult(1, unit(1, 1, 1), accuracy=0.1)]
        report = offchain_aggregate(results, TRUTH2, 0.8)
        assert report.contributors == {0}

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_contributor_filter_exact(self, seed):
        rng = Rng(seed)
        results = []
        for i in range(int(rng.integers(1, 8))):
            results.append(result_with_accuracy(i, float(rng.uniform(0, 1))))
        threshold = float(rng.uniform(0, 1))
        expected = {r.verifier_id for r in results if r.accuracy >= threshold}
        if not expected:
            with pytest.raises(AggregationFailure):
                offchain_aggregate(results, TRUTH2, threshold)
        else:
            report = offchain_aggregate(results, TRUTH2, threshold)
            assert report.contributors == expected

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_collinear_two_dim_soundness(self, seed):
        # within one plane the renormalized mean never scores below the
        # worst contributor
        rng = Rng(seed)
        results = [result_with_accuracy(i, float(rng.uniform(0.3, 1.0)))
                   for i in range(int(rng.integers(1, 6)))]
        report = offchain_aggregate(results, TRUTH2, 0.25)
        agg = SemanticResult(99, report.aggregated)
        assert score_accuracy(agg, TRUTH2) >= min(
            r.accuracy for r in results) - 1e-9

    def test_high_dim_soundness_report(self, capsys):
        # empirical only: report how often the aggregate clears the threshold
        rng = Rng(17)
        truth = unit(*range(1, 9))
        content = Content(0, truth)
        hits = trials = 0
        for i in range(200):
            results = []
            for j in range(5):
                raw = truth + float(rng.uniform(0, 1.2)) * rng.normal(1.0, 8)
                v = VerifierNode(j, raw / np.linalg.norm(raw))
                r = simulate_verification(v, content, rng)
                score_accuracy(r, truth)
                results.append(r)
            try:
                report = offchain_aggregate(results, truth, 0.8)
            except AggregationFailure:
                continue
            trials += 1
            agg = SemanticResult(99, report.aggregated)
            hits += score_accuracy(agg, truth) >= 0.8
        print(f"\naggregate>=threshold in {hits}/{trials} successful rounds")
        assert trials > 0


class TestDistributeRewards:
    def _ledger(self, producer_balance=500):
        ledger = Ledger()
        ledger.mint("producer", producer_balance)
        for i in range(3):
            ledger.mint(i, 10)
        return ledger

    def test_exact_division(self):
        ledger = self._ledger()
        report = offchain_aggregate(
            [result_with_accuracy(i, 0.9) for i in range(3)], TRUTH2, 0.8)
        distribute_rewards(report, 90, "producer", ledger)
        assert all(ledger.balance(i) == 40 for i in range(3))
        assert ledger.balance("producer") == 410
        assert ledger.conserved()

    def test_remainder_stays_with_producer(self):
        ledger = self._ledger()
        report = offchain_aggregate(
            [result_with_accuracy(i, 0.9) for i in range(3)], TRUTH2, 0.8)
        distribute_rewards(report, 100, "producer", ledger)
        assert all(ledger.balance(i) == 43 for i in range(3))
        assert ledger.balance("producer") == 500 - 99
        assert ledger.conserved()

    def test_zero_pool_is_noop(self):
        ledger = self._ledger()
        report = offchain_aggregate([result_with_accuracy(0, 0.9)], TRUTH2, 0.8)
        distribute_rewards(report, 0, "producer", ledger)
        assert ledger.balance("producer") == 500
        assert ledger.balance(0) == 10

    def test_insufficient_producer_balance(self):
        ledger = self._ledger(producer_balance=50)
        report = offchain_aggregate([result_with_accuracy(0, 0.9)], TRUTH2, 0.8)
        with pytest.raises(InsufficientFundsError):
            distribute_rewards(report, 90, "producer", ledger)

    @pytest.mark.parametrize("pool", [-1, 2.5, float("nan"), float("inf")])
    def test_bad_pool_rejected_naming_it(self, pool):
        ledger = self._ledger()
        report = offchain_aggregate([result_with_accuracy(0, 0.9)], TRUTH2, 0.8)
        with pytest.raises(ValueError, match="distribute") as err:
            distribute_rewards(report, pool, "producer", ledger)
        assert repr(pool) in str(err.value)
        assert ledger.balance("producer") == 500

    def test_no_contributors_rejected(self):
        ledger = self._ledger()
        report = AggregationReport(aggregated=TRUTH2.copy(),
                                   contributors=frozenset())
        with pytest.raises(AggregationFailure):
            distribute_rewards(report, 90, "producer", ledger)
        assert ledger.balance("producer") == 500


class TestInteractiveChallenge:
    def _ledger(self):
        ledger = Ledger()
        ledger.mint(0, 100)
        ledger.mint(1, 100)
        return ledger

    def test_challenger_wins_on_higher_accuracy(self):
        ledger = self._ledger()
        outcome = interactive_challenge(result_with_accuracy(0, 0.7),
                                        result_with_accuracy(1, 0.9),
                                        TRUTH2, 25, ledger)
        assert outcome.winner == "challenger"
        assert ledger.balance(1) == 125 and ledger.balance(0) == 75
        assert ledger.conserved()

    def test_tie_goes_to_challenger(self):
        outcome = interactive_challenge(result_with_accuracy(0, 0.8),
                                        result_with_accuracy(1, 0.8),
                                        TRUTH2, 10, self._ledger())
        assert outcome.winner == "challenger"

    def test_solver_keeps_higher_accuracy(self):
        ledger = self._ledger()
        outcome = interactive_challenge(result_with_accuracy(0, 0.9),
                                        result_with_accuracy(1, 0.5),
                                        TRUTH2, 25, ledger)
        assert outcome.winner == "solver"
        assert ledger.balance(0) == 125 and ledger.balance(1) == 75

    def test_unscored_results_rejected(self):
        unscored = SemanticResult(0, TRUTH2.copy())
        with pytest.raises(UnscoredResultError):
            interactive_challenge(unscored, result_with_accuracy(1, 0.5),
                                  TRUTH2, 10, self._ledger())


class TestCommitment:
    def test_roundtrip(self):
        rng = Rng(0)
        vec = unit(1, 2, 3, 4, 5, 6, 7, 8)
        salt = random_salt(rng)
        c = commit(vec, salt)
        assert verify_commitment(c, vec, salt)

    def test_one_ulp_perturbation_fails(self):
        vec = unit(1, 2, 3, 4, 5, 6, 7, 8)
        salt = random_salt(Rng(1))
        c = commit(vec, salt)
        tampered = vec.copy()
        tampered[3] = np.nextafter(tampered[3], np.inf)
        assert not verify_commitment(c, tampered, salt)

    def test_wrong_salt_fails(self):
        vec = unit(1, 2, 3, 4, 5, 6, 7, 8)
        c = commit(vec, random_salt(Rng(1)))
        assert not verify_commitment(c, vec, random_salt(Rng(2)))

    def test_salt_must_be_128_bits(self):
        with pytest.raises(ValueError):
            commit(TRUTH2, b"short")


def _state(sizes, message_size=8_000_000, leaders=None, shards=None):
    """A hand-built setting; leaders default to each shard's first member."""
    if leaders is None:
        leaders = [sum(sizes[:i]) for i in range(len(sizes))]
    return ShardingState(len(sizes) if shards is None else shards,
                         message_size, tuple(sizes), tuple(leaders))


class TestSettingRatification:
    # each rejected setting breaks one rule of ShardingState.validate; the
    # pattern names the rule that rejects it
    @pytest.mark.parametrize("setting, rule", [
        (make_sharding_state(10, 8_000_000, 100, 0, CFG), None),
        (make_sharding_state(25, 800_000, 100, 7, CFG), None),
        (make_sharding_state(1, 800_000, 4, 3, CFG), None),
        (_state([]), "one entry per shard"),
        (_state([10] * 10, shards=30), "one entry per shard"),
        (_state([4] * 22 + [3] * 4), "cannot be formed"),
        (_state([14, 3, 3]), "below minimum size"),
        (_state([14, 6]), "not balanced"),
        (make_sharding_state(10, 799_999, 100, 0, CFG), "message size"),
        (make_sharding_state(10, 9_000_000, 100, 0, CFG), "message size"),
        (_state([10, 10], leaders=[0]), "one leader per shard"),
    ], ids=["valid", "most shards, smallest message", "one smallest shard",
            "no shards", "shard count unlike sizes", "more shards than N allows",
            "shard below min", "unbalanced", "message below min",
            "message above max", "leader count unlike K"])
    def test_ratifies_exactly_valid_settings(self, setting, rule):
        assert ratify_setting(setting, CFG) == (rule is None)
        if rule is not None:
            with pytest.raises(InvalidShardingError, match=rule):
                setting.validate(CFG)


class TestLedger:
    def test_dump_is_sorted_text(self):
        ledger = Ledger()
        ledger.mint("producer", 7)
        ledger.mint(2, 5)
        ledger.mint(10, 1)
        assert ledger.dump() == "10 1\n2 5\nproducer 7\n"

    def test_negative_amounts_rejected(self):
        ledger = Ledger()
        ledger.mint(0, 10)
        with pytest.raises(ValueError):
            ledger.transfer(0, 1, -5)
        with pytest.raises(ValueError):
            ledger.mint(0, -1)

    @pytest.mark.parametrize("amount", [float("nan"), float("inf"), 2.5, 2.0,
                                        True, "3"])
    def test_non_integer_amounts_rejected(self, amount):
        ledger = Ledger()
        ledger.mint("p", 10)
        with pytest.raises(ValueError, match="integers"):
            ledger.mint("q", amount)
        with pytest.raises(ValueError, match="integers"):
            ledger.transfer("p", "q", amount)
        assert ledger.balance("p") == 10 and ledger.balance("q") == 0
        assert ledger.total_supply == 10 and ledger.conserved()

    def test_numpy_integer_amounts_accepted(self):
        ledger = Ledger()
        ledger.mint("p", np.int64(10))
        ledger.transfer("p", "q", np.int32(4))
        assert ledger.balance("p") == 6 and ledger.balance("q") == 4
        assert ledger.conserved()

    def test_numpy_integer_balances_do_not_wrap(self):
        ledger = Ledger()
        ledger.mint("p", np.int64(2 ** 62))
        ledger.mint("p", np.int64(2 ** 62))
        ledger.transfer("p", "q", np.int64(2 ** 62))
        ledger.transfer("p", "q", np.int64(2 ** 62))
        assert ledger.balance("q") == ledger.total_supply == 2 ** 63
        assert ledger.balance("p") == 0 and ledger.conserved()

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_conservation_over_random_operation_sequences(self, seed):
        rng = Rng(seed)
        truth = unit(*range(1, 9))
        content = Content(0, truth)
        ledger = Ledger()
        ledger.mint("producer", 10_000)
        verifiers = []
        for i in range(4):
            raw = truth + float(rng.uniform(0, 1.5)) * rng.normal(1.0, 8)
            verifiers.append(VerifierNode(i, raw / np.linalg.norm(raw)))
            ledger.mint(i, 50)
        supply = ledger.total_supply

        results = [simulate_verification(v, content, rng) for v in verifiers]
        for r in results:
            score_accuracy(r, truth)

        for _ in range(20):
            op = int(rng.integers(0, 2))
            if op == 0:
                try:
                    report = offchain_aggregate(results, truth, 0.5)
                    distribute_rewards(report, int(rng.integers(0, 99)),
                                       "producer", ledger)
                except AggregationFailure:
                    pass
            elif op == 1:
                a, b = rng.integers(0, 3, size=2)
                if a != b:
                    bond = int(min(10, ledger.balance(int(a)),
                                   ledger.balance(int(b))))
                    interactive_challenge(results[int(a)], results[int(b)],
                                          truth, bond, ledger)
            else:
                salt = random_salt(rng)
                assert verify_commitment(
                    commit(results[0].vector, salt), results[0].vector, salt)
            assert ledger.total_supply == supply
            assert ledger.conserved()
