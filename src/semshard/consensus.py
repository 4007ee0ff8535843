"""Oracle verifier consensus on semantic verification results.

Covers the three aggregation/verification routes (leader aggregation with a
threshold filter, interactive challenges with bond transfer, non-interactive
hash-commitment proofs), leader selection, token accounting on an in-memory
ledger, and ratification of a sharding setting: a validity check of the
setting the leader proposes.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import (NetworkConfig, Content, InvalidShardingError, Rng,
                   ShardingState, VerifierNode, token_amount)


class DimensionMismatchError(ValueError):
    pass


class DegenerateInputError(ValueError):
    """A zero vector where a direction is required."""


class NoVerifiersError(ValueError):
    pass


class AggregationFailure(RuntimeError):
    """No verification result met the accuracy threshold; content rejected."""


class UnscoredResultError(ValueError):
    """A result was used before a leader scored its accuracy."""


class InsufficientFundsError(RuntimeError):
    pass


@dataclass
class SemanticResult:
    """One verifier's semantic verification output for one content item."""

    verifier_id: int
    vector: np.ndarray
    accuracy: Optional[float] = None  # set by the leader via score_accuracy


@dataclass(frozen=True)
class AggregationReport:
    aggregated: np.ndarray
    contributors: frozenset[int]


@dataclass(frozen=True)
class ChallengeOutcome:
    winner: str  # "solver" or "challenger"


@dataclass(frozen=True)
class Commitment:
    """Binding commitment to a semantic vector: digest = SHA-256(encode(v) || salt)."""

    digest: bytes


class Ledger:
    """Token balances for all participants.

    total_supply changes only through mint() at setup; every other operation
    conserves it. Mutations must be serialized (one writer per instance).
    """

    def __init__(self):
        self._balances: dict = {}
        self.total_supply = 0

    def mint(self, node_id, amount: int) -> None:
        amount = token_amount("mint", amount)
        self._balances[node_id] = self._balances.get(node_id, 0) + amount
        self.total_supply += amount

    def balance(self, node_id) -> int:
        return self._balances.get(node_id, 0)

    def transfer(self, src, dst, amount: int) -> None:
        amount = token_amount("transfer", amount)
        held = self._balances.get(src, 0)
        if held < amount:
            raise InsufficientFundsError(f"{src!r} holds {held}, needs {amount}")
        self._balances[src] = held - amount
        self._balances[dst] = self._balances.get(dst, 0) + amount

    def holders(self) -> list:
        return list(self._balances)

    def conserved(self) -> bool:
        return sum(self._balances.values()) == self.total_supply

    def dump(self) -> str:
        """Sorted 'id balance' lines, one per holder (test-fixture format)."""
        lines = [f"{node_id} {bal}"
                 for node_id, bal in sorted(self._balances.items(),
                                            key=lambda kv: str(kv[0]))]
        return "\n".join(lines) + "\n"


def simulate_verification(verifier: VerifierNode, content: Content, rng: Rng,
                          noise_sigma: float = 0.5) -> SemanticResult:
    """Produce a verifier's (noisy) semantic verification result.

    Verifiers whose knowledge aligns with the content's semantics reproduce
    them closely; misaligned verifiers drift. The result is the re-normalized
    sum of the truth vector and Gaussian noise scaled by (1 - alignment),
    where alignment is the clipped cosine between knowledge and truth. A
    perfectly aligned verifier returns the truth exactly.

    The noise array is fresh, so it is scaled, shifted and normalized in
    place; `*` and `+` commute bitwise, so these are the bits of
    `(truth + (1 - align) * noise) / norm`. The norm is sqrt(raw.dot(raw)),
    numpy.linalg.norm's own formula for a contiguous real vector, without
    its call overhead: the same bits.
    """
    truth = content.truth
    if verifier.knowledge.shape != truth.shape:
        raise DimensionMismatchError(
            f"knowledge dim {verifier.knowledge.shape} != "
            f"truth dim {truth.shape}")
    if not math.isfinite(noise_sigma):
        raise ValueError(f"noise_sigma must be finite, got {noise_sigma}")
    align = max(0.0, float(verifier.knowledge.dot(truth)))
    raw = rng.normal(noise_sigma, truth.shape)
    raw *= 1.0 - align
    raw += truth
    norm = math.sqrt(raw.dot(raw))
    if norm == 0.0:  # measure-zero fallback
        return SemanticResult(verifier.id, truth.copy())
    raw /= norm
    return SemanticResult(verifier.id, raw)


def score_accuracy(result: SemanticResult, truth: np.ndarray) -> float:
    """Accuracy of a result against shared knowledge: cosine clipped at zero.

    Writes the score back into result.accuracy and returns it. Each norm is
    sqrt(v.dot(v)), numpy.linalg.norm's own formula for a contiguous real
    vector, so the bits are numpy's at a third of the cost. A zero vector, or
    one whose norm is not finite (a NaN or inf component, or overflow), has
    no direction to score.
    """
    vec = np.asarray(result.vector, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if vec.shape != truth.shape:
        raise DimensionMismatchError(f"{vec.shape} != {truth.shape}")
    nv, nt = math.sqrt(vec.dot(vec)), math.sqrt(truth.dot(truth))
    if nv == 0.0 or nt == 0.0:
        raise DegenerateInputError("cannot score a zero vector")
    if not (math.isfinite(nv) and math.isfinite(nt)):
        raise DegenerateInputError(
            f"cannot score a vector whose norm is not finite ({nv}, {nt})")
    acc = max(0.0, float(vec.dot(truth)) / (nv * nt))
    result.accuracy = acc
    return acc


def select_leader(verifier_ids: Iterable[int], round_index: int) -> int:
    """Deterministic round-robin over the sorted verifier ids."""
    ids = sorted(verifier_ids)
    if not ids:
        raise NoVerifiersError("cannot select a leader from an empty set")
    return ids[round_index % len(ids)]


def offchain_aggregate(results: Sequence[SemanticResult], truth: np.ndarray,
                       threshold: float) -> AggregationReport:
    """Leader-side aggregation: filter by accuracy threshold, average, renormalize.

    Every result must already carry an accuracy score, and every passing
    vector must have the truth's shape. Raises AggregationFailure when no
    result passes the threshold (the content is rejected and nothing is
    submitted for consensus).
    """
    if not results:
        raise AggregationFailure("no results to aggregate")
    for r in results:
        if r.accuracy is None:
            raise UnscoredResultError(f"result from verifier {r.verifier_id} unscored")
    passing = [r for r in results if r.accuracy >= threshold]
    if not passing:
        raise AggregationFailure(
            f"no result met threshold {threshold} "
            f"(best was {max(r.accuracy for r in results):.4f})")
    try:
        stacked = np.array([r.vector for r in passing])
    except ValueError:  # numpy's "inhomogeneous shape"
        stacked = None
    if stacked is None or stacked.shape[1:] != np.shape(truth):
        raise DimensionMismatchError(
            f"contributor vectors do not all have the truth's shape "
            f"{np.shape(truth)}")
    mean = stacked.mean(axis=0)
    norm = math.sqrt(mean.dot(mean))
    if norm == 0.0:
        raise DegenerateInputError("contributor vectors cancel out")
    return AggregationReport(
        aggregated=mean / norm,
        contributors=frozenset(r.verifier_id for r in passing),
    )


def distribute_rewards(report: AggregationReport, pool: int, producer,
                       ledger: Ledger) -> Ledger:
    """Split the reward pool equally among contributors.

    The integer remainder stays with the producer, so the producer is debited
    exactly pool - (pool mod n_contributors). Conserves total supply. A
    report with no contributors raises AggregationFailure.
    """
    pool = token_amount("distribute", pool)
    if ledger.balance(producer) < pool:
        raise InsufficientFundsError(
            f"producer {producer!r} holds {ledger.balance(producer)}, "
            f"pool is {pool}")
    if not report.contributors:
        raise AggregationFailure("the report has no contributors to reward")
    share = pool // len(report.contributors)
    for verifier_id in sorted(report.contributors):
        ledger.transfer(producer, verifier_id, share)
    return ledger


def interactive_challenge(solver: SemanticResult, challenger: SemanticResult,
                          truth: np.ndarray, bond: int,
                          ledger: Ledger) -> ChallengeOutcome:
    """Resolve a challenge against a posted result.

    The challenger wins by reaching at least the solver's accuracy (ties go
    to the challenger); the loser's bond is transferred to the winner.
    """
    if solver.accuracy is None or challenger.accuracy is None:
        raise UnscoredResultError("both results must be scored before a challenge")
    if challenger.accuracy >= solver.accuracy:
        winner, loser, name = challenger, solver, "challenger"
    else:
        winner, loser, name = solver, challenger, "solver"
    ledger.transfer(loser.verifier_id, winner.verifier_id, bond)
    return ChallengeOutcome(winner=name)


def _encode_vector(vector: np.ndarray) -> bytes:
    """Canonical encoding: each component as a little-endian 64-bit float."""
    return np.ascontiguousarray(vector, dtype="<f8").tobytes()


def commit(vector: np.ndarray, salt: bytes) -> Commitment:
    """Commit to a vector with a 128-bit salt via SHA-256."""
    if len(salt) != 16:
        raise ValueError("salt must be exactly 128 bits")
    digest = hashlib.sha256(_encode_vector(vector) + salt).digest()
    return Commitment(digest=digest)


def verify_commitment(c: Commitment, vector: np.ndarray, salt: bytes) -> bool:
    """Check a revealed (vector, salt) pair against a commitment."""
    return hashlib.sha256(_encode_vector(vector) + salt).digest() == c.digest


def random_salt(rng: Rng) -> bytes:
    return rng.bytes(16)


def ratify_setting(setting: ShardingState, cfg: NetworkConfig) -> bool:
    """True iff the proposed setting passes ShardingState.validate.

    Every honest verifier runs this same check on the same setting, so the
    network's vote is unanimous either way and one check decides it.
    """
    try:
        setting.validate(cfg)
    except InvalidShardingError:
        return False
    return True
