"""Oracle verifier consensus on semantic verification results.

Covers the three aggregation/verification routes (leader aggregation with a
threshold filter, interactive challenges with bond transfer, non-interactive
hash-commitment proofs), leader selection, token accounting on an in-memory
ledger, and ratification of sharding settings proposed by the leader.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .core import NetworkConfig, Content, Rng, ShardingState, VerifierNode, clamp_sharding


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
    content_id: int
    vector: np.ndarray
    accuracy: Optional[float] = None  # set by the leader via score_accuracy


@dataclass(frozen=True)
class AggregationReport:
    content_id: int
    aggregated: np.ndarray
    contributors: frozenset[int]
    threshold_used: float


@dataclass(frozen=True)
class ChallengeOutcome:
    winner: str  # "solver" or "challenger"
    bond_transfer: int


@dataclass(frozen=True)
class Commitment:
    """Binding commitment to a semantic vector: digest = SHA-256(encode(v) || salt)."""

    digest: bytes
    salt: bytes


@dataclass(frozen=True)
class SettingMessage:
    """A sharding setting packaged by the leader for network-wide ratification."""

    leader_id: int
    setting: ShardingState


class Ledger:
    """Token balances for all participants.

    total_supply changes only through mint() at setup; every other operation
    conserves it. Mutations must be serialized (one writer per instance).
    """

    def __init__(self):
        self._balances: dict = {}
        self.total_supply = 0

    def mint(self, node_id, amount: int) -> None:
        if amount < 0:
            raise ValueError("cannot mint a negative amount")
        self._balances[node_id] = self._balances.get(node_id, 0) + amount
        self.total_supply += amount

    def balance(self, node_id) -> int:
        return self._balances.get(node_id, 0)

    def transfer(self, src, dst, amount: int) -> None:
        if amount < 0:
            raise ValueError("cannot transfer a negative amount")
        if self.balance(src) < amount:
            raise InsufficientFundsError(
                f"{src!r} holds {self.balance(src)}, needs {amount}")
        self._balances[src] -= amount
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
    """
    if verifier.knowledge.shape != content.truth.shape:
        raise DimensionMismatchError(
            f"knowledge dim {verifier.knowledge.shape} != "
            f"truth dim {content.truth.shape}")
    align = max(0.0, float(np.dot(verifier.knowledge, content.truth)))
    noise = rng.normal(noise_sigma, size=content.truth.shape)
    raw = content.truth + (1.0 - align) * noise
    norm = float(np.linalg.norm(raw))
    if norm == 0.0:
        raw, norm = content.truth.copy(), 1.0  # measure-zero fallback
    return SemanticResult(verifier.id, content.id, raw / norm)


def score_accuracy(result: SemanticResult, truth: np.ndarray) -> float:
    """Accuracy of a result against shared knowledge: cosine clipped at zero.

    Writes the score back into result.accuracy and returns it.
    """
    vec = np.asarray(result.vector, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if vec.shape != truth.shape:
        raise DimensionMismatchError(f"{vec.shape} != {truth.shape}")
    nv, nt = float(np.linalg.norm(vec)), float(np.linalg.norm(truth))
    if nv == 0.0 or nt == 0.0:
        raise DegenerateInputError("cannot score a zero vector")
    acc = max(0.0, float(np.dot(vec, truth)) / (nv * nt))
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

    Every result must already carry an accuracy score. Raises
    AggregationFailure when no result passes the threshold (the content is
    rejected and nothing is submitted for consensus).
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
    mean = np.mean([r.vector for r in passing], axis=0)
    norm = float(np.linalg.norm(mean))
    if norm == 0.0:
        raise DegenerateInputError("contributor vectors cancel out")
    return AggregationReport(
        content_id=results[0].content_id,
        aggregated=mean / norm,
        contributors=frozenset(r.verifier_id for r in passing),
        threshold_used=threshold,
    )


def distribute_rewards(report: AggregationReport, pool: int, producer,
                       ledger: Ledger) -> Ledger:
    """Split the reward pool equally among contributors.

    The integer remainder stays with the producer, so the producer is debited
    exactly pool - (pool mod n_contributors). Conserves total supply.
    """
    if pool < 0:
        raise ValueError("reward pool must be non-negative")
    if ledger.balance(producer) < pool:
        raise InsufficientFundsError(
            f"producer {producer!r} holds {ledger.balance(producer)}, "
            f"pool is {pool}")
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
    return ChallengeOutcome(winner=name, bond_transfer=bond)


def _encode_vector(vector: np.ndarray) -> bytes:
    """Canonical encoding: each component as a little-endian 64-bit float."""
    return np.ascontiguousarray(vector, dtype="<f8").tobytes()


def commit(vector: np.ndarray, salt: bytes) -> Commitment:
    """Commit to a vector with a 128-bit salt via SHA-256."""
    if len(salt) != 16:
        raise ValueError("salt must be exactly 128 bits")
    digest = hashlib.sha256(_encode_vector(vector) + salt).digest()
    return Commitment(digest=digest, salt=salt)


def verify_commitment(c: Commitment, vector: np.ndarray, salt: bytes) -> bool:
    """Check a revealed (vector, salt) pair against a commitment."""
    return hashlib.sha256(_encode_vector(vector) + salt).digest() == c.digest


def random_salt(rng: Rng) -> bytes:
    return rng.bytes(16)


def propose_setting(leader_id: int, setting: ShardingState) -> SettingMessage:
    """Package a sharding setting for broadcast to the other verifiers."""
    return SettingMessage(leader_id=leader_id, setting=setting)


def ratify_setting(msg: SettingMessage, verifiers: Sequence[int],
                   cfg: NetworkConfig,
                   vote: Optional[Callable[[int, SettingMessage], bool]] = None,
                   ) -> bool:
    """Vote on a proposed setting; accepted iff votes >= ceil(2/3 * |verifiers|).

    The default (honest) vote re-checks the setting's bounds: it accepts iff
    clamp_sharding leaves the setting unchanged and the structural invariants
    hold. Honest votes are identical across verifiers, so they are evaluated
    once. Pass a custom vote callable to model dissenting verifiers.
    """
    if not len(verifiers):
        raise NoVerifiersError("cannot ratify without verifiers")
    if vote is None:
        votes = len(verifiers) if _honest_vote(msg.setting, cfg) else 0
    else:
        votes = sum(1 for v in verifiers if vote(v, msg))
    return votes >= math.ceil(2 * len(verifiers) / 3)


def _honest_vote(setting: ShardingState, cfg: NetworkConfig) -> bool:
    n_total = sum(setting.shard_sizes)
    _, _, clamped = clamp_sharding(setting.num_shards, setting.message_size,
                                   n_total, cfg)
    return not clamped and setting.is_valid(cfg)
