"""Oracles for the proof-of-semantic hot path: a verifier's result and the
leader's accuracy score in plain numpy (np.dot, np.linalg.norm, np.asarray,
out-of-place arithmetic), whose bits every faster form must reproduce."""

import numpy as np

from semshard.core import Content, VerifierNode


def reference_simulate_verification(verifier, content, rng, noise_sigma):
    """The result vector simulate_verification must return, drawn from rng."""
    align = max(0.0, float(np.dot(verifier.knowledge, content.truth)))
    noise = rng.normal(noise_sigma, size=content.truth.shape)
    raw = content.truth + (1.0 - align) * noise
    norm = float(np.linalg.norm(raw))
    if norm == 0.0:
        raw, norm = content.truth.copy(), 1.0
    return raw / norm


def reference_score_accuracy(vector, truth):
    vec = np.asarray(vector, dtype=float)
    truth = np.asarray(truth, dtype=float)
    nv, nt = float(np.linalg.norm(vec)), float(np.linalg.norm(truth))
    return max(0.0, float(np.dot(vec, truth)) / (nv * nt))


def verification_pairs(dim, count, seed):
    """count (verifier, content) pairs of one dimension. Knowledge ranges
    from near the truth to opposite it, so the clipped alignment takes
    values across [0, 1], 0 included."""
    gen = np.random.default_rng(seed)
    unit = lambda v: v / np.linalg.norm(v)  # noqa: E731
    pairs = []
    for i in range(count):
        truth = unit(gen.normal(size=dim))
        sign = -1.0 if i % 4 == 3 else 1.0
        spread = 2.0 * i / count
        knowledge = unit(sign * truth + spread * gen.normal(size=dim))
        pairs.append((VerifierNode(i, knowledge), Content(i, truth)))
    return pairs
