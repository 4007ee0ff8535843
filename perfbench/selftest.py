"""Self-tests for the output checks: each checker must pass a good output and
flag the same output with one fault put in. Runs at the start of every
benchmark run.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

import checks
from semshard import consensus, dqn
from semshard.config import load_config, write_manifest
from semshard.core import Content, Rng, VerifierNode
from semshard.env import ShardEnv


def _case(problems: list, name: str, good: list[str], bad: list[str]) -> None:
    if good:
        problems.append(f"selftest {name}: good output flagged: {good[0]}")
    if not bad:
        problems.append(f"selftest {name}: fault not flagged")


def run(scratch: Path) -> list[str]:
    problems: list[str] = []
    cfg = load_config(None, environ={})
    net = dataclasses.asdict(cfg.network)

    # a perturbed tps record
    env = ShardEnv(cfg.network)
    rng = Rng(7)
    env.reset(rng)
    k_fixed = cfg.network.nodes_initial // cfg.network.min_shard_size
    while not env.terminal:
        env.force_setting(k_fixed, cfg.network.avg_message_size_max, rng)
    records = list(env.log.records)
    bad = list(records)
    bad[37] = dataclasses.replace(bad[37], tps=bad[37].tps * (1 + 1e-9))
    _case(problems, "perturbed tps",
          checks.episode_problems(records, net, k_fixed),
          checks.episode_problems(bad, net, k_fixed))

    # one token moved off the books
    ledger = consensus.Ledger()
    books = {"producer": 500, 1: 20, 2: 20}
    for holder, amount in books.items():
        ledger.mint(holder, amount)
    ledger.transfer("producer", 1, 5)
    books["producer"] -= 5
    books[1] += 5
    good = checks.ledger_problems(ledger, books, 540)
    ledger._balances[2] -= 1
    _case(problems, "token off the books", good,
          checks.ledger_problems(ledger, books, 540))

    # a wrong contributor set
    gen = np.random.default_rng(3)
    truth = gen.normal(size=8)
    truth /= np.linalg.norm(truth)
    content = Content(id=0, truth=truth, reward_pool=100)
    results = []
    for i in range(12):
        know = truth + 1.5 * i / 11 * gen.normal(size=8)
        verifier = VerifierNode(id=i, knowledge=know / np.linalg.norm(know))
        result = consensus.simulate_verification(verifier, content, Rng(i))
        consensus.score_accuracy(result, truth)
        results.append(result)
    report = consensus.offchain_aggregate(results, truth, 0.8)
    vectors = {r.verifier_id: list(r.vector) for r in results}
    outsider = min(set(vectors) - report.contributors)
    _case(problems, "wrong contributor set",
          checks.contributor_problems(vectors, list(truth), 0.8,
                                      report.contributors),
          checks.contributor_problems(vectors, list(truth), 0.8,
                                      report.contributors | {outsider}))

    # a mismatched manifest hash
    path = scratch / "selftest-manifest.json"
    write_manifest(path, cfg, [])
    manifest = json.loads(path.read_text())
    path.unlink()
    good = checks.manifest_problems(manifest)
    manifest["config"]["agent"]["epochs"] += 1
    _case(problems, "manifest hash", good, checks.manifest_problems(manifest))

    # a truncated network.bin
    path = scratch / "selftest-network.bin"
    dqn.save_network(dqn.QNetwork(8, 16, 5, Rng(1)), path)
    data = path.read_bytes()
    path.unlink()
    _case(problems, "truncated network.bin",
          checks.network_file_problems(data, (8, 16, 5)),
          checks.network_file_problems(data[:-8], (8, 16, 5)))
    return problems
