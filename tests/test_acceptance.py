"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The full-grid comparison
(criterion 3) trains 75 agents and takes several minutes; everything else
finishes in seconds.
"""

import csv
import itertools
import os
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

import semshard
from dqn_oracles import gradient_check_instance, max_relative_gradient_error
from pinned_draws import RATE, SEMANTIC_TIME, PinnedEnv, pinned_config
from semshard.config import load_config
from semshard.consensus import (AggregationFailure, Ledger, SemanticResult,
                                commit, distribute_rewards,
                                interactive_challenge, offchain_aggregate,
                                random_salt, score_accuracy,
                                simulate_verification, verify_commitment)
from semshard.core import Content, Rng, VerifierNode
from semshard.dqn import (Hyperparameters, QNetwork, ReplayBuffer, sync_target,
                          train_step)
from semshard.env import OBSERVATION_SIZE


def report(number: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"\ncriterion {number}: {verdict} - {detail}")


def run_cli(args):
    # the child imports the same semshard as this process, installed or not
    src = str(Path(semshard.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "semshard.cli", *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def straight_line_reward(k, s, n, rate, t_sem, reconfigured):
    """Independent composition of the latency and throughput formulas."""
    sizes = [n // k + (1 if i < n % k else 0) for i in range(k)]
    biggest = max(sizes)
    t_prop = 2.0 * biggest * (biggest - 1) * s / rate
    t_round = (0.001 if reconfigured else 0.0) + t_prop + 0.1 + t_sem + s / rate
    return (k * (s / 4000.0) / t_round) / 1000.0


def test_criterion_1_formula_fidelity():
    started = time.time()
    proc = run_cli(["eval-throughput", "--shards", "10",
                    "--msg-size", "8000000", "--nodes", "100",
                    "--rate", "10000000", "--sem-time", "20",
                    "--reconfigured"])
    elapsed = time.time() - started
    values = {line.split()[0]: float(line.split()[1])
              for line in proc.stdout.splitlines()}
    ok = (proc.returncode == 0
          and abs(values["t_prop"] - 144.000) < 1e-6
          and abs(values["t_round"] - 164.901) < 1e-6
          and abs(values["tps"] - 121.28) <= 0.01
          and elapsed < 1.0)
    report(1, ok, f"t_prop={values['t_prop']:.3f} t_round={values['t_round']:.3f} "
                  f"tps={values['tps']:.2f} ({elapsed:.2f}s)")
    assert ok


def test_criterion_2_brute_force_oracle_equivalence():
    started = time.time()
    cfg = pinned_config(nodes_initial=100, rounds_per_episode=300)
    env = PinnedEnv(cfg)
    env.reset(Rng(0))
    prev_k = 1  # reset state
    worst = 0.0
    pairs = 0
    for k in range(1, 100 // cfg.min_shard_size + 1):
        for s in range(cfg.message_size_min, cfg.avg_message_size_max + 1,
                       cfg.message_size_step):
            _, reward, _, _ = env.force_setting(k, s)
            expected = straight_line_reward(k, s, 100, RATE, SEMANTIC_TIME,
                                            k != prev_k)
            prev_k = k
            worst = max(worst, abs(reward - expected) / expected)
            pairs += 1
    elapsed = time.time() - started
    ok = worst < 1e-9 and elapsed < 5.0
    report(2, ok, f"{pairs} (K,S) pairs, max rel err {worst:.2e} "
                  f"({elapsed:.2f}s)")
    assert ok


def test_criterion_4_dqn_correctness():
    started = time.time()

    checked = 0
    seed = 0
    worst = 0.0
    while checked < 20:
        instance = gradient_check_instance(seed)
        seed += 1
        if instance is None:
            continue
        worst = max(worst, max_relative_gradient_error(*instance))
        checked += 1
    gradients_ok = worst < 1e-4

    rng = Rng(50)
    net = QNetwork(OBSERVATION_SIZE, 16, 5, rng)
    # the target row starts from other weights, so the sync has something
    # to copy
    net.target_theta[:] = QNetwork(OBSERVATION_SIZE, 16, 5, rng).theta
    sync_target(net)
    target = net.named(net.target_theta)
    sync_ok = all(np.array_equal(v, target[k])
                  for k, v in net.named(net.theta).items())
    frozen = {k: v.copy() for k, v in target.items()}
    buffer = ReplayBuffer(64)
    for i in range(16):
        buffer.push(rng.uniform(0, 1, OBSERVATION_SIZE), i % 5, 1.0,
                    rng.uniform(0, 1, OBSERVATION_SIZE), False)
    hp = Hyperparameters(batch_size=8)
    for _ in range(25):
        train_step(net, buffer, hp, rng)
    frozen_ok = all(np.array_equal(v, frozen[k]) for k, v in target.items())

    fifo = ReplayBuffer(100)
    for i in range(250):
        fifo.push(np.zeros(OBSERVATION_SIZE), 0, float(i),
                  np.zeros(OBSERVATION_SIZE), False)
    # the ring from its cursor on, oldest first
    kept = np.roll(fifo._rewards, -fifo._cursor).tolist()
    fifo_ok = kept == [float(i) for i in range(150, 250)]

    elapsed = time.time() - started
    ok = gradients_ok and sync_ok and frozen_ok and fifo_ok and elapsed < 10.0
    report(4, ok, f"20 gradient checks max rel err {worst:.2e}; "
                  f"sync bitwise={sync_ok}; target frozen={frozen_ok}; "
                  f"FIFO={fifo_ok} ({elapsed:.2f}s)")
    assert ok


def test_criterion_5_proof_of_semantic_properties():
    started = time.time()
    rng = Rng(117)

    conserved = True
    for _ in range(1000):
        truth = rng.normal(1.0, 8)
        truth /= np.linalg.norm(truth)
        content = Content(0, truth)
        ledger = Ledger()
        ledger.mint("producer", 5_000)
        verifiers = []
        for i in range(4):
            raw = truth + float(rng.uniform(0, 1.5)) * rng.normal(1.0, 8)
            verifiers.append(VerifierNode(i, raw / np.linalg.norm(raw)))
            ledger.mint(i, 50)
        supply = ledger.total_supply
        results = [simulate_verification(v, content, rng) for v in verifiers]
        for r in results:
            score_accuracy(r, truth)
        for _ in range(3):
            op = int(rng.integers(0, 1))
            if op == 0:
                try:
                    rep = offchain_aggregate(results, truth, 0.5)
                    distribute_rewards(rep, int(rng.integers(0, 99)),
                                       "producer", ledger)
                except AggregationFailure:
                    pass
            else:
                a, b = int(rng.integers(0, 3)), int(rng.integers(0, 3))
                if a != b:
                    bond = min(10, ledger.balance(a), ledger.balance(b))
                    interactive_challenge(results[a], results[b], truth,
                                          bond, ledger)
            conserved &= ledger.conserved() and ledger.total_supply == supply

    filter_ok = True
    truth2 = np.array([1.0, 0.0])
    for _ in range(1000):
        results = []
        for i in range(int(rng.integers(1, 8))):
            acc = float(rng.uniform(0, 1))
            r = SemanticResult(i, np.array([acc, np.sqrt(1 - acc * acc)]))
            r.accuracy = acc
            results.append(r)
        threshold = float(rng.uniform(0, 1))
        brute = {r.verifier_id for r in results if r.accuracy >= threshold}
        try:
            rep = offchain_aggregate(results, truth2, threshold)
            filter_ok &= rep.contributors == brute
            filter_ok &= all(r.accuracy >= threshold for r in results
                             if r.verifier_id in rep.contributors)
        except AggregationFailure:
            filter_ok &= not brute

    false_accepts = 0
    vec = rng.normal(1.0, 8)
    salt = random_salt(rng)
    c = commit(vec, salt)
    for _ in range(10_000):
        tampered = vec.copy()
        idx = int(rng.integers(0, 7))
        kind = int(rng.integers(0, 2))
        if kind == 0:
            tampered[idx] = np.nextafter(tampered[idx],
                                         np.inf if rng.uniform() < 0.5
                                         else -np.inf)
        elif kind == 1:
            tampered[idx] += float(rng.normal(1e-6))
        else:
            tampered[idx] = -tampered[idx]
        if np.array_equal(tampered, vec):
            continue
        false_accepts += verify_commitment(c, tampered, salt)
    commitment_ok = false_accepts == 0

    elapsed = time.time() - started
    ok = conserved and filter_ok and commitment_ok and elapsed < 30.0
    report(5, ok, f"conservation={conserved}; filter exact={filter_ok}; "
                  f"false accepts={false_accepts}/10000 ({elapsed:.2f}s)")
    assert ok


def test_criterion_6_determinism(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("[network]\nrounds_per_episode = 30\nseed = 11\n"
                        "[agent]\nepochs = 25\n")
    outs = []
    for name in ("a", "b"):
        proc = run_cli(["train", str(cfg_path), "--out",
                        str(tmp_path / name)])
        assert proc.returncode == 0, proc.stderr
        outs.append((tmp_path / name / "rewards.csv").read_bytes())
    ok = outs[0] == outs[1]
    report(6, ok, f"rewards.csv byte-identical across reruns "
                  f"({len(outs[0])} bytes)")
    assert ok


def test_criterion_7_hyperparameter_conformance():
    cfg = load_config(None, environ={})
    snapshot = (cfg.agent.learning_rate, cfg.agent.discount,
                cfg.agent.epsilon, cfg.agent.batch_size,
                cfg.agent.target_sync_interval, cfg.agent.epochs)
    expected = (0.002, 0.98, 0.1, 64, 10, 1000)
    constants = (cfg.network.config_latency, cfg.network.validation_delay,
                 cfg.network.avg_message_size_max,
                 cfg.network.semantic_time_max, cfg.network.rate_min)
    expected_constants = (0.001, 0.1, 8_000_000, 20.0, 10_000_000.0)
    ok = snapshot == expected and constants == expected_constants
    report(7, ok, f"agent defaults {snapshot}, network constants {constants}")
    assert ok


@pytest.mark.slow
def test_criterion_3_adaptive_beats_static(tmp_path):
    """Ordinal sweep comparison at desk scale (the slow one)."""
    started = time.time()
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text("[agent]\nepochs = 200\n")
    out = tmp_path / "sweep"
    proc = run_cli(["sweep", str(cfg_path), "--out", str(out),
                    "--grid", "nodes=100:500:100;rates=60:100:10;seeds=1,2,3"])
    assert proc.returncode == 0, proc.stderr

    final = defaultdict(list)  # (nodes, rate, policy) -> per-seed final-50 means
    by_run = defaultdict(list)
    with open(out / "sweep.csv") as fh:
        for row in csv.DictReader(fh):
            by_run[(int(row["nodes"]), int(float(row["rate_max"])),
                    int(row["seed"]), row["policy"])].append(
                        (int(row["epoch"]), float(row["mean_reward"])))
    for (nodes, rate, seed, policy), rows in by_run.items():
        rows.sort()
        tail = [m for _, m in rows[-50:]]
        final[(nodes, rate, policy)].append(float(np.mean(tail)))

    cells_ge = cells_gt = 0
    nodes_axis = sorted({k[0] for k in final})
    rate_axis = sorted({k[1] for k in final})
    for nodes, rate in itertools.product(nodes_axis, rate_axis):
        adaptive = float(np.mean(final[(nodes, rate, "adaptive")]))
        baseline = float(np.mean(final[(nodes, rate, "baseline")]))
        cells_ge += adaptive >= baseline
        cells_gt += adaptive > baseline
    elapsed = time.time() - started
    ok = cells_ge >= 20 and cells_gt >= 15 and elapsed < 900.0
    report(3, ok, f"adaptive >= baseline on {cells_ge}/25 cells, "
                  f"strictly greater on {cells_gt}/25 ({elapsed:.0f}s)")
    assert ok
