"""Command-line harness: training runs, scenario sweeps, spot checks, demos.

Subcommands:
    train            train the sharding controller on one scenario
    sweep            adaptive-vs-baseline grid over node counts and rates
    eval-throughput  print the latency breakdown and throughput of one setting
    pos-demo         run one proof-of-semantic round on an in-memory ledger
"""

from __future__ import annotations

import argparse
import csv
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import consensus
from .config import (RunConfig, config_hash, default_grid, load_config,
                     parse_grid, read_manifest, write_manifest)
from .core import (ConfigError, Content, InvalidShardingError, NetworkConfig,
                   Rng, VerifierNode, make_sharding_state)
from .dqn import (TrainRow, save_network, train, write_training_csv)
from .env import ShardEnv, run_baseline
from .throughput import RoundConditions, round_latency, throughput

SWEEP_CSV_HEADER = "nodes,rate_max,seed,policy,epoch,mean_reward"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semshard",
        description="Sharded oracle-network simulator with an adaptive "
                    "DQN sharding controller.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one scenario")
    p_train.add_argument("config", nargs="?", default=None,
                         help="config file (defaults reproduce the reference scenario)")
    p_train.add_argument("--seed", type=int, default=None,
                         help="override network.seed")
    p_train.add_argument("--out", required=True, help="output directory")
    p_train.set_defaults(func=cmd_train)

    p_sweep = sub.add_parser("sweep", help="grid sweep: adaptive vs static-max")
    p_sweep.add_argument("config", nargs="?", default=None)
    p_sweep.add_argument("--grid", default=None,
                         help="e.g. 'nodes=100:500:100;rates=60:100:10;seeds=1,2,3' "
                              "(rates in Mbps)")
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="parallel cell workers")
    p_sweep.set_defaults(func=cmd_sweep)

    p_eval = sub.add_parser("eval-throughput",
                            help="latency breakdown + throughput for one setting")
    p_eval.add_argument("--shards", type=int, default=10)
    p_eval.add_argument("--msg-size", type=int, default=8_000_000,
                        help="message size in bits")
    p_eval.add_argument("--nodes", type=int, default=100)
    p_eval.add_argument("--rate", type=float, default=10_000_000.0,
                        help="transmission rate in bits/second")
    p_eval.add_argument("--sem-time", type=float, default=20.0,
                        help="semantic processing time in seconds")
    p_eval.add_argument("--reconfigured", action="store_true",
                        help="charge the shard-formation latency")
    p_eval.set_defaults(func=cmd_eval_throughput)

    p_demo = sub.add_parser("pos-demo",
                            help="one proof-of-semantic verification round")
    p_demo.add_argument("--verifiers", type=int, default=5)
    p_demo.add_argument("--mechanism", required=True,
                        choices=("offchain", "interactive", "commitment"))
    p_demo.add_argument("--seed", type=int, default=0)
    p_demo.add_argument("--tamper", action="store_true",
                        help="perturb the revealed vector (commitment only)")
    p_demo.set_defaults(func=cmd_pos_demo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InvalidShardingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def _prepare_out(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    probe = out / ".write-probe"
    probe.write_bytes(b"")
    probe.unlink()
    return out


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = RunConfig(network=replace(cfg.network, seed=args.seed),
                        agent=cfg.agent)
    out = _prepare_out(args.out)
    env = ShardEnv(cfg.network)
    net, rows = train(env, cfg.agent, Rng(cfg.network.seed))
    with open(out / "rewards.csv", "w") as fh:
        write_training_csv(rows, fh)
    save_network(net, out / "network.bin")
    write_manifest(out / "manifest.json", cfg, ["rewards.csv", "network.bin"])
    print(f"trained {cfg.agent.epochs} epochs, seed {cfg.network.seed}, "
          f"config {config_hash(cfg)[:12]} -> {out}")
    return 0


def run_sweep_cell(base: RunConfig, out_dir: str, nodes: int, rate: float,
                   seed: int, policy: str) -> list[tuple[int, float]]:
    """Run (or resume) one sweep cell; returns its (epoch, mean_reward) rows.

    Cells are fully determined by (config, nodes, rate, seed, policy), so the
    result is the same whether cells run serially or in parallel. A cell
    whose manifest carries this cell's config hash is reused as-is; any other
    is recomputed.
    """
    network = replace(base.network, nodes_initial=nodes, rate_max=rate,
                      seed=seed)
    cfg = RunConfig(network=network, agent=base.agent)
    cell = Path(out_dir) / "cells" / f"n{nodes}_r{int(rate)}_s{seed}_{policy}"
    rewards_path = cell / "rewards.csv"
    manifest_path = cell / "manifest.json"
    if (manifest_path.exists() and rewards_path.exists()
            and read_manifest(manifest_path)["config_hash"] == config_hash(cfg)):
        return _read_reward_rows(rewards_path)

    cell.mkdir(parents=True, exist_ok=True)
    rng = Rng(seed)
    if policy == "adaptive":
        net, rows = train(ShardEnv(network), cfg.agent, rng)
        save_network(net, cell / "network.bin")
        outputs = ["rewards.csv", "network.bin"]
    else:
        means = run_baseline(network, cfg.agent.epochs, rng)
        rows = [TrainRow(i, m, 0.0, 0.0) for i, m in enumerate(means)]
        outputs = ["rewards.csv"]
    with open(rewards_path, "w") as fh:
        write_training_csv(rows, fh)
    write_manifest(cell / "manifest.json", cfg, outputs)
    return [(row.epoch, row.mean_reward) for row in rows]


def _read_reward_rows(path: Path) -> list[tuple[int, float]]:
    with open(path) as fh:
        reader = csv.DictReader(fh)
        return [(int(r["epoch"]), float(r["mean_reward"])) for r in reader]


def _cell_worker(payload):
    return run_sweep_cell(*payload)


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    grid = parse_grid(args.grid) if args.grid else default_grid()
    out = _prepare_out(args.out)

    jobs = [(cfg, str(out), nodes, int(rate), seed, policy)
            for nodes, rate, seed in grid.cells()
            for policy in ("adaptive", "baseline")]
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            results = list(pool.map(_cell_worker, jobs))
    else:
        results = [_cell_worker(job) for job in jobs]

    with open(out / "sweep.csv", "w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SWEEP_CSV_HEADER.split(","))
        for (job, rows) in zip(jobs, results):
            _, _, nodes, rate, seed, policy = job
            for epoch, mean_reward in rows:
                writer.writerow([nodes, rate, seed, policy, epoch,
                                 repr(mean_reward)])
    write_manifest(out / "manifest.json", cfg, ["sweep.csv"])
    print(f"sweep complete: {len(jobs)} cells -> {out / 'sweep.csv'}")
    return 0


def cmd_eval_throughput(args) -> int:
    cfg = NetworkConfig()
    state = make_sharding_state(args.shards, args.msg_size, args.nodes, 0, cfg)
    cond = RoundConditions(rate=args.rate, semantic_time=args.sem_time,
                           reconfigured=args.reconfigured)
    lat = round_latency(state, cond, cfg)
    tps = throughput(state, lat, cfg)
    for name, value in (("t_config", lat.t_config), ("t_prop", lat.t_prop),
                        ("t_intra", lat.t_intra), ("t_inter", lat.t_inter),
                        ("t_round", lat.t_round)):
        print(f"{name:9s} {value:.6f} s")
    print(f"tps       {tps:.6f}")
    return 0


def cmd_pos_demo(args) -> int:
    if args.verifiers < 1:
        raise ConfigError("verifiers: must be at least 1")
    cfg = NetworkConfig()
    rng = Rng(args.seed)
    d = cfg.semantic_dim

    truth = rng.normal(1.0, d)
    truth /= np.linalg.norm(truth)
    content = Content(id=0, truth=truth, reward_pool=120, bond=25)

    verifiers = []
    for i in range(args.verifiers):
        spread = 1.5 * i / max(1, args.verifiers - 1)
        raw = truth + spread * rng.normal(1.0, d)
        verifiers.append(VerifierNode(id=i, knowledge=raw / np.linalg.norm(raw)))

    ledger = consensus.Ledger()
    ledger.mint("producer", 1_000)
    for v in verifiers:
        ledger.mint(v.id, 100)
    supply_before = ledger.total_supply

    results = [consensus.simulate_verification(v, content, rng,
                                               cfg.noise_sigma)
               for v in verifiers]
    leader = consensus.select_leader([v.id for v in verifiers], round_index=0)
    for r in results:
        consensus.score_accuracy(r, truth)
    print(f"leader: verifier {leader}")
    for r in results:
        print(f"verifier {r.verifier_id}: accuracy {r.accuracy:.4f}")

    code = 0
    if args.mechanism == "offchain":
        try:
            report = consensus.offchain_aggregate(results, truth,
                                                  cfg.accuracy_threshold)
        except consensus.AggregationFailure as exc:
            print(f"content rejected: {exc}")
            code = 1
        else:
            consensus.distribute_rewards(report, content.reward_pool,
                                         "producer", ledger)
            ids = sorted(report.contributors)
            share = content.reward_pool // len(ids)
            print(f"aggregated over contributors {ids} "
                  f"(threshold {report.threshold_used}); {share} tokens each")
    elif args.mechanism == "interactive":
        solver, challenger = results[-1], results[0]
        outcome = consensus.interactive_challenge(solver, challenger, truth,
                                                  content.bond, ledger)
        print(f"challenge: solver {solver.verifier_id} vs challenger "
              f"{challenger.verifier_id} -> {outcome.winner} wins, "
              f"bond {outcome.bond_transfer} transferred")
    else:  # commitment
        vector = results[0].vector
        salt = consensus.random_salt(rng)
        commitment = consensus.commit(vector, salt)
        revealed = vector.copy()
        if args.tamper:
            revealed[0] = np.nextafter(revealed[0], np.inf)
        ok = consensus.verify_commitment(commitment, revealed, salt)
        print(f"commitment digest {commitment.digest.hex()[:16]}... "
              f"verified={ok}")
        if ok:
            ledger.transfer("producer", results[0].verifier_id, 10)
            print(f"verifier {results[0].verifier_id} paid 10 tokens")
        else:
            print("verification failure: revealed vector does not match")
            code = 1

    if not ledger.conserved() or ledger.total_supply != supply_before:
        raise RuntimeError("token conservation violated")
    print("ledger (token balances):")
    print(ledger.dump(), end="")
    print(f"total supply {ledger.total_supply} (conserved)")
    return code


if __name__ == "__main__":
    sys.exit(main())
