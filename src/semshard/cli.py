"""Command-line harness: training runs, scenario sweeps, spot checks, demos.

Subcommands:
    train            train the sharding controller on one scenario
    sweep            adaptive-vs-baseline grid over node counts and rates
    eval-throughput  print the latency breakdown and throughput of one setting
    pos-demo         run one proof-of-semantic round on an in-memory ledger
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import consensus
from .config import (DEFAULT_GRID, RunConfig, config_hash, load_config,
                     parse_grid, read_manifest, write_manifest)
from .core import (MAX_ARRAY_BYTES, ConfigError, Content,
                   InvalidShardingError, Rng, VerifierNode)
from .dqn import TrainRow, save_network, train
from .env import ShardEnv, run_baseline
from .throughput import round_latency, throughput

REWARDS_CSV_HEADER = "epoch,mean_reward,epsilon,mean_loss"
SWEEP_CSV_HEADER = "nodes,rate_max,seed,policy,epoch,mean_reward"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semshard",
        description="Sharded oracle-network simulator with an adaptive "
                    "DQN sharding controller.")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("config", nargs="?",
                        help="config file (defaults reproduce the reference scenario)")

    p_train = sub.add_parser("train", parents=[common], help="train one scenario")
    p_train.add_argument("--seed", type=int, help="override network.seed")
    p_train.add_argument("--out", required=True, help="output directory")
    p_train.set_defaults(func=cmd_train)

    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="grid sweep: adaptive vs static-max")
    p_sweep.add_argument("--grid", default=DEFAULT_GRID,
                         help="rates in Mbps; an axis left out keeps its "
                              "default (default: '%(default)s')")
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--workers", type=int, default=_usable_cpus(),
                         help="parallel cell workers (default: usable CPUs)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_eval = sub.add_parser("eval-throughput", parents=[common],
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

    p_demo = sub.add_parser("pos-demo", parents=[common],
                            help="one proof-of-semantic verification round")
    p_demo.add_argument("--verifiers", type=int, default=5)
    p_demo.add_argument("--mechanism", required=True,
                        choices=("offchain", "interactive", "commitment"))
    p_demo.add_argument("--seed", type=int, help="override network.seed")
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


def _seeded(cfg: RunConfig, seed: int | None) -> RunConfig:
    """cfg with network.seed replaced by --seed, if that was given."""
    return cfg if seed is None else replace(
        cfg, network=replace(cfg.network, seed=seed))


def cmd_train(args) -> int:
    cfg = _seeded(load_config(args.config), args.seed)
    out = _prepare_out(args.out)
    _write_run(cfg, out, "adaptive")
    print(f"trained {cfg.agent.epochs} epochs, seed {cfg.network.seed}, "
          f"config {config_hash(cfg)[:12]} -> {out}")
    return 0


@contextlib.contextmanager
def _manifest_last(out: Path, cfg: RunConfig, outputs: list[str]):
    """Delete out's manifest, run the block that writes the outputs, then
    write their manifest: a cut-off run leaves none for another config."""
    (out / "manifest.json").unlink(missing_ok=True)
    yield
    write_manifest(out / "manifest.json", cfg, outputs)


def _write_run(cfg: RunConfig, out: Path, policy: str) -> None:
    """Run one policy on Rng(cfg.network.seed) and write it into out:
    network.bin (adaptive only), rewards.csv, and the manifest last."""
    adaptive = policy == "adaptive"
    outputs = ["rewards.csv", "network.bin"] if adaptive else ["rewards.csv"]
    with _manifest_last(out, cfg, outputs):
        rng = Rng(cfg.network.seed)
        if adaptive:
            net, rows = train(ShardEnv(cfg.network), cfg.agent, rng)
            save_network(net, out / "network.bin")
        else:
            means = run_baseline(cfg.network, cfg.agent.epochs, rng)
            rows = [TrainRow(i, m, 0.0, 0.0) for i, m in enumerate(means)]
        write_csv(out / "rewards.csv", REWARDS_CSV_HEADER,
                  ([r.epoch, repr(r.mean_reward), repr(r.epsilon),
                    repr(r.mean_loss)] for r in rows))


def run_sweep_cell(cfg: RunConfig, out_dir: str,
                   policy: str) -> list[tuple[int, float]]:
    """Run (or resume) one sweep cell; returns its (epoch, mean_reward) rows.

    A cell is fully determined by its config and policy, so the result is
    the same whether cells run serially or in parallel. A cell is reused
    as-is only when it is complete: its manifest carries this config's hash
    and every output it lists is a file in the cell. Any other is
    recomputed, as is one whose manifest cannot be read.
    """
    net = cfg.network
    cell = (Path(out_dir) / "cells"
            / f"n{net.nodes_initial}_r{net.rate_max}_s{net.seed}_{policy}")
    if not _complete(cell, config_hash(cfg)):
        cell.mkdir(parents=True, exist_ok=True)
        _write_run(cfg, cell, policy)
    return _read_reward_rows(cell / "rewards.csv")


def _complete(cell: Path, cfg_hash: str) -> bool:
    """Whether the cell can be served as it is: its manifest carries
    cfg_hash, and its outputs, a list of names, are all files in the cell,
    rewards.csv among them. False also if the manifest is absent, is JSON
    but not an object, or is not JSON because a killed run cut it short."""
    try:
        manifest = read_manifest(cell / "manifest.json")
        outputs = manifest["outputs"]
        return (manifest["config_hash"] == cfg_hash
                and isinstance(outputs, list)
                and all((cell / name).is_file()
                        for name in ["rewards.csv", *outputs]))
    except (OSError, ValueError, KeyError, TypeError):
        return False


def write_csv(path: Path, header: str, rows) -> None:
    """The one writer of every CSV a run writes: the comma-joined header
    line, then rows, every line ending in a bare LF on any platform."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _read_reward_rows(path: Path) -> list[tuple[int, float]]:
    with open(path) as fh:
        reader = csv.DictReader(fh)
        return [(int(r["epoch"]), float(r["mean_reward"])) for r in reader]


def _usable_cpus() -> int:
    # os.cpu_count() also counts CPUs this process may not run on
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _cell_worker(payload):
    return run_sweep_cell(*payload)


def cmd_sweep(args) -> int:
    if args.workers < 1:
        raise ConfigError("--workers: must be at least 1")
    base = load_config(args.config)
    # building every cell's config checks it before any cell runs
    cells = [RunConfig(network=replace(base.network, nodes_initial=nodes,
                                       rate_max=rate, seed=seed),
                       agent=base.agent)
             for nodes, rate, seed in parse_grid(args.grid).cells()]
    out = _prepare_out(args.out)

    jobs = [(cfg, str(out), policy)
            for cfg in cells for policy in ("adaptive", "baseline")]
    # the pool starts all its workers at once, so no more than there are
    # jobs or CPUs to run them; cells are deterministic, so this moves no byte
    workers = min(args.workers, len(jobs), _usable_cpus())
    with _manifest_last(out, base, ["sweep.csv"]):
        if workers > 1:
            # imported here: the pool stack (multiprocessing, socket,
            # subprocess, logging) costs every other run 10-20 ms of start-up
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_cell_worker, jobs))
        else:
            results = [_cell_worker(job) for job in jobs]
        write_csv(out / "sweep.csv", SWEEP_CSV_HEADER,
                  ([cfg.network.nodes_initial, cfg.network.rate_max,
                    cfg.network.seed, policy, epoch, repr(mean_reward)]
                   for (cfg, _, policy), rows in zip(jobs, results)
                   for epoch, mean_reward in rows))
    print(f"sweep complete: {len(jobs)} cells -> {out / 'sweep.csv'}")
    return 0


def cmd_eval_throughput(args) -> int:
    for flag, value in (("--rate", args.rate), ("--sem-time", args.sem_time)):
        if not math.isfinite(value):
            raise ConfigError(f"{flag}: must be finite")
    if args.rate <= 0:
        raise ConfigError("--rate: must be strictly positive")
    if args.sem_time < 0:
        raise ConfigError("--sem-time: must be non-negative")
    cfg = load_config(args.config).network
    if args.msg_size < cfg.tx_size:
        # the rule a config's message_size_min keeps: one message holds at
        # least one transaction
        raise ConfigError(f"--msg-size: must be >= tx_size ({cfg.tx_size})")
    if not 1 <= args.shards <= args.nodes // cfg.min_shard_size:
        # partition's rule, without building its list of --shards sizes
        raise ConfigError(f"--shards: cannot split {args.nodes} nodes into "
                          f"{args.shards} shards of at least "
                          f"{cfg.min_shard_size}")
    try:
        lat = round_latency(args.shards, args.msg_size, args.nodes, args.rate,
                            args.sem_time, args.reconfigured, cfg)
        overflow = not math.isfinite(lat.t_round)
    except OverflowError:  # an int --nodes or --msg-size past float range
        overflow = True
    if overflow:
        raise ConfigError(
            "--rate: t_round overflows at this --rate, --nodes and --msg-size")
    tps = throughput(args.shards, args.msg_size, lat.t_round, cfg)
    for name, value in (("t_config", lat.t_config), ("t_prop", lat.t_prop),
                        ("t_intra", lat.t_intra), ("t_inter", lat.t_inter),
                        ("t_round", lat.t_round)):
        print(f"{name:9s} {value:.6f} s")
    print(f"tps       {tps:.6f}")
    return 0


def cmd_pos_demo(args) -> int:
    if args.verifiers < 1:
        raise ConfigError("--verifiers: must be at least 1")
    cfg = _seeded(load_config(args.config), args.seed).network
    # a verifier holds two float64 vectors, its knowledge and its result,
    # and about 700 bytes more with its ledger entry, as tracemalloc measured
    # 200,000 verifiers at dims 8 and 64 on CPython 3.11, rounded up to 1,024
    nbytes = args.verifiers * (1024 + 16 * cfg.semantic_dim)
    if nbytes > MAX_ARRAY_BYTES:
        raise ConfigError(f"--verifiers: {args.verifiers} verifiers would "
                          f"take {nbytes} bytes, more than {MAX_ARRAY_BYTES}")
    rng = Rng(cfg.seed)

    truth = rng.normal(1.0, cfg.semantic_dim)
    truth /= np.linalg.norm(truth)
    content = Content(id=0, truth=truth, reward_pool=120, bond=25)

    verifiers = []
    for i in range(args.verifiers):
        spread = 1.5 * i / max(1, args.verifiers - 1)
        raw = truth + spread * rng.normal(1.0, cfg.semantic_dim)
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
                  f"(threshold {cfg.accuracy_threshold}); {share} tokens each")
    elif args.mechanism == "interactive":
        solver, challenger = results[-1], results[0]
        outcome = consensus.interactive_challenge(solver, challenger, truth,
                                                  content.bond, ledger)
        print(f"challenge: solver {solver.verifier_id} vs challenger "
              f"{challenger.verifier_id} -> {outcome.winner} wins, "
              f"bond {content.bond} transferred")
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
