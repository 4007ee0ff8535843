"""The three workloads. Each is a closed loop in one process that repeats
one pass of identical work, checks the pass's outputs apart from the timed
part, and keeps the samples its metrics are taken from.

A pass is the unit the run repeats until its time is up:
    adaptive-train  one `semshard train` of 200 epochs on the default config
    sweep           `semshard sweep` of both policies over a reduced grid,
                    serially, an unchanged rerun into the same --out, and an
                    untimed rerun of one cell with agent.epochs changed
    pos-rounds      twelve proof-of-semantic rounds, four each at 5, 50 and
                    200 verifiers, on one Ledger

Every pass of a run repeats the same inputs, so counts per pass are exact
and the outputs of every pass must have the same digests.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import resource
import shutil
from dataclasses import asdict, replace
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

import checks
from semshard import cli, consensus, dqn, env as env_mod
from semshard.config import load_config, parse_grid
from semshard.core import Content, Rng, VerifierNode

# Every timed region reads this clock. run.py points it at a SpeedClock's
# host-speed-corrected seconds for the passes that the end-to-end metrics
# are taken from; traced runs keep wall time.
clock = perf_counter


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run_cli(argv: list[str]) -> None:
    """Run a semshard subcommand in this process; its stdout is discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"semshard {' '.join(argv)} exited {code}")


class EpisodeCapture:
    """Checks each episode's EpisodeLog when the next reset replaces it, so
    that no log outlives its episode, and times the episodes.

    Installed on ShardEnv.reset. The check runs inside the caller's timed
    region: its time is added to `excluded` for the caller to take off, and
    `episode_s` holds each episode's time from its reset to the next one
    without the check. While `defer` is a list (traced passes), logs are
    kept in it instead, so that no check runs inside the env.reset span.
    """

    def __init__(self, on_episode):
        self.on_episode = on_episode
        self.env = None
        self.start = 0.0
        self.excluded = 0.0
        self.episode_s: list[float] = []
        self.defer = None
        self._original = env_mod.ShardEnv.__dict__["reset"]

    def install(self) -> None:
        original, capture = self._original, self

        def reset(env, rng):
            capture.close(timed=True)
            capture.env = env
            capture.start = clock()
            return original(env, rng)

        env_mod.ShardEnv.reset = reset

    def remove(self) -> None:
        env_mod.ShardEnv.reset = self._original

    def close(self, timed: bool) -> None:
        """Check the episode in progress, if any; with timed, keep its time."""
        if self.env is None:
            return
        t0 = clock()
        if timed:
            self.episode_s.append(t0 - self.start)
        log, self.env = self.env.log, None
        if self.defer is not None:
            self.defer.append(log)
        else:
            self.on_episode(log.records)
        self.excluded += clock() - t0

    def finish(self) -> float:
        """End a pass, after its timed region: check what is left, and
        return the seconds that checks took inside the timed region."""
        excluded = self.excluded
        self.close(timed=False)
        for log in self.defer or ():
            self.on_episode(log.records)
        self.excluded, self.defer = 0.0, None
        return excluded


class Workload:
    name = ""
    op = ""  # what one attempted operation is

    def __init__(self, seed: int, work: Path, nproc: int):
        self.seed = seed
        self.work = work
        self.nproc = nproc
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.walls: list[float] = []
        # run.py points these at the tracer for a traced pass; timed
        # regions run inside span() and keep their samples only untraced
        self.span = contextlib.nullcontext
        self.traced = False
        self.passes = 0
        self.digests: dict[str, str] = {}
        self.figures: dict[str, tuple[float, str]] = {}
        # peak RSS of the largest worker process, in MiB; 0 if none ran
        self.worker_rss_mb = 0.0

    def prepare(self) -> None:
        """Write the input files the set-up reads."""

    def build(self) -> None:
        """The set-up a user pays before the first operation: config load and
        construction of the env, networks and ledger."""

    def run_pass(self) -> float:
        """Run one pass; returns its timed seconds and checks its outputs."""
        raise NotImplementedError

    def untimed(self) -> None:
        """Work that follows each pass, outside the timing and the trace."""

    def wall_s(self) -> float:
        return median(self.walls)

    def ops_per_s(self) -> float:
        raise NotImplementedError

    def note(self, problems: list[str], context: str) -> None:
        self.problems.extend(f"{context}: {p}" for p in problems)

    def pin_digest(self, name: str, digest: str) -> None:
        """Every pass repeats the same inputs, so every digest must repeat."""
        if self.digests.setdefault(name, digest) != digest:
            self.problems.append(f"{name} digest changed between passes")


class AdaptiveTrain(Workload):
    name = "adaptive-train"
    op = "epochs"
    EPOCHS = 200  # one criterion-3 cell
    TAIL = EPOCHS // 10  # epochs sim_tps_adaptive averages over

    def prepare(self) -> None:
        self.cfg_path = self.work / "adaptive.cfg"
        self.cfg_path.write_text(f"[agent]\nepochs = {self.EPOCHS}\n")

    def build(self) -> None:
        cfg = load_config(str(self.cfg_path), environ={})
        self.net = replace(cfg.network, seed=self.seed)
        self.agent = cfg.agent
        # what `semshard train` constructs before its first step
        env_mod.ShardEnv(self.net)
        est = dqn.QNetwork(env_mod.OBSERVATION_SIZE, self.agent.hidden_units,
                           env_mod.NUM_ACTIONS, Rng(self.seed))
        est.clone()
        dqn.ReplayBuffer(self.agent.buffer_capacity)
        self.net_dict = asdict(self.net)
        self.capture = EpisodeCapture(self.check_episode)
        self.capture.install()
        self.epoch_s: list[float] = []

    def check_episode(self, records) -> None:
        """Checks one epoch's rounds and keeps what the pass's checks need."""
        e = len(self.implied_means)
        self.note(checks.episode_problems(records, self.net_dict), f"epoch {e}")
        self.implied_means.append(
            checks.episode_mean_reward(records, self.net_dict))
        if e >= self.EPOCHS - self.TAIL:
            self.tail_tps += math.fsum(r.tps for r in records)
            self.tail_rounds += len(records)

    def run_pass(self) -> float:
        out = self.work / f"train-{self.passes}"
        self.implied_means: list[float] = []
        self.tail_tps, self.tail_rounds = 0.0, 0
        self.capture.defer = [] if self.traced else None
        with self.span():
            t0 = clock()
            run_cli(["train", str(self.cfg_path), "--seed", str(self.seed),
                     "--out", str(out)])
            wall = clock() - t0
        wall -= self.capture.finish()
        if not self.traced:
            self.epoch_s.extend(self.capture.episode_s)
        self.capture.episode_s = []
        self.attempted += self.EPOCHS
        self.check(out)
        shutil.rmtree(out)
        return wall

    def check(self, out: Path) -> None:
        agent = asdict(self.agent)
        if len(self.implied_means) != self.EPOCHS:
            self.problems.append(
                f"{len(self.implied_means)} episodes for {self.EPOCHS} epochs")
        text = (out / "rewards.csv").read_text()
        self.note(checks.rewards_csv_problems(text, agent, "adaptive"),
                  "rewards.csv")
        _, rows = checks.parse_rewards_csv(text)
        self.note(checks.mean_reward_problems(
            [float(r["mean_reward"]) for r in rows], self.implied_means),
            "rewards.csv")
        dims = (env_mod.OBSERVATION_SIZE, self.agent.hidden_units,
                env_mod.NUM_ACTIONS)
        self.note(network_problems(out / "network.bin", dims, self.work),
                  "network.bin")
        manifest = json.loads((out / "manifest.json").read_text())
        self.note(checks.manifest_problems(
            manifest, {"network": self.net_dict, "agent": agent}),
            "manifest.json")
        self.figures["sim_tps_adaptive"] = (
            self.tail_tps / max(1, self.tail_rounds), "tx/s")
        self.pin_digest("rewards.csv", sha256_file(out / "rewards.csv"))
        self.pin_digest("network.bin", sha256_file(out / "network.bin"))

    def ops_per_s(self) -> float:
        epochs_per_s = 1.0 / median(self.epoch_s)
        self.figures["env_steps_per_s"] = (
            epochs_per_s * self.net.rounds_per_episode, "1/s")
        return epochs_per_s


def network_problems(path: Path, dims, scratch: Path) -> list[str]:
    """Layout check, then load and save again: the bytes must round-trip."""
    data = path.read_bytes()
    problems = checks.network_file_problems(data, dims)
    if problems:
        return problems
    net = dqn.load_network(path)
    loaded = [np.ascontiguousarray(a, dtype="<f8").tobytes()
              for a in (net.w1, net.b1, net.w2, net.b2)]
    if loaded != checks.network_arrays(data):
        problems.append("loaded parameters differ from the file's bytes")
    again = scratch / "roundtrip.bin"
    dqn.save_network(net, again)
    if again.read_bytes() != data:
        problems.append("save(load(file)) is not byte-identical")
    again.unlink()
    return problems


class Sweep(Workload):
    name = "sweep"
    op = "cells"
    # The timed passes run the cells serially: on a shared host with nproc
    # cores, the makespan of nproc workers measures the scheduler more than
    # semshard. The pool runs once per run, untimed, in check_pool.
    EPOCHS = 10
    STALE_EPOCHS = 12
    # The stale-resume probe reruns this one cell; its inputs do not depend
    # on the seed, so the number of stale cells is the same in every run.
    STALE_GRID = "nodes=100;rates=60;seeds=1"

    def prepare(self) -> None:
        self.cfg_path = self.work / "sweep.cfg"
        self.cfg_path.write_text(
            f"[agent]\nepochs = {self.EPOCHS}\nepsilon_decay = true\n")
        self.stale_cfg_path = self.work / "sweep-stale.cfg"
        self.stale_cfg_path.write_text(
            f"[agent]\nepochs = {self.STALE_EPOCHS}\nepsilon_decay = true\n")
        self.grid = f"nodes=100,500;rates=60,100;seeds=1,{1000 + self.seed}"

    def build(self) -> None:
        self.cfg = load_config(str(self.cfg_path), environ={})
        self.stale_cfg = load_config(str(self.stale_cfg_path), environ={})
        self.cells = [(n, int(r), s, policy)
                      for n, r, s in parse_grid(self.grid).cells()
                      for policy in ("adaptive", "baseline")]
        self.stale_cells = [(n, int(r), s, policy)
                            for n, r, s in parse_grid(self.STALE_GRID).cells()
                            for policy in ("adaptive", "baseline")]
        self.resume_s: list[float] = []
        self.ratio = None
        self.cell_means: dict[str, list[float]] = {}
        # seconds of each run_sweep_cell call; per untraced pass, the fresh
        # cells' seconds in grid order and the rest of the pass's wall time
        self.cell_s: list[float] = []
        self.pass_cells: list[list[float]] = []
        self.rest_s: list[float] = []
        original = cli.run_sweep_cell

        def timed_cell(*args):
            t0 = clock()
            try:
                return original(*args)
            finally:
                self.cell_s.append(clock() - t0)

        cli.run_sweep_cell = timed_cell

    def run_pass(self) -> float:
        out = self.work / f"sweep-{self.passes}"
        argv = ["sweep", str(self.cfg_path), "--out", str(out),
                "--grid", self.grid, "--workers", "1"]
        self.cell_s = []
        with self.span():
            t0 = clock()
            run_cli(argv)
            wall = clock() - t0
        if len(self.cell_s) != len(self.cells):
            self.problems.append(f"{len(self.cell_s)} cells run for "
                                 f"{len(self.cells)} in the grid")
        elif not self.traced:
            self.pass_cells.append(self.cell_s)
            self.rest_s.append(wall - math.fsum(self.cell_s))
        self.attempted += len(self.cells)
        self.check_fresh(out)

        before = (out / "sweep.csv").read_bytes()
        with self.span():
            t0 = clock()
            run_cli(argv)
            resume = clock() - t0
        if not self.traced:
            self.resume_s.append(resume)
        self.attempted += len(self.cells)
        if (out / "sweep.csv").read_bytes() != before:
            self.problems.append("unchanged rerun changed sweep.csv")
        self.failed += self.served_mismatches(out, self.cfg, self.cells)
        return wall

    def untimed(self) -> None:
        """Rerun one cell with agent.epochs changed into this pass's --out.

        A resumed sweep must not serve a cell computed under another config:
        every served cell whose manifest does not match the requested config
        is a failed operation.
        """
        out = self.work / f"sweep-{self.passes}"
        if self.passes == 0:
            self.check_baseline_cells()
            self.check_pool(out)
        run_cli(["sweep", str(self.stale_cfg_path), "--out", str(out),
                 "--grid", self.STALE_GRID, "--workers", "1"])
        self.attempted += len(self.stale_cells)
        self.failed += self.served_mismatches(out, self.stale_cfg,
                                              self.stale_cells)
        shutil.rmtree(out)

    def check_pool(self, serial_out: Path) -> None:
        """Run the same sweep on a pool of nproc workers (at least two): cells
        are fully determined by their inputs, so sweep.csv must be the serial
        pass's, byte for byte."""
        out = self.work / "sweep-pool"
        run_cli(["sweep", str(self.cfg_path), "--out", str(out),
                 "--grid", self.grid, "--workers", str(max(2, self.nproc))])
        # read before any other child ends: a worker is forked, so this
        # counts the pages it shares with this process too
        self.worker_rss_mb = resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        if (out / "sweep.csv").read_bytes() != (serial_out / "sweep.csv").read_bytes():
            self.problems.append("sweep.csv from the worker pool differs "
                                 "from the serial sweep's")
        shutil.rmtree(out)

    def check_baseline_cells(self) -> None:
        """Run each baseline cell again in this process, where its rounds can
        be seen: every round must match the closed form, and the episode
        means must be the cell's rewards.csv. Every later pass must write the
        same sweep.csv (pin_digest), so checking the first pass covers all."""
        tps, rounds = 0.0, 0
        for nodes, rate, seed, policy in self.cells:
            if policy != "baseline":
                continue
            network = replace(self.cfg.network, nodes_initial=nodes,
                              rate_max=rate, seed=seed)
            net = asdict(network)
            k_fixed = nodes // network.min_shard_size
            where = f"n{nodes}_r{rate}_s{seed}_baseline"
            implied: list[float] = []

            def check_episode(records):
                nonlocal tps, rounds
                self.note(checks.episode_problems(records, net, k_fixed),
                          f"{where} episode {len(implied)}")
                implied.append(checks.episode_mean_reward(records, net))
                tps += math.fsum(r.tps for r in records)
                rounds += len(records)

            capture = EpisodeCapture(check_episode)
            capture.install()
            try:
                means = env_mod.run_baseline(network, self.EPOCHS, Rng(seed))
                capture.finish()
            finally:
                capture.remove()
            self.note(checks.mean_reward_problems(means, implied), where)
            if means != self.cell_means[where]:
                self.problems.append(f"{where}: rewards.csv is not what "
                                     "run_baseline returns for the cell")
        self.figures["sim_tps_static"] = (tps / rounds, "tx/s")

    def expected_config(self, base, nodes, rate, seed) -> dict:
        network = replace(base.network, nodes_initial=nodes, rate_max=rate,
                          seed=seed)
        return {"network": asdict(network), "agent": asdict(base.agent)}

    def served_mismatches(self, out: Path, base, cells) -> int:
        mismatches = 0
        for nodes, rate, seed, policy in cells:
            cell = out / "cells" / f"n{nodes}_r{rate}_s{seed}_{policy}"
            manifest = json.loads((cell / "manifest.json").read_text())
            integrity = checks.manifest_problems(manifest)
            self.note(integrity, cell.name)
            if not integrity and checks.manifest_problems(
                    manifest, self.expected_config(base, nodes, rate, seed)):
                mismatches += 1
        return mismatches

    def check_fresh(self, out: Path) -> None:
        agent = asdict(self.cfg.agent)
        dims = (env_mod.OBSERVATION_SIZE, self.cfg.agent.hidden_units,
                env_mod.NUM_ACTIONS)
        expected_rows = []
        for nodes, rate, seed, policy in self.cells:
            cell = out / "cells" / f"n{nodes}_r{rate}_s{seed}_{policy}"
            manifest = json.loads((cell / "manifest.json").read_text())
            self.note(checks.manifest_problems(
                manifest, self.expected_config(self.cfg, nodes, rate, seed)),
                cell.name)
            text = (cell / "rewards.csv").read_text()
            self.note(checks.rewards_csv_problems(text, agent, policy),
                      cell.name)
            _, rows = checks.parse_rewards_csv(text)
            self.cell_means[cell.name] = [float(r["mean_reward"]) for r in rows]
            expected_rows += [[str(nodes), str(rate), str(seed), policy,
                               r["epoch"], r["mean_reward"]] for r in rows]
            if policy == "adaptive":
                self.note(network_problems(cell / "network.bin", dims,
                                           self.work), cell.name)
        with open(out / "sweep.csv") as fh:
            table = list(csv.reader(fh))
        if table[0] != cli.SWEEP_CSV_HEADER.split(",") or table[1:] != expected_rows:
            self.problems.append("sweep.csv is not the cells' rows in grid order")
        top = json.loads((out / "manifest.json").read_text())
        self.note(checks.manifest_problems(
            top, {"network": asdict(self.cfg.network), "agent": agent}),
            "sweep manifest")
        self.pin_digest("sweep.csv", sha256_file(out / "sweep.csv"))
        if self.ratio is None:
            self.ratio = adaptive_over_static(table[1:], self.EPOCHS)

    def wall_s(self) -> float:
        """A fresh pass's time put together from the medians of its parts:
        each cell's median over the passes, plus the median of the rest
        (config load, sweep.csv and manifests). A burst of slowness on a
        shared host lands on a few cells of one pass, and the medians leave
        it out."""
        return median(self.rest_s) + math.fsum(
            median(cell) for cell in zip(*self.pass_cells))

    def ops_per_s(self) -> float:
        cells_per_s = len(self.cells) / self.wall_s()
        steps = (len(self.cells) * self.EPOCHS
                 * self.cfg.network.rounds_per_episode)
        ratio, ge = self.ratio
        self.figures.update({
            "cells_per_s": (cells_per_s, "1/s"),
            "resume_s": (median(self.resume_s), "s"),
            "env_steps_per_s": (steps / self.wall_s(), "1/s"),
            "adaptive_over_static": (ratio, "ratio"),
            "cells_adaptive_ge_static": (ge, "count"),
        })
        return cells_per_s


def adaptive_over_static(rows, epochs: int) -> tuple[float, int]:
    """Criterion 3's quantity on this grid: per (nodes, rate, seed), the mean
    reward over the last quarter of epochs, adaptive over baseline. Returns
    the mean ratio and the number of cells where adaptive >= baseline."""
    tail = max(1, epochs // 4)
    runs: dict = {}
    for nodes, rate, seed, policy, epoch, reward in rows:
        runs.setdefault((nodes, rate, seed), {}).setdefault(policy, []).append(
            (int(epoch), float(reward)))
    ratios, ge = [], 0
    for by_policy in runs.values():
        a, b = (np.mean([m for _, m in sorted(by_policy[p])[-tail:]])
                for p in ("adaptive", "baseline"))
        ratios.append(a / b)
        ge += a >= b
    return float(np.mean(ratios)), ge


class PosRounds(Workload):
    name = "pos-rounds"
    op = "rounds"
    SIZES = (5, 50, 200)
    # one content each per size and pass: (sign, drift) from the topic
    CONTENTS = ((1, 0.3), (1, 0.8), (1, 1.5), (-1, 0.3))
    POOL, BOND, PROOF_FEE = 1000, 25, 10
    MINT = 10**12

    def prepare(self) -> None:
        # noisier verifiers than the default 0.5, so that contents far from
        # the verifiers' knowledge are rejected
        self.cfg_path = self.work / "pos.cfg"
        self.cfg_path.write_text("[network]\nnoise_sigma = 1.0\n")

    def build(self) -> None:
        cfg = load_config(str(self.cfg_path), environ={}).network
        self.threshold, self.sigma = cfg.accuracy_threshold, cfg.noise_sigma
        d = cfg.semantic_dim
        gen = np.random.default_rng(self.seed)
        unit = lambda v: v / np.linalg.norm(v)  # noqa: E731
        self.ledger = consensus.Ledger()
        self.ledger.mint("producer", self.MINT)
        self.books = {"producer": self.MINT}
        self.minted = self.MINT
        self.groups = []
        for g, size in enumerate(self.SIZES):
            topic = unit(gen.normal(size=d))
            verifiers = []
            for i in range(size):
                spread = 1.5 * i / max(1, size - 1)
                vid = 10_000 * g + i
                verifiers.append(VerifierNode(
                    id=vid, knowledge=unit(topic + spread * gen.normal(size=d))))
                self.ledger.mint(vid, self.MINT)
                self.books[vid] = self.MINT
                self.minted += self.MINT
            # contents drift from the verifiers' common topic by growing
            # amounts; the last one opposes it, so few verifiers reach the
            # threshold on it and small groups reject it
            contents = [(Content(id=100 * g + j,
                                 truth=unit(sign * topic
                                            + drift * gen.normal(size=d)),
                                 reward_pool=self.POOL, bond=self.BOND),
                         gen.bytes(16))
                        for j, (sign, drift) in enumerate(self.CONTENTS)]
            self.groups.append((verifiers, contents))
        self.round_ms = {size: [] for size in self.SIZES}
        self.rejected = 0

    def run_pass(self) -> float:
        rng = Rng(self.seed)  # the program's own noise stream, same every pass
        self.outcomes = hashlib.sha256()
        wall = 0.0
        r = 0
        for size, (verifiers, contents) in zip(self.SIZES, self.groups):
            ids = [v.id for v in verifiers]
            for content, salt in contents:
                with self.span():
                    t0 = clock()
                    outcome = self.pos_round(verifiers, ids, content, salt,
                                             r, rng)
                    dt = clock() - t0
                wall += dt
                if not self.traced:
                    self.round_ms[size].append(dt * 1e3)
                self.attempted += 1
                self.check(verifiers, ids, content, salt, r, outcome)
                r += 1
        self.pin_digest("round outcomes", self.outcomes.hexdigest())
        return wall

    def pos_round(self, verifiers, ids, content, salt, r, rng) -> dict:
        truth = content.truth
        leader = consensus.select_leader(ids, r)
        results = [consensus.simulate_verification(v, content, rng, self.sigma)
                   for v in verifiers]
        for res in results:
            consensus.score_accuracy(res, truth)
        try:
            report = consensus.offchain_aggregate(results, truth, self.threshold)
        except consensus.AggregationFailure:
            report = None
        else:
            consensus.distribute_rewards(report, content.reward_pool,
                                         "producer", self.ledger)
        solver = results[r % len(results)]
        challenger = results[(r + 1) % len(results)]
        challenge = consensus.interactive_challenge(
            solver, challenger, truth, content.bond, self.ledger)
        vector = report.aggregated if report is not None else results[0].vector
        commitment = consensus.commit(vector, salt)
        honest = consensus.verify_commitment(commitment, vector, salt)
        if honest:
            self.ledger.transfer("producer", results[0].verifier_id,
                                 self.PROOF_FEE)
        tampered = vector.copy()
        tampered[0] = np.nextafter(tampered[0], np.inf)
        forged = consensus.verify_commitment(commitment, tampered, salt)
        return {"leader": leader, "results": results, "report": report,
                "solver": solver, "challenger": challenger,
                "challenge": challenge, "vector": vector,
                "commitment": commitment, "honest": honest, "forged": forged}

    def check(self, verifiers, ids, content, salt, r, o) -> None:
        where = f"round {r} ({len(verifiers)} verifiers)"
        truth = [float(x) for x in content.truth]
        out = []
        if o["leader"] != sorted(ids)[r % len(ids)]:
            out.append(f"leader {o['leader']} is not round-robin")
        vectors = {res.verifier_id: [float(x) for x in res.vector]
                   for res in o["results"]}
        for res in o["results"]:
            if abs(res.accuracy - checks.cosine(vectors[res.verifier_id],
                                                truth)) > 1e-12:
                out.append(f"verifier {res.verifier_id}: accuracy is not "
                           "the cosine to the truth")
        report = o["report"]
        paid = None if report is None else report.contributors
        out += checks.contributor_problems(vectors, truth, self.threshold, paid)
        if report is None:
            self.rejected += 1
        else:
            share = content.reward_pool // len(paid)
            for vid in paid:
                self.books[vid] += share
            self.books["producer"] -= share * len(paid)
        solver, challenger = o["solver"], o["challenger"]
        winner = checks.challenge_winner(vectors[solver.verifier_id],
                                         vectors[challenger.verifier_id], truth)
        if winner is not None and o["challenge"].winner != winner:
            out.append(f"challenge went to the {o['challenge'].winner}")
        won = o["challenge"].winner == "challenger"
        loser, gainer = (solver, challenger) if won else (challenger, solver)
        self.books[loser.verifier_id] -= content.bond
        self.books[gainer.verifier_id] += content.bond
        vector = [float(x) for x in o["vector"]]
        if o["commitment"].digest != checks.commitment_digest(vector, salt):
            out.append("commitment digest is not SHA-256(le f64 || salt)")
        if not o["honest"]:
            out.append("honest reveal rejected")
        else:
            self.books["producer"] -= self.PROOF_FEE
            self.books[o["results"][0].verifier_id] += self.PROOF_FEE
        if o["forged"]:
            out.append("one-ulp tampered reveal accepted")
        out += checks.ledger_problems(self.ledger, self.books, self.minted)
        self.note(out, where)
        self.outcomes.update(repr((sorted(paid or ()), o["challenge"].winner,
                                   o["commitment"].digest)).encode())

    def ops_per_s(self) -> float:
        for size in self.SIZES:
            self.figures[f"round_ms_{size}_verifiers"] = (
                median(self.round_ms[size]), "ms")
        rounds = len(self.SIZES) * len(self.CONTENTS)
        self.figures["pos_rounds_per_s"] = (rounds / median(self.walls), "1/s")
        self.figures["contents_rejected_per_pass"] = (
            self.rejected / self.passes, "count")
        return rounds / median(self.walls)


WORKLOADS = {w.name: w for w in (AdaptiveTrain, Sweep, PosRounds)}
