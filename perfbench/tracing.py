"""Span recorder for the traced run.

While installed, wrappers around semshard's public functions and methods
record one span per call: a name, start and end times, and the index of the
enclosing span. Spans stay in memory in flat arrays and are written out when
the run ends. A wrapper is installed on the name a caller looks up, which for
functions imported by name is the caller's module (semshard.env.round_latency,
not semshard.throughput.round_latency).
"""

from __future__ import annotations

import contextlib
import functools
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.last_compute = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _arrays(self) -> dict:
        return {"name_ids": np.frombuffer(self.name_ids, dtype=np.int32),
                "parents": np.frombuffer(self.parents, dtype=np.int32),
                "starts": np.frombuffer(self.starts, dtype=np.float64),
                "ends": np.frombuffer(self.ends, dtype=np.float64)}

    def save(self, path: Path) -> None:
        np.savez(path, **self._arrays(), names=np.array(self.names))

    def table(self) -> tuple[dict, Counter]:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children.
        """
        stats: dict[str, list] = {}
        _accumulate(stats, self.names, **self._arrays())
        return stats, Counter(self.counts)


def _accumulate(stats, names, name_ids, parents, starts, ends) -> None:
    if len(starts) == 0:
        return
    durations = ends - starts
    nested = parents >= 0
    child = np.bincount(parents[nested], weights=durations[nested],
                        minlength=len(durations))
    own = durations - child
    calls = np.bincount(name_ids, minlength=len(names))
    total = np.bincount(name_ids, weights=durations, minlength=len(names))
    self_time = np.bincount(name_ids, weights=own, minlength=len(names))
    for i, name in enumerate(names):
        if calls[i]:
            row = stats.setdefault(str(name), [0, 0.0, 0.0])
            row[0] += int(calls[i])
            row[1] += float(total[i])
            row[2] += float(self_time[i])


def traced(rec: Recorder, name: str, fn, after=None, error=None):
    """Wrap fn so each call records a span; after(rec, index, args, result)
    runs on return and error(rec, exc) on an exception, which re-raises."""
    nid = rec.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = len(rec.starts)
        rec.name_ids.append(nid)
        rec.parents.append(rec.stack[-1] if rec.stack else -1)
        rec.ends.append(0.0)
        rec.stack.append(i)
        rec.starts.append(perf_counter())
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            rec.ends[i] = perf_counter()
            rec.stack.pop()
            if error is not None:
                error(rec, exc)
            raise
        rec.ends[i] = perf_counter()
        rec.stack.pop()
        if after is not None:
            after(rec, i, args, result)
        return result

    return wrapper


def _count_step(rec, i, args, result):
    info = result[3]
    rec.counts["env.steps"] += 1
    rec.counts["env.reconfigurations"] += bool(info["reconfigured"])
    rec.counts["env.clamped_steps"] += bool(info["clamped"])


def _count_ratify(rec, i, args, result):
    rec.counts["consensus.ratify_accepted"] += bool(result)


def _count_grad_step(rec, i, args, result):
    rec.counts["dqn.grad_steps"] += result is not None


def _mark_compute(rec, i, args, result):
    rec.last_compute = i


def _label_cell(rec, i, args, result):
    # a cell that neither trained nor ran the baseline was served from disk
    if rec.last_compute < i:
        rec.name_ids[i] = rec.name_id("cli.reused_cell")


def _count_rejection(rec, exc):
    if type(exc).__name__ == "AggregationFailure":
        rec.counts["consensus.contents_rejected"] += 1


def span_points(semshard_modules) -> list[tuple]:
    """(owner, attribute, span name, after, error) for every traced call site."""
    cli, consensus, core, dqn, env = semshard_modules
    return [
        (cli, "cmd_sweep", "cli.cmd_sweep", None, None),
        (cli, "run_sweep_cell", "cli.run_sweep_cell", _label_cell, None),
        (cli, "load_config", "config.load_config", None, None),
        (cli, "write_manifest", "config.write_manifest", None, None),
        (cli, "train", "dqn.train", _mark_compute, None),
        (cli, "save_network", "dqn.save_network", None, None),
        (cli, "run_baseline", "env.run_baseline", _mark_compute, None),
        (dqn, "act", "dqn.act", None, None),
        (dqn, "train_step", "dqn.train_step", _count_grad_step, None),
        (dqn, "td_targets", "dqn.td_targets", None, None),
        (dqn, "loss_and_gradients", "dqn.loss_and_gradients", None, None),
        (dqn, "sync_target", "dqn.sync_target", None, None),
        (dqn.ReplayBuffer, "push", "dqn.replay_push", None, None),
        (dqn.ReplayBuffer, "sample", "dqn.replay_sample", None, None),
        (env.ShardEnv, "reset", "env.reset", None, None),
        (env.ShardEnv, "step", "env.step", _count_step, None),
        (env.ShardEnv, "force_setting", "env.force_setting", _count_step, None),
        (env.ShardEnv, "observe", "env.observe", None, None),
        (env, "clamp_sharding", "core.clamp_sharding", None, None),
        (env, "make_sharding_state", "core.make_sharding_state", None, None),
        (core, "partition", "core.partition", None, None),
        (env, "round_latency", "throughput.round_latency", None, None),
        (env, "throughput", "throughput.throughput", None, None),
        (env, "select_leader", "consensus.select_leader", None, None),
        (env, "ratify_setting", "consensus.ratify_setting", _count_ratify, None),
        (consensus, "select_leader", "consensus.select_leader", None, None),
        (consensus, "simulate_verification", "consensus.simulate_verification",
         None, None),
        (consensus, "score_accuracy", "consensus.score_accuracy", None, None),
        (consensus, "offchain_aggregate", "consensus.offchain_aggregate",
         None, _count_rejection),
        (consensus, "distribute_rewards", "consensus.distribute_rewards",
         None, None),
        (consensus, "interactive_challenge", "consensus.interactive_challenge",
         None, None),
        (consensus, "commit", "consensus.commit", None, None),
        (consensus, "verify_commitment", "consensus.verify_commitment",
         None, None),
        (consensus.Ledger, "transfer", "consensus.ledger_transfer", None, None),
    ]


class Tracer:
    """Owns the Recorder and installs the wrappers around a traced block."""

    def __init__(self, semshard_modules):
        self.rec = Recorder()
        self.points = span_points(semshard_modules)

    @contextlib.contextmanager
    def active(self):
        saved = []
        try:
            for owner, attr, name, after, error in self.points:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr,
                        traced(self.rec, name, original, after, error))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


# Per-layer metric name -> (span name, statistic, scale). "incl" is mean
# inclusive time per call, "self" mean self time per call, "calls" the number
# of calls per pass; counts come from Recorder.counts, per pass.
LAYER_METRICS = {
    "dqn.act_us": ("dqn.act", "incl", 1e6),
    "dqn.train_step_us": ("dqn.train_step", "incl", 1e6),
    "dqn.replay_push_us": ("dqn.replay_push", "incl", 1e6),
    "dqn.replay_sample_us": ("dqn.replay_sample", "incl", 1e6),
    "dqn.td_targets_us": ("dqn.td_targets", "incl", 1e6),
    "dqn.loss_and_gradients_us": ("dqn.loss_and_gradients", "incl", 1e6),
    "dqn.sgd_update_us": ("dqn.train_step", "self", 1e6),
    "dqn.sync_target_us": ("dqn.sync_target", "incl", 1e6),
    "dqn.save_network_us": ("dqn.save_network", "incl", 1e6),
    "env.step_us": ("env.step", "incl", 1e6),
    "env.force_setting_us": ("env.force_setting", "incl", 1e6),
    "env.observe_us": ("env.observe", "incl", 1e6),
    "env.reset_us": ("env.reset", "incl", 1e6),
    "core.make_sharding_state_us": ("core.make_sharding_state", "incl", 1e6),
    "core.clamp_sharding_us": ("core.clamp_sharding", "incl", 1e6),
    "core.partition_us": ("core.partition", "incl", 1e6),
    "throughput.round_latency_us": ("throughput.round_latency", "incl", 1e6),
    "throughput.throughput_us": ("throughput.throughput", "incl", 1e6),
    "consensus.select_leader_us": ("consensus.select_leader", "incl", 1e6),
    "consensus.ratify_setting_us": ("consensus.ratify_setting", "incl", 1e6),
    "consensus.ratify_calls": ("consensus.ratify_setting", "calls", 1),
    "consensus.ratify_accepted": ("consensus.ratify_accepted", "count", 1),
    "config.load_config_us": ("config.load_config", "incl", 1e6),
    "config.write_manifest_us": ("config.write_manifest", "incl", 1e6),
    "cli.run_sweep_cell_ms": ("cli.run_sweep_cell", "incl", 1e3),
    "cli.reused_cell_us": ("cli.reused_cell", "incl", 1e6),
    "consensus.simulate_verification_us":
        ("consensus.simulate_verification", "incl", 1e6),
    "consensus.score_accuracy_us": ("consensus.score_accuracy", "incl", 1e6),
    "consensus.offchain_aggregate_us":
        ("consensus.offchain_aggregate", "incl", 1e6),
    "consensus.distribute_rewards_us":
        ("consensus.distribute_rewards", "incl", 1e6),
    "consensus.interactive_challenge_us":
        ("consensus.interactive_challenge", "incl", 1e6),
    "consensus.commit_us": ("consensus.commit", "incl", 1e6),
    "consensus.verify_commitment_us": ("consensus.verify_commitment", "incl", 1e6),
    "consensus.ledger_transfer_us": ("consensus.ledger_transfer", "incl", 1e6),
}


def layer_metrics(stats: dict, counts: Counter, passes: int) -> dict:
    """Per-layer metric values from the merged table; 0 where never called."""
    out = {}
    for metric, (span, stat, scale) in LAYER_METRICS.items():
        calls, total, own = stats.get(span, (0, 0.0, 0.0))
        if stat == "count":
            value = counts.get(span, 0) / passes
        elif stat == "calls":
            value = calls / passes
        elif calls == 0:
            value = 0.0
        else:
            value = (total if stat == "incl" else own) / calls * scale
        out[metric] = value
    return out


def format_table(stats: dict, counts: Counter, passes: int) -> list[str]:
    """Rows sorted by self time: calls and milliseconds are per traced pass.
    Then the counters, per traced pass: fixed by the workload's inputs, they
    show what a pass did rather than how fast."""
    lines = [f"{'span':36s} {'calls':>10s} {'self ms':>10s} {'incl ms':>10s}"
             f" {'self us/call':>12s} {'incl us/call':>12s}"]
    for name, (calls, total, own) in sorted(stats.items(),
                                            key=lambda kv: -kv[1][2]):
        lines.append(f"{name:36s} {calls / passes:10.1f} "
                     f"{own / passes * 1e3:10.3f} {total / passes * 1e3:10.3f} "
                     f"{own / calls * 1e6:12.2f} {total / calls * 1e6:12.2f}")
    for name, count in sorted(counts.items()):
        lines.append(f"{'count ' + name:36s} {count / passes:10.1f}")
    return lines
