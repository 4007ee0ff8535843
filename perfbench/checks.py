"""Output checks computed apart from semshard.

Every function here recomputes a result from its definition (the closed-form
throughput model, cosine accuracy, SHA-256 over the documented encoding, the
canonical config rendering, the documented network.bin layout) without
calling semshard, and returns a list of problems: an empty list means the
output checked out.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import struct

# Relative tolerance for quantities the program computes in a different
# floating-point order than the recomputation here.
REL_TOL = 1e-12
# Summed quantities (an epoch's mean reward) carry one rounding per round.
SUM_REL_TOL = 1e-9
# A cosine this close to a threshold may fall on either side of it.
TIE_MARGIN = 1e-9

ACTION_NAMES = {"INC_SHARDS", "DEC_SHARDS", "INC_MSG", "DEC_MSG", "NOOP"}
NETWORK_MAGIC = b"SHRDQNET"
TRAIN_CSV_HEADER = ["epoch", "mean_reward", "epsilon", "mean_loss"]


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# -- simulated throughput ----------------------------------------------------

def closed_form_tps(k: int, s: int, n: int, rate: float, t_sem: float,
                    reconfigured: bool, net: dict) -> float:
    """K*(S/tx) / (t_cfg + 2m(m-1)S/R + v + t_sem + S/R), m = ceil(N/K)."""
    m = -(-n // k)
    t_cfg = net["config_latency"] if reconfigured else 0.0
    t_round = (t_cfg + 2.0 * m * (m - 1) * s / rate + net["validation_delay"]
               + t_sem + s / rate)
    return k * (s / net["tx_size"]) / t_round


def episode_problems(records, net: dict, k_fixed: int | None = None) -> list[str]:
    """Check one episode's EpisodeRecords.

    net is the NetworkConfig as a dict. With k_fixed the episode is the
    static maximum-sharding policy pinned at k_fixed shards and the largest
    message size; otherwise it is a policy acting through Action steps.
    """
    out = []
    if len(records) != net["rounds_per_episode"]:
        out.append(f"episode has {len(records)} rounds, "
                   f"expected {net['rounds_per_episode']}")
    ms = net["min_shard_size"]
    step = net["message_size_step"]
    s_min, s_max = net["message_size_min"], net["avg_message_size_max"]
    prev_k, prev_s, prev_n = 1, s_max, net["nodes_initial"]
    for i, r in enumerate(records):
        where = f"round {i}"
        k, s, n = r.num_shards, r.message_size, r.n_nodes
        if r.round != i:
            out.append(f"{where}: logged as round {r.round}")
        if not net["nodes_min"] <= n <= net["nodes_max"]:
            out.append(f"{where}: N={n} outside [nodes_min, nodes_max]")
        if abs(n - prev_n) > net["node_walk_step"]:
            out.append(f"{where}: churn {prev_n}->{n} exceeds node_walk_step")
        if not 1 <= k <= max(1, n // ms):
            out.append(f"{where}: K={k} outside [1, N//min_shard_size]")
        if not s_min <= s <= s_max or (s - s_min) % step:
            out.append(f"{where}: S={s} off the message-size grid")
        if not net["rate_min"] <= r.rate <= net["rate_max"]:
            out.append(f"{where}: R={r.rate} outside [rate_min, rate_max]")
        if not 0.0 <= r.semantic_time <= net["semantic_time_max"]:
            out.append(f"{where}: t_sem={r.semantic_time} out of range")
        reconfigured = k != prev_k
        if bool(r.reconfigured) != reconfigured:
            out.append(f"{where}: reconfigured flag {r.reconfigured}, "
                       f"K went {prev_k}->{k}")
        if k_fixed is None:
            if r.action not in ACTION_NAMES:
                out.append(f"{where}: unknown action {r.action!r}")
            if k > prev_k + 1 or abs(s - prev_s) not in (0, step):
                out.append(f"{where}: setting moved more than one step")
        else:
            k_want = min(k_fixed, max(1, prev_n // ms), max(1, n // ms))
            if (k, s, r.action) != (k_want, s_max, "FORCED"):
                out.append(f"{where}: static setting K={k} S={s} "
                           f"{r.action}, expected K={k_want} S={s_max}")
            if bool(r.clamped) != (k_fixed > max(1, prev_n // ms)):
                out.append(f"{where}: clamped flag {r.clamped} wrong")
        want = closed_form_tps(k, s, n, r.rate, r.semantic_time,
                               reconfigured, net)
        if not _close(r.tps, want):
            out.append(f"{where}: tps {r.tps!r} != closed form {want!r}")
        prev_k, prev_s, prev_n = k, s, n
    return out


def episode_mean_reward(records, net: dict) -> float:
    """The per-episode mean reward the records imply: mean tps / reward_scale."""
    return math.fsum(r.tps for r in records) / net["reward_scale"] / len(records)


def mean_reward_problems(logged: list[float], implied: list[float]) -> list[str]:
    """Compare a policy's reported per-episode mean rewards with the ones its
    logged rounds imply (episode_mean_reward of each episode)."""
    if len(logged) != len(implied):
        return [f"{len(logged)} mean rewards for {len(implied)} episodes"]
    out = []
    for i, (value, want) in enumerate(zip(logged, implied)):
        if not _close(value, want, SUM_REL_TOL):
            out.append(f"episode {i}: mean reward {value!r} != {want!r} "
                       "from its logged rounds")
    return out


# -- training outputs ----------------------------------------------------------

def parse_rewards_csv(text: str) -> tuple[list[str], list[dict]]:
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    header, body = (rows[0], rows[1:]) if rows else ([], [])
    return header, [dict(zip(header, row)) for row in body]


def expected_epsilon(agent: dict, epoch: int) -> float:
    """Constant epsilon, or linear decay to min(0.01, epsilon) over the epochs."""
    eps, epochs = agent["epsilon"], agent["epochs"]
    if not agent["epsilon_decay"] or epochs <= 1:
        return eps
    floor = min(0.01, eps)
    return eps - (eps - floor) * (epoch / (epochs - 1))


def rewards_csv_problems(text: str, agent: dict, policy: str) -> list[str]:
    """Header, one row per epoch in order, and the epsilon column.

    Adaptive rows follow the epsilon schedule and carry a non-negative mean
    loss; baseline rows carry 0.0 in both columns.
    """
    header, rows = parse_rewards_csv(text)
    if header != TRAIN_CSV_HEADER:
        return [f"rewards.csv header {header}"]
    out = []
    if [int(r["epoch"]) for r in rows] != list(range(agent["epochs"])):
        out.append("rewards.csv epochs are not 0..epochs-1")
    for r in rows:
        e, eps, loss = int(r["epoch"]), float(r["epsilon"]), float(r["mean_loss"])
        if policy == "adaptive":
            want = expected_epsilon(agent, e)
            if not _close(eps, want) and abs(eps - want) > 1e-15:
                out.append(f"epoch {e}: epsilon {eps!r} != schedule {want!r}")
            if not loss >= 0.0:
                out.append(f"epoch {e}: negative mean loss {loss!r}")
        elif (eps, loss) != (0.0, 0.0):
            out.append(f"epoch {e}: baseline row carries epsilon/loss")
    return out


def network_file_problems(data: bytes, dims: tuple[int, int, int]) -> list[str]:
    """Documented network.bin layout: magic, three <u4 dims, four <f8 arrays."""
    if len(data) < 20 or data[:8] != NETWORK_MAGIC:
        return ["network.bin: missing SHRDQNET header"]
    got = struct.unpack_from("<III", data, 8)
    if got != tuple(dims):
        return [f"network.bin: dims {got}, expected {tuple(dims)}"]
    i, h, o = got
    length = 20 + 8 * (i * h + h + h * o + o)
    if len(data) != length:
        return [f"network.bin: {len(data)} bytes, expected {length}"]
    floats = struct.unpack_from(f"<{(length - 20) // 8}d", data, 20)
    if not all(math.isfinite(x) for x in floats):
        return ["network.bin: non-finite parameter"]
    return []


def network_arrays(data: bytes) -> list[bytes]:
    """Raw little-endian bytes of w1, b1, w2, b2 sliced from network.bin."""
    i, h, o = struct.unpack_from("<III", data, 8)
    parts, offset = [], 20
    for count in (i * h, h, h * o, o):
        parts.append(data[offset:offset + 8 * count])
        offset += 8 * count
    return parts


# -- manifests -------------------------------------------------------------------

def _render(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def canonical_hash(config: dict) -> str:
    """SHA-256 over sorted 'section.key=value' lines, newline-terminated."""
    lines = sorted(f"{section}.{key}={_render(value)}"
                   for section, values in config.items()
                   for key, value in values.items())
    return hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()


def manifest_problems(manifest: dict, expected_config: dict | None = None,
                      ) -> list[str]:
    """The manifest's hash must match its own config, and its config, when
    given, the config it was asked to run under."""
    out = []
    if canonical_hash(manifest["config"]) != manifest["config_hash"]:
        out.append("manifest config_hash does not match its config")
    if expected_config is not None:
        want = json.loads(json.dumps(expected_config))
        if manifest["config"] != want:
            diff = sorted(f"{s}.{k}"
                          for s in want for k in want[s]
                          if manifest["config"].get(s, {}).get(k) != want[s][k])
            out.append(f"manifest config differs from the requested one: {diff}")
    return out


# -- proof of semantic ----------------------------------------------------------------

def cosine(u, v) -> float:
    """Cosine clipped at zero, in plain floating point."""
    dot = math.fsum(a * b for a, b in zip(u, v))
    nu = math.sqrt(math.fsum(a * a for a in u))
    nv = math.sqrt(math.fsum(b * b for b in v))
    return max(0.0, dot / (nu * nv))


def contributor_problems(vectors: dict, truth, threshold: float,
                         contributors) -> list[str]:
    """Recompute who passes the accuracy threshold.

    vectors maps verifier id to its result vector; contributors is the set
    the program paid, or None when it rejected the content.
    """
    want, unsure = set(), set()
    for vid, vec in vectors.items():
        acc = cosine(vec, truth)
        if abs(acc - threshold) <= TIE_MARGIN:
            unsure.add(vid)
        elif acc >= threshold:
            want.add(vid)
    got = set(contributors or ())
    if got - unsure != want:
        return [f"contributors {sorted(got)} != recomputed {sorted(want)}"]
    return []


def challenge_winner(solver_vec, challenger_vec, truth) -> str | None:
    """The challenger wins ties; None when the accuracies are too close to call."""
    a_s, a_c = cosine(solver_vec, truth), cosine(challenger_vec, truth)
    if abs(a_s - a_c) <= TIE_MARGIN:
        return None
    return "challenger" if a_c > a_s else "solver"


def commitment_digest(vector, salt: bytes) -> bytes:
    """SHA-256 over the little-endian float64 components followed by the salt."""
    return hashlib.sha256(struct.pack(f"<{len(vector)}d", *vector) + salt).digest()


def ledger_problems(ledger, shadow: dict, minted: int) -> list[str]:
    """Every balance matches the books kept apart, and nothing left the supply."""
    out = []
    holders = set(ledger.holders()) | set(shadow)
    total = sum(ledger.balance(h) for h in ledger.holders())
    if total != minted:
        out.append(f"ledger holds {total} tokens, {minted} were minted")
    wrong = [h for h in holders if ledger.balance(h) != shadow.get(h, 0)]
    if wrong:
        h = sorted(wrong, key=str)[0]
        out.append(f"{len(wrong)} balances differ from the books, e.g. "
                   f"{h!r}: {ledger.balance(h)} != {shadow.get(h, 0)}")
    return out
