"""Run configuration: flat key-value files, env overrides, canonical hashing.

The file format is INI-style with two sections, [network] and [agent]; every
key mirrors a field of NetworkConfig or Hyperparameters. An empty (or absent)
file resolves to the built-in defaults, which reproduce the reference
scenario. Every key can also be overridden through the environment as
SEMSHARD_<SECTION>_<KEY>.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import os
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, get_type_hints

from .core import ConfigError, NetworkConfig
from .dqn import Hyperparameters

ENV_PREFIX = "SEMSHARD"

# section -> {key: type}; get_type_hints resolves the string annotations
_KEY_TYPES = {"network": get_type_hints(NetworkConfig),
              "agent": get_type_hints(Hyperparameters)}


@dataclass(frozen=True)
class RunConfig:
    network: NetworkConfig
    agent: Hyperparameters


def _coerce(section: str, name: str, kind: type, raw: str):
    raw = raw.strip()
    try:
        if kind is bool:
            lowered = raw.lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
    except ValueError:
        raise ConfigError(
            f"{section}.{name}: cannot parse {raw!r} as {kind.__name__}")
    return raw


def load_config(path: Optional[str] = None,
                environ: Optional[dict] = None) -> RunConfig:
    """Resolve defaults <- config file <- environment overrides, validated."""
    environ = os.environ if environ is None else environ
    values: dict[str, dict] = {name: {} for name in _KEY_TYPES}

    if path is not None:
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
        read = parser.read(path)
        if not read:
            raise ConfigError(f"config file not readable: {path}")
        for section in parser.sections():
            if section not in _KEY_TYPES:
                raise ConfigError(f"{section}: unknown config section")
            for key, raw in parser[section].items():
                if key not in _KEY_TYPES[section]:
                    raise ConfigError(f"{section}.{key}: unknown config key")
                values[section][key] = _coerce(
                    section, key, _KEY_TYPES[section][key], raw)

    for section, types in _KEY_TYPES.items():
        for key, kind in types.items():
            env_key = f"{ENV_PREFIX}_{section.upper()}_{key.upper()}"
            if env_key in environ:
                values[section][key] = _coerce(section, key, kind,
                                               environ[env_key])

    network = NetworkConfig(**values["network"])
    agent = Hyperparameters(**values["agent"])
    return RunConfig(network=network, agent=agent)


def _canon_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def canonical_text(cfg: RunConfig) -> str:
    """Stable line-per-key rendering: 'section.key=value', sorted."""
    lines = []
    for section, obj in (("agent", cfg.agent), ("network", cfg.network)):
        for f in sorted(fields(obj), key=lambda f: f.name):
            lines.append(f"{section}.{f.name}={_canon_value(getattr(obj, f.name))}")
    return "\n".join(sorted(lines)) + "\n"


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(canonical_text(cfg).encode()).hexdigest()


def write_manifest(path, cfg: RunConfig, outputs: list[str]) -> None:
    manifest = {
        "config": {"network": asdict(cfg.network), "agent": asdict(cfg.agent)},
        "config_hash": config_hash(cfg),
        "outputs": sorted(outputs),
        "created_at": datetime.now(timezone.utc).isoformat(),
    }
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def read_manifest(path) -> dict:
    return json.loads(Path(path).read_text())


@dataclass(frozen=True)
class ScenarioGrid:
    """Sweep axes: initial node counts x max transmission rates x seeds."""

    nodes_initial: tuple[int, ...]
    rate_max: tuple[float, ...]  # bits/second
    seeds: tuple[int, ...]

    def __post_init__(self):
        for name in ("nodes_initial", "rate_max", "seeds"):
            if not getattr(self, name):
                raise ConfigError(f"grid.{name}: must be non-empty")
        if any(n <= 0 for n in self.nodes_initial):
            raise ConfigError("grid.nodes_initial: must be strictly positive")
        if any(r <= 0 for r in self.rate_max):
            raise ConfigError("grid.rate_max: must be strictly positive")

    def cells(self):
        for nodes in self.nodes_initial:
            for rate in self.rate_max:
                for seed in self.seeds:
                    yield nodes, rate, seed


def default_grid() -> ScenarioGrid:
    return ScenarioGrid(
        nodes_initial=tuple(range(100, 501, 100)),
        rate_max=tuple(float(mbps) * 1e6 for mbps in range(60, 101, 10)),
        seeds=(1, 2, 3),
    )


def parse_grid(text: str) -> ScenarioGrid:
    """Parse 'nodes=100:500:100;rates=60:100:10;seeds=1,2,3'.

    Clauses are ';'-separated; each value list is either 'start:stop:step'
    (inclusive) or a comma list. Rates are given in Mbps.
    """
    base = default_grid()
    parts = {"nodes": list(base.nodes_initial),
             "rates": [r / 1e6 for r in base.rate_max],
             "seeds": list(base.seeds)}
    for clause in filter(None, text.split(";")):
        if "=" not in clause:
            raise ConfigError(f"grid clause {clause!r}: expected key=values")
        key, _, body = clause.partition("=")
        key = key.strip()
        if key not in parts:
            raise ConfigError(f"grid.{key}: unknown grid axis")
        parts[key] = _parse_values(key, body)
    for key, values in parts.items():
        # a repeated value would send two jobs to one cell directory
        if len(set(values)) < len(values):
            raise ConfigError(f"grid.{key}: repeated value")
    for key in ("nodes", "seeds"):
        for v in parts[key]:
            if not float(v).is_integer():
                raise ConfigError(f"grid.{key}: {v!r} is not a whole number")
    return ScenarioGrid(
        nodes_initial=tuple(int(n) for n in parts["nodes"]),
        rate_max=tuple(float(r) * 1e6 for r in parts["rates"]),
        seeds=tuple(int(s) for s in parts["seeds"]),
    )


def _parse_values(key: str, body: str) -> list[float]:
    body = body.strip()
    try:
        if ":" in body:
            start, stop, step = (float(x) for x in body.split(":"))
            if step <= 0 or stop < start:
                raise ValueError(body)
            values, v = [], start
            while v <= stop + 1e-9:
                values.append(v)
                v += step
            return values
        return [float(x) for x in body.split(",") if x.strip()]
    except ValueError:
        raise ConfigError(f"grid.{key}: cannot parse {body!r}")
