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
import io
import itertools
import json
import math
import os
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator, Optional, get_type_hints

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
            return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
        return kind(raw)
    except (KeyError, ValueError):
        raise ConfigError(
            f"{section}.{name}: cannot parse {raw!r} as {kind.__name__}")


def _syntax_error(exc: configparser.Error) -> ConfigError:
    """ConfigParser.read's error, one of four kinds, naming key or line."""
    if isinstance(exc, configparser.DuplicateOptionError):
        return ConfigError(f"{exc.section}.{exc.option}: given twice")
    if isinstance(exc, configparser.DuplicateSectionError):
        return ConfigError(f"{exc.section}: section given twice")
    if isinstance(exc, configparser.MissingSectionHeaderError):
        return ConfigError(f"line {exc.lineno}: {exc.line.strip()!r} comes "
                           "before any [section] header")
    lineno, line = exc.errors[0]  # a ParsingError; line as its repr()
    return ConfigError(f"line {lineno}: {line} is not 'key = value'")


def _read_utf8(path: str) -> str:
    """The file's text, decoded as UTF-8 whatever the locale; undecodable
    bytes are rejected naming their line."""
    try:
        data = Path(path).read_bytes()
    except OSError:
        raise ConfigError(f"config file not readable: {path}") from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"line {line}: not UTF-8 text") from None


def load_config(path: Optional[str] = None,
                environ: Optional[dict] = None) -> RunConfig:
    """Resolve defaults <- config file <- environment overrides, validated."""
    environ = os.environ if environ is None else environ
    values: dict[str, dict] = {name: {} for name in _KEY_TYPES}

    if path is not None:
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                           interpolation=None)
        try:
            # universal newlines, as open() would read the file
            parser.read_file(io.StringIO(_read_utf8(path), newline=None),
                             source=path)
        except configparser.Error as exc:
            raise _syntax_error(exc) from None
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
    lines = [f"{section}.{f.name}={_canon_value(getattr(obj, f.name))}"
             for section, obj in (("agent", cfg.agent), ("network", cfg.network))
             for f in fields(obj)]
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


DEFAULT_GRID = "nodes=100:500:100;rates=60:100:10;seeds=1,2,3"

# criterion 3's grid has 75 cells; a grid over 100 times that is far more
# likely a typo than a plan, and one of this size builds its configs in ~0.1 s
MAX_GRID_CELLS = 10_000


@dataclass(frozen=True)
class ScenarioGrid:
    """Sweep axes: initial node counts x max transmission rates x seeds."""

    nodes_initial: tuple[int, ...]
    rate_max: tuple[int, ...]  # bits/second
    seeds: tuple[int, ...]

    def cells(self):
        return itertools.product(self.nodes_initial, self.rate_max, self.seeds)


def parse_grid(text: str) -> ScenarioGrid:
    """Parse e.g. DEFAULT_GRID into whole-number axes.

    Clauses are ';'-separated; each value list is either 'start:stop:step'
    (inclusive) or a comma list. An axis the text leaves out takes its
    DEFAULT_GRID clause; one it names twice is rejected. Rates are given in
    Mbps and rounded to whole bit/s. An axis, or the grid, of more than
    MAX_GRID_CELLS values is rejected before any value is made.
    """
    bodies = dict(clause.split("=") for clause in DEFAULT_GRID.split(";"))
    given = set()
    for clause in filter(None, text.split(";")):
        key, eq, body = clause.partition("=")
        if not eq:
            raise ConfigError(f"grid clause {clause!r}: expected key=values")
        key = key.strip()
        if key not in bodies:
            raise ConfigError(f"grid.{key}: unknown grid axis")
        # a later clause would silently replace the earlier one's values
        if key in given:
            raise ConfigError(f"grid.{key}: axis given twice")
        given.add(key)
        bodies[key] = body
    counted, cells = [], 1
    for key, body in bodies.items():
        count, values = _parse_values(key, body)
        cells *= count
        if count > MAX_GRID_CELLS:
            raise ConfigError(f"grid.{key}: {count} values, more than "
                              f"{MAX_GRID_CELLS}")
        if cells > MAX_GRID_CELLS:
            raise ConfigError(f"grid.{key}: makes a grid of {cells} cells, "
                              f"more than {MAX_GRID_CELLS}")
        counted.append((key, values))
    axes = []
    for key, values in counted:
        scale = 1e6 if key == "rates" else 1
        axis, seen = [], set()
        # each value is checked as the range yields it
        for v in values:
            if key != "rates" and not v.is_integer():
                raise ConfigError(f"grid.{key}: {v!r} is not a whole number")
            if not math.isfinite(v * scale):
                raise ConfigError(f"grid.{key}: {v!r} is not finite")
            value = round(v * scale)
            # a repeated value would send two jobs to one cell directory
            if value in seen:
                raise ConfigError(f"grid.{key}: repeated value")
            seen.add(value)
            axis.append(value)
        if not axis:
            raise ConfigError(f"grid.{key}: must be non-empty")
        if key == "seeds":
            # Rng's rule, here so that the message names the grid
            if min(axis) < 0 or max(axis) > 2**64 - 1:
                raise ConfigError("grid.seeds: must fit in unsigned 64 bits")
        elif min(axis) <= 0:
            raise ConfigError(f"grid.{key}: must be strictly positive")
        axes.append(tuple(axis))
    return ScenarioGrid(*axes)


def _parse_values(key: str, body: str) -> tuple[float, Iterable[float]]:
    """How many values one axis has, and the values, a range's made one at
    a time. A range must have a finite start, stop and step, and a step
    that moves start; its count comes from those three, before its loop."""
    body = body.strip()
    try:
        if ":" not in body:
            values = [float(x) for x in body.split(",") if x.strip()]
            return len(values), values
        start, stop, step = (float(x) for x in body.split(":"))
    except ValueError:
        raise ConfigError(f"grid.{key}: cannot parse {body!r}")
    if not all(map(math.isfinite, (start, stop, step))):
        raise ConfigError(f"grid.{key}: range {body!r} is not finite")
    if step <= 0 or stop < start:
        raise ConfigError(f"grid.{key}: cannot parse {body!r}")
    if start + step == start:
        raise ConfigError(f"grid.{key}: step {step!r} does not move "
                          f"start {start!r}")
    # the loop makes start, start + step, ... up to stop + 1e-9
    span = (stop + 1e-9 - start) / step
    count = math.floor(span) + 1 if math.isfinite(span) else math.inf
    return count, _range_values(start, step, count)


def _range_values(start: float, step: float, count: int) -> Iterator[float]:
    v = start
    for _ in range(count):
        yield v
        v += step
