import csv
import json
import os
import re
import subprocess
import sys
from decimal import Decimal
from pathlib import Path
from typing import get_type_hints

import pytest

from semshard import cli
from semshard.config import (DEFAULT_GRID, canonical_text, config_hash,
                             load_config, parse_grid, read_manifest)
from semshard.core import MAX_ARRAY_BYTES, ConfigError, NetworkConfig
from semshard.dqn import Hyperparameters

FLOAT_KEYS = [f"{section}.{key}"
              for section, cls in (("network", NetworkConfig),
                                   ("agent", Hyperparameters))
              for key, kind in get_type_hints(cls).items() if kind is float]
NETWORK_INT_KEYS = [key for key, kind in get_type_hints(NetworkConfig).items()
                    if kind is int]


class TestLoadConfig:
    def test_empty_resolves_to_reference_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        cfg = load_config(str(path), environ={})
        assert cfg.network == NetworkConfig()
        assert cfg.agent == Hyperparameters()

    def test_file_values_override_defaults(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[network]\nnodes_initial = 200\nseed = 9\n"
                        "[agent]\nepochs = 50\nepsilon_decay = true\n")
        cfg = load_config(str(path), environ={})
        assert cfg.network.nodes_initial == 200
        assert cfg.network.seed == 9
        assert cfg.agent.epochs == 50
        assert cfg.agent.epsilon_decay is True

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[network]\nwarp_factor = 9\n")
        with pytest.raises(ConfigError, match="warp_factor"):
            load_config(str(path), environ={})

    def test_unknown_section_named(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[warp]\nx = 1\n")
        with pytest.raises(ConfigError, match="warp"):
            load_config(str(path), environ={})

    def test_unparseable_value_named(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[agent]\nbatch_size = many\n")
        with pytest.raises(ConfigError, match="batch_size"):
            load_config(str(path), environ={})

    def test_out_of_range_value_named(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[agent]\ndiscount = 1.5\n")
        with pytest.raises(ConfigError, match="discount"):
            load_config(str(path), environ={})

    def _rejected(self, tmp_path, text, key):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError, match=key):
            load_config(str(path), environ={})

    def test_nodes_min_below_shard_size_named(self, tmp_path):
        # would load, then fail mid-episode once churn walks down to 2 nodes
        self._rejected(tmp_path, "[network]\nnodes_min = 2\nnodes_initial = 6\n",
                       "network.nodes_min")

    def test_nodes_initial_below_shard_size_named(self, tmp_path):
        self._rejected(tmp_path, "[network]\nnodes_initial = 3\n",
                       "network.nodes_initial")

    def test_nodes_initial_above_nodes_max_named(self, tmp_path):
        self._rejected(tmp_path, "[network]\nnodes_initial = 601\n",
                       "network.nodes_initial")

    def test_buffer_smaller_than_batch_named(self, tmp_path):
        # the buffer could never hold a batch: zero gradient steps
        self._rejected(tmp_path, "[agent]\nbuffer_capacity = 63\n",
                       "agent.buffer_capacity")

    @pytest.mark.parametrize("raw", ["nan", "inf"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_value_named(self, key, raw):
        # NaN passes every range check, and inf passes a lower bound
        env_key = "SEMSHARD_" + key.replace(".", "_").upper()
        with pytest.raises(ConfigError, match=re.escape(key + ":")):
            load_config(None, environ={env_key: raw})

    def test_readme_block_is_the_defaults(self, tmp_path):
        # the README's [network]/[agent] block, inline comments included
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "readme.cfg"
        path.write_text(block)
        assert load_config(str(path), environ={}) \
            == load_config(None, environ={})

    def test_readme_sweep_grid_is_the_default(self):
        # the README says "The default grid is the one shown."
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        shown = re.search(r'--grid "([^"]*)"', readme).group(1)
        parsed = cli.build_parser().parse_args(["sweep", "--out", "x"])
        assert shown == DEFAULT_GRID == parsed.grid

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="readable"):
            load_config("/no/such/file.cfg", environ={})

    def test_environment_overrides_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[network]\nseed = 1\n")
        cfg = load_config(str(path),
                          environ={"SEMSHARD_NETWORK_SEED": "77",
                                   "SEMSHARD_AGENT_EPOCHS": "5"})
        assert cfg.network.seed == 77
        assert cfg.agent.epochs == 5


class TestCanonicalHash:
    def test_hash_stable_under_key_reordering(self, tmp_path):
        a = tmp_path / "a.cfg"
        b = tmp_path / "b.cfg"
        a.write_text("[network]\nseed = 3\nnodes_initial = 200\n")
        b.write_text("[network]\nnodes_initial = 200\nseed = 3\n")
        assert config_hash(load_config(str(a), environ={})) \
            == config_hash(load_config(str(b), environ={}))

    def test_hash_changes_with_any_value(self, tmp_path):
        base = load_config(None, environ={})
        changed = load_config(None, environ={"SEMSHARD_AGENT_EPSILON": "0.2"})
        assert config_hash(base) != config_hash(changed)

    def test_canonical_text_lists_every_key(self):
        text = canonical_text(load_config(None, environ={}))
        assert "agent.discount=0.98" in text
        assert "network.config_latency=0.001" in text
        assert text == "\n".join(sorted(text.splitlines())) + "\n"


class TestScenarioGrid:
    def test_default_grid_shape(self):
        grid = parse_grid("")
        assert grid.nodes_initial == (100, 200, 300, 400, 500)
        assert grid.rate_max == tuple(m * 1e6 for m in (60, 70, 80, 90, 100))
        assert len(list(grid.cells())) == 5 * 5 * len(grid.seeds)

    def test_parse_ranges_and_lists(self):
        grid = parse_grid("nodes=100:300:100;rates=60,80;seeds=4")
        assert grid.nodes_initial == (100, 200, 300)
        assert grid.rate_max == (60e6, 80e6)
        assert grid.seeds == (4,)
        # rounding to whole bit/s keeps fractional-Mbps ranges
        assert parse_grid("rates=60:61:0.1").rate_max \
            == tuple(range(60_000_000, 61_000_001, 100_000))

    def test_partial_spec_keeps_default_axes(self):
        grid = parse_grid("seeds=9")
        assert grid.seeds == (9,)
        assert grid.nodes_initial == parse_grid("").nodes_initial

    def test_bad_axis_rejected(self):
        with pytest.raises(ConfigError, match="warp"):
            parse_grid("warp=1,2")

    @pytest.mark.parametrize("text, message", [
        ("nodes=100.7", "grid.nodes: 100.7 is not a whole number"),
        ("seeds=1:2:0.5", "grid.seeds: 1.5 is not a whole number"),
        ("seeds=inf", "grid.seeds: inf is not a whole number"),
        ("nodes=100,200,100", "grid.nodes: repeated value"),
        ("seeds=1,1.0", "grid.seeds: repeated value"),
        ("rates=60,80,60", "grid.rates: repeated value"),
        ("rates=nan", "grid.rates: nan is not finite"),
        ("rates=inf", "grid.rates: inf is not finite"),
        ("rates=60,60.0000001", "grid.rates: repeated value"),
        ("rates=0.0000001", "grid.rates: must be strictly positive"),
        ("nodes=100;nodes=200", "grid.nodes: axis given twice"),
        ("seeds=1; rates=60;seeds =2", "grid.seeds: axis given twice"),
        # ranges that never end, or end after ~1e9 values or more: each is
        # rejected before its loop
        ("rates=60:100:1e-300", "grid.rates: step 1e-300 does not move"),
        ("nodes=1:inf:1", "grid.nodes: range '1:inf:1' is not finite"),
        ("seeds=-inf:1:1", "grid.seeds: range '-inf:1:1' is not finite"),
        ("nodes=100:200:nan", "grid.nodes: range '100:200:nan' is not finite"),
        ("rates=60:61:1e-9", "grid.rates: 1000000001 values, more than 10000$"),
        ("nodes=1:1e15:0.5",
         "grid.nodes: 1999999999999999 values, more than 10000$"),
        ("seeds=1e17:2e17:1", "grid.seeds: step 1.0 does not move"),
        ("seeds=0:1e9:1", "grid.seeds: 1000000001 values, more than 10000$"),
        ("rates=60:60.000001:1e-7", "grid.rates: repeated value"),
        ("seeds=-1e308:1e308:1e300", "grid.seeds: inf values, more than"),
        # each axis is within the bound, their product is not
        ("nodes=1:1000:1;rates=1:1000:1;seeds=1:1000:1",
         "grid.rates: makes a grid of 1000000 cells, more than 10000$")])
    def test_truncated_or_repeated_value_rejected(self, text, message):
        with pytest.raises(ConfigError, match=message):
            parse_grid(text)


SMALL_CFG = """\
[network]
rounds_per_episode = 10
nodes_initial = 60
seed = 3

[agent]
epochs = 4
batch_size = 8
"""


@pytest.fixture
def small_cfg_path(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CFG)
    return str(path)


class TestCmdTrain:
    def test_outputs_and_row_count(self, small_cfg_path, tmp_path):
        out = tmp_path / "run"
        assert cli.main(["train", small_cfg_path, "--out", str(out)]) == 0
        with open(out / "rewards.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4  # exactly `epochs` data rows
        assert (out / "network.bin").exists()
        manifest = read_manifest(out / "manifest.json")
        assert manifest["config"]["agent"]["epochs"] == 4
        assert "rewards.csv" in manifest["outputs"]

    def test_byte_identical_reruns(self, small_cfg_path, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cli.main(["train", small_cfg_path, "--seed", "11", "--out", str(out_a)])
        cli.main(["train", small_cfg_path, "--seed", "11", "--out", str(out_b)])
        assert (out_a / "rewards.csv").read_bytes() \
            == (out_b / "rewards.csv").read_bytes()
        assert (out_a / "network.bin").read_bytes() \
            == (out_b / "network.bin").read_bytes()

    def test_seed_flag_changes_outputs(self, small_cfg_path, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cli.main(["train", small_cfg_path, "--seed", "1", "--out", str(out_a)])
        cli.main(["train", small_cfg_path, "--seed", "2", "--out", str(out_b)])
        assert (out_a / "rewards.csv").read_bytes() \
            != (out_b / "rewards.csv").read_bytes()

    def test_bad_config_exits_2_naming_key(self, tmp_path, capsys):
        # a value out of range, then five files configparser cannot read as
        # they stand: a key twice, a section twice, no section header, a
        # line without "=", and a %-interpolation, which is read literally;
        # then bytes that are not UTF-8, a path with no file, three sizes
        # whose arrays would pass 1 GiB, epochs whose per-epoch records
        # would, and an episode whose log would, each rejected before
        # anything is made
        cases = [("[agent]\ndiscount = 1.5\n", "discount"),
                 ("[agent]\nepochs = 3\nepochs = 4\n",
                  "agent.epochs: given twice"),
                 ("[agent]\nepochs = 3\n[agent]\nbatch_size = 4\n",
                  "agent: section given twice"),
                 ("epochs = 3\n", "line 1: 'epochs = 3'"),
                 ("[agent]\nepochs\n", "line 2: 'epochs\\n'"),
                 ("[network]\nseed = %(x)s\n",
                  "network.seed: cannot parse '%(x)s' as int"),
                 (b"[agent]\nepochs = \xff\n", "line 2: not UTF-8 text"),
                 (None, "config file not readable"),
                 ("[agent]\nbuffer_capacity = 1000000000000\n",
                  "agent.buffer_capacity"),
                 ("[agent]\nhidden_units = 1000000000\n",
                  "agent.hidden_units"),
                 ("[agent]\nbatch_size = 5000000\n"
                  "buffer_capacity = 5000000\n", "agent.batch_size"),
                 ("[agent]\nepochs = 10000000000\n", "agent.epochs"),
                 ("[network]\nrounds_per_episode = 4194305\n",
                  "network.rounds_per_episode")]
        for i, (text, named) in enumerate(cases):
            path, out = tmp_path / f"bad{i}.cfg", tmp_path / f"o{i}"
            if isinstance(text, bytes):
                path.write_bytes(text)
            elif text is not None:
                path.write_text(text)
            code = cli.main(["train", str(path), "--out", str(out)])
            assert code == 2, text
            assert named in capsys.readouterr().err, text
            assert not out.exists(), text

    def test_walk_wider_than_rng_serves_exits_2_naming_key(self, tmp_path,
                                                           capsys):
        # loads as an int, but no round could draw its walk
        path = tmp_path / "wide.cfg"
        path.write_text("[network]\nnode_walk_step = 9223372036854775808\n")
        code = cli.main(["train", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "network.node_walk_step" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", NETWORK_INT_KEYS)
    def test_int_past_float_range_exits_2_naming_key(self, tmp_path, capsys,
                                                     key):
        # loads as an int, but the latency formulas cannot take it as a float
        path = tmp_path / "huge.cfg"
        path.write_text(f"[network]\n{key} = {10**400}\n")
        code = cli.main(["train", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err \
            == f"error: network.{key}: too large for a float\n"
        assert not (tmp_path / "o").exists()

    def test_rerun_cut_off_before_its_manifest_leaves_none(self, tmp_path,
                                                           monkeypatch):
        out = tmp_path / "run"

        def train(epochs):
            cfg_path = tmp_path / f"epochs{epochs}.cfg"
            cfg_path.write_text(SMALL_CFG.replace("epochs = 4",
                                                  f"epochs = {epochs}"))
            return cli.main(["train", str(cfg_path), "--out", str(out)])

        class Cut(Exception):
            pass

        def cut(*args):
            raise Cut

        assert train(2) == 0
        # a run under another config dies after its outputs, before the
        # manifest that would describe them
        with monkeypatch.context() as patch:
            patch.setattr(cli, "write_manifest", cut)
            with pytest.raises(Cut):
                train(3)
        assert len((out / "rewards.csv").read_text().splitlines()) == 1 + 3
        assert not (out / "manifest.json").exists()

    def test_unwritable_out_exits_3(self, small_cfg_path, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code = cli.main(["train", small_cfg_path,
                         "--out", str(blocker / "nested")])
        assert code == 3


class TestCmdSweep:
    def test_single_cell_matches_train_plus_baseline(self, tmp_path):
        cfg_path = tmp_path / "cfg.cfg"
        cfg_path.write_text(SMALL_CFG)
        out = tmp_path / "sweep"
        code = cli.main(["sweep", str(cfg_path), "--out", str(out),
                         "--grid", "nodes=60;rates=60;seeds=3"])
        assert code == 0
        with open(out / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0].keys()) == \
            ["nodes", "rate_max", "seed", "policy", "epoch", "mean_reward"]
        assert len(rows) == 2 * 4  # adaptive + baseline, 4 epochs each

        train_out = tmp_path / "train"
        cli.main(["train", str(cfg_path), "--seed", "3",
                  "--out", str(train_out)])
        with open(train_out / "rewards.csv") as fh:
            train_rows = list(csv.DictReader(fh))
        adaptive = [r for r in rows if r["policy"] == "adaptive"]
        assert [r["mean_reward"] for r in adaptive] \
            == [r["mean_reward"] for r in train_rows]

    def test_resume_reuses_existing_cells(self, tmp_path):
        cfg_path = tmp_path / "cfg.cfg"
        cfg_path.write_text(SMALL_CFG)
        out = tmp_path / "sweep"
        args = ["sweep", str(cfg_path), "--out", str(out),
                "--grid", "nodes=60;rates=60;seeds=3"]
        assert cli.main(args) == 0
        # tamper with a finished cell; a resumed sweep must trust it
        cell = next((out / "cells").iterdir())
        (cell / "rewards.csv").write_text(
            "epoch,mean_reward,epsilon,mean_loss\n0,123.5,0.1,0.0\n")
        assert cli.main(args) == 0
        content = (out / "sweep.csv").read_text()
        assert "123.5" in content

    def test_resume_recomputes_cells_of_another_config(self, tmp_path):
        grid = ["--grid", "nodes=60;rates=60;seeds=3"]
        resumed, fresh = tmp_path / "resumed", tmp_path / "fresh"
        for epochs, out in ((2, resumed), (4, resumed), (4, fresh)):
            cfg_path = tmp_path / f"epochs{epochs}.cfg"
            cfg_path.write_text(SMALL_CFG.replace("epochs = 4",
                                                  f"epochs = {epochs}"))
            assert cli.main(["sweep", str(cfg_path), "--out", str(out),
                             *grid]) == 0
        with open(resumed / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        for policy in ("adaptive", "baseline"):
            assert sum(r["policy"] == policy for r in rows) == 4
        assert (resumed / "sweep.csv").read_bytes() \
            == (fresh / "sweep.csv").read_bytes()

    def test_resume_recomputes_cell_with_truncated_manifest(self, tmp_path):
        cfg_path = tmp_path / "cfg.cfg"
        cfg_path.write_text(SMALL_CFG)
        out = tmp_path / "sweep"
        args = ["sweep", str(cfg_path), "--out", str(out),
                "--grid", "nodes=60;rates=60;seeds=3"]
        assert cli.main(args) == 0
        first = (out / "sweep.csv").read_bytes()
        # a run killed while writing leaves a manifest cut short; one that
        # is JSON but not an object is as unreadable, and so is one whose
        # outputs are not a list of names
        manifest = out / "cells" / "n60_r60000000_s3_adaptive" / "manifest.json"
        stored = read_manifest(manifest)
        for text in (manifest.read_text()[:40], "[]", "null", *(
                json.dumps({**stored, "outputs": outputs}) for outputs in
                ("rewards.csv", None, {"rewards.csv": 1}, ["rewards.csv", 7]))):
            manifest.write_text(text)
            (manifest.parent / "rewards.csv").write_text(
                "epoch,mean_reward,epsilon,mean_loss\n0,123.5,0.1,0.0\n")
            assert cli.main(args) == 0, text
            assert "config_hash" in read_manifest(manifest), text
            assert (out / "sweep.csv").read_bytes() == first, text

    def test_resume_recomputes_cell_missing_a_listed_output(self, tmp_path):
        cfg_path = tmp_path / "cfg.cfg"
        cfg_path.write_text("[agent]\nepochs = 2\n")
        out = tmp_path / "sweep"
        args = ["sweep", str(cfg_path), "--out", str(out),
                "--grid", "nodes=100;rates=60;seeds=1", "--workers", "1"]
        assert cli.main(args) == 0
        first = (out / "sweep.csv").read_bytes()
        network = out / "cells" / "n100_r60000000_s1_adaptive" / "network.bin"
        weights = network.read_bytes()
        network.unlink()
        assert cli.main(args) == 0
        assert network.read_bytes() == weights
        assert (out / "sweep.csv").read_bytes() == first

    def test_resume_recomputes_cell_cut_off_before_its_manifest(
            self, tmp_path, monkeypatch):
        grid = ["--grid", "nodes=60;rates=60;seeds=3", "--workers", "1"]
        resumed, fresh = tmp_path / "resumed", tmp_path / "fresh"

        def sweep(epochs, out):
            cfg_path = tmp_path / f"epochs{epochs}.cfg"
            cfg_path.write_text(SMALL_CFG.replace("epochs = 4",
                                                  f"epochs = {epochs}"))
            return cli.main(["sweep", str(cfg_path), "--out", str(out), *grid])

        class Cut(Exception):
            pass

        def cut(*args):
            raise Cut

        assert sweep(2, resumed) == 0
        # a run under another config dies after its outputs, before the
        # manifest that would describe them
        with monkeypatch.context() as patch:
            patch.setattr(cli, "write_manifest", cut)
            with pytest.raises(Cut):
                sweep(3, resumed)
        cell = resumed / "cells" / "n60_r60000000_s3_adaptive"
        assert len((cell / "rewards.csv").read_text().splitlines()) == 1 + 3
        assert sweep(2, resumed) == 0
        assert sweep(2, fresh) == 0
        assert (resumed / "sweep.csv").read_bytes() \
            == (fresh / "sweep.csv").read_bytes()

    def test_rerun_cut_off_before_its_manifest_leaves_none(self, tmp_path,
                                                           monkeypatch):
        out = tmp_path / "sweep"
        write_manifest = cli.write_manifest

        def sweep(epochs):
            cfg_path = tmp_path / f"epochs{epochs}.cfg"
            cfg_path.write_text(SMALL_CFG.replace("epochs = 4",
                                                  f"epochs = {epochs}"))
            return cli.main(["sweep", str(cfg_path), "--out", str(out),
                             "--grid", "nodes=60;rates=60;seeds=3",
                             "--workers", "1"])

        class Cut(Exception):
            pass

        def cut_top_level(path, *args):
            # the cells finish; the sweep dies after sweep.csv, before the
            # manifest that would describe it
            if Path(path).parent == out:
                raise Cut
            write_manifest(path, *args)

        assert sweep(2) == 0
        with monkeypatch.context() as patch:
            patch.setattr(cli, "write_manifest", cut_top_level)
            with pytest.raises(Cut):
                sweep(3)
        assert len((out / "sweep.csv").read_text().splitlines()) == 1 + 2 * 3
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("grid, key", [
        ("nodes=60,700;rates=60;seeds=3", "network.nodes_initial"),
        ("nodes=60;rates=nan;seeds=3", "grid.rates")], ids=["nodes", "rates"])
    def test_bad_grid_cell_fails_before_any_cell_runs(self, tmp_path, capsys,
                                                      grid, key):
        cfg_path = tmp_path / "cfg.cfg"
        cfg_path.write_text(SMALL_CFG)
        out = tmp_path / "sweep"
        code = cli.main(["sweep", str(cfg_path), "--out", str(out),
                         "--grid", grid])
        assert code == 2
        assert key in capsys.readouterr().err
        assert not (out / "cells").exists()

    def test_parallel_equals_serial(self, tmp_path):
        cfg_path = tmp_path / "cfg.cfg"
        cfg_path.write_text(SMALL_CFG)
        grid = "nodes=60,70;rates=60;seeds=3"
        out_serial, out_par = tmp_path / "s", tmp_path / "p"
        cli.main(["sweep", str(cfg_path), "--out", str(out_serial),
                  "--grid", grid, "--workers", "1"])
        cli.main(["sweep", str(cfg_path), "--out", str(out_par),
                  "--grid", grid, "--workers", "2"])
        assert (out_serial / "sweep.csv").read_bytes() \
            == (out_par / "sweep.csv").read_bytes()

    # pools: min(workers, jobs, usable CPUs), if that is above 1
    @pytest.mark.parametrize("workers, grid, cpus, pools", [
        ("3", "nodes=60;rates=60;seeds=3", 8, [2]),
        ("8", "nodes=60,70;rates=60;seeds=3", 8, [4]),
        ("8", "nodes=60,70;rates=60;seeds=3", 3, [3]),
        ("8", "nodes=60,70;rates=60;seeds=3", 1, []),
        ("2", "nodes=60,70;rates=60;seeds=3", 8, [2]),
        ("1", "nodes=60;rates=60;seeds=3", 8, [])])
    def test_pool_starts_no_more_workers_than_jobs(self, tmp_path,
                                                   monkeypatch, workers,
                                                   grid, cpus, pools):
        # the pool forks all max_workers processes at once; this stand-in
        # records the count and runs the jobs inline, starting none
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        import concurrent.futures
        started = []

        class InlinePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            InlinePool)
        cfg_path = tmp_path / "cfg.cfg"
        cfg_path.write_text(SMALL_CFG)
        assert cli.main(["sweep", str(cfg_path), "--out", str(tmp_path / "o"),
                         "--grid", grid, "--workers", workers]) == 0
        assert started == pools

    def test_other_commands_do_not_import_the_pool(self):
        # a fresh interpreter, so that no earlier test has loaded the pool
        script = (
            "import sys\n"
            "from semshard import cli\n"
            "assert cli.main(['eval-throughput']) == 0\n"
            "assert cli.main(['pos-demo', '--mechanism', 'offchain']) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith(\n"
            "    ('multiprocessing', 'concurrent.futures'))))\n")
        src = str(Path(cli.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        child = subprocess.run([sys.executable, "-c", script],
                               capture_output=True, text=True,
                               env={**os.environ, "PYTHONPATH": path})
        assert child.returncode == 0, child.stderr
        assert child.stdout.splitlines()[-1] == "[]"

    def test_workers_default_to_usable_cpus(self):
        args = cli.build_parser().parse_args(["sweep", "--out", "x"])
        assert args.workers == len(os.sched_getaffinity(0))

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_2(self, tmp_path, capsys, workers):
        out = tmp_path / "sweep"
        code = cli.main(["sweep", "--out", str(out), "--workers", workers,
                         "--grid", "nodes=60;rates=60;seeds=3"])
        assert code == 2
        assert capsys.readouterr().err \
            == "error: --workers: must be at least 1\n"
        assert not out.exists()

    def test_repeated_axis_exits_2_before_out(self, tmp_path, capsys):
        # the second clause used to replace the first: one node count ran
        out = tmp_path / "sweep"
        code = cli.main(["sweep", "--out", str(out), "--workers", "1",
                         "--grid", "nodes=100;nodes=200;rates=60;seeds=3"])
        assert code == 2
        assert capsys.readouterr().err \
            == "error: grid.nodes: axis given twice\n"
        assert not out.exists()


    def test_range_that_cannot_end_exits_2_before_out(self, tmp_path,
                                                      capsys):
        out = tmp_path / "sweep"
        code = cli.main(["sweep", "--out", str(out), "--workers", "1",
                         "--grid", "nodes=60;rates=60:100:1e-300;seeds=3"])
        assert code == 2
        assert capsys.readouterr().err == ("error: grid.rates: step 1e-300 "
                                           "does not move start 60.0\n")
        assert not out.exists()


def test_every_command_takes_a_config():
    parser = cli.build_parser()
    for argv in (["train", "--out", "x"], ["sweep", "--out", "x"],
                 ["eval-throughput"], ["pos-demo", "--mechanism", "offchain"]):
        assert parser.parse_args([argv[0], "run.cfg", *argv[1:]]).config \
            == "run.cfg"
        assert parser.parse_args(argv).config is None


class TestCmdEvalThroughput:
    def _parse(self, text, kind=float):
        values = {}
        for line in text.splitlines():
            parts = line.split()
            values[parts[0]] = kind(parts[1])
        return values

    def test_config_validation_delay_enters_t_intra(self, tmp_path, capsys):
        path = tmp_path / "slow.cfg"
        path.write_text("[network]\nvalidation_delay = 0.5\n")
        assert cli.main(["eval-throughput"]) == 0
        before = self._parse(capsys.readouterr().out, Decimal)
        assert cli.main(["eval-throughput", str(path)]) == 0
        after = self._parse(capsys.readouterr().out, Decimal)
        # the default is 0.1 s; the printed digits differ by exactly 0.4
        assert after["t_intra"] - before["t_intra"] == Decimal("0.4")
        assert after["t_prop"] == before["t_prop"]
        assert after["tps"] < before["tps"]

    def test_environment_override_changes_tps(self, capsys, monkeypatch):
        assert cli.main(["eval-throughput"]) == 0
        before = self._parse(capsys.readouterr().out)
        monkeypatch.setenv("SEMSHARD_NETWORK_VALIDATION_DELAY", "5")
        assert cli.main(["eval-throughput"]) == 0
        assert self._parse(capsys.readouterr().out)["tps"] < before["tps"]

    def test_msg_size_bound_is_the_configs_tx_size(self, tmp_path, capsys):
        path = tmp_path / "tx.cfg"
        path.write_text("[network]\ntx_size = 8000\n")
        assert cli.main(["eval-throughput", "--msg-size", "5000"]) == 0
        capsys.readouterr()
        assert cli.main(["eval-throughput", str(path),
                         "--msg-size", "5000"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --msg-size: must be >= tx_size (8000)\n"
        assert captured.out == ""

    def test_bad_config_exits_2_naming_key(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[network]\nvalidation_delay = -1\n")
        assert cli.main(["eval-throughput", str(path)]) == 2
        assert "network.validation_delay" in capsys.readouterr().err

    def test_reference_setting(self, capsys):
        assert cli.main(["eval-throughput", "--shards", "10",
                         "--msg-size", "8000000", "--nodes", "100",
                         "--rate", "10000000", "--sem-time", "20",
                         "--reconfigured"]) == 0
        values = self._parse(capsys.readouterr().out)
        assert values["t_prop"] == pytest.approx(144.0)
        assert values["t_round"] == pytest.approx(164.901)
        assert values["tps"] == pytest.approx(121.28, abs=0.01)

    def test_max_sharding_setting(self, capsys):
        cli.main(["eval-throughput", "--shards", "25", "--msg-size", "8000000",
                  "--nodes", "100", "--rate", "10000000", "--sem-time", "20"])
        values = self._parse(capsys.readouterr().out)
        assert values["tps"] == pytest.approx(1246.9, abs=0.05)

    def test_single_shard_setting(self, capsys):
        cli.main(["eval-throughput", "--shards", "1", "--msg-size", "8000000",
                  "--nodes", "100", "--rate", "10000000", "--sem-time", "20"])
        values = self._parse(capsys.readouterr().out)
        assert values["t_prop"] == pytest.approx(2 * 100 * 99 * 0.8)

    def test_invalid_sharding_exits_2(self, capsys):
        code = cli.main(["eval-throughput", "--shards", "30",
                         "--nodes", "100"])
        assert code == 2

    @pytest.fixture
    def no_partition(self, monkeypatch):
        """Fails the test if eval-throughput builds a partition: its list of
        --shards sizes is what a huge valid --shards would allocate."""
        def refuse(*args):
            raise AssertionError(f"partition{args} called")
        monkeypatch.setattr(cli, "partition", refuse, raising=False)

    def test_huge_valid_sharding_runs_without_a_partition(self, capsys,
                                                           no_partition):
        # a list of 10**9 shard sizes would take about 8 GB
        assert cli.main(["eval-throughput", "--shards", "1000000000",
                         "--nodes", "4000000000"]) == 0
        assert self._parse(capsys.readouterr().out)["t_round"] > 0

    @pytest.mark.parametrize("shards, code", [(0, 2), (1, 0), (25, 0),
                                              (26, 2)])
    def test_shards_bounded_by_nodes_over_min_shard_size(
            self, capsys, no_partition, shards, code):
        # 100 nodes of at least 4 hold 1 to 25 shards
        assert cli.main(["eval-throughput", "--shards", str(shards),
                         "--nodes", "100"]) == code
        err = capsys.readouterr().err
        assert ("--shards" in err) == (code == 2)

    @pytest.mark.parametrize("flag, value", [
        ("--rate", "0"), ("--rate", "nan"), ("--rate", "inf"),
        ("--msg-size", "-5"), ("--sem-time", "-1"), ("--sem-time", "inf"),
        ("--rate", "1e-320"), ("--msg-size", "1"),
        pytest.param("--nodes", str(10**160), id="--nodes-10**160"),
        pytest.param("--nodes", str(10**400), id="--nodes-10**400"),
        pytest.param("--msg-size", str(10**400), id="--msg-size-10**400")])
    def test_bad_flag_exits_2_naming_it(self, capsys, flag, value):
        assert cli.main(["eval-throughput", flag, value]) == 2
        captured = capsys.readouterr()
        assert flag in captured.err and captured.out == ""


class TestCmdPosDemo:
    def test_offchain_conserves_tokens(self, capsys):
        assert cli.main(["pos-demo", "--mechanism", "offchain",
                         "--verifiers", "5", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "conserved" in out and "contributors" in out

    def test_interactive_reports_winner(self, capsys):
        assert cli.main(["pos-demo", "--mechanism", "interactive",
                         "--verifiers", "4", "--seed", "2"]) == 0
        assert "wins" in capsys.readouterr().out

    def test_commitment_roundtrip(self, capsys):
        assert cli.main(["pos-demo", "--mechanism", "commitment",
                         "--seed", "3"]) == 0
        assert "verified=True" in capsys.readouterr().out

    def test_tampered_commitment_exits_1(self, capsys):
        code = cli.main(["pos-demo", "--mechanism", "commitment",
                         "--seed", "3", "--tamper"])
        assert code == 1
        assert "verification failure" in capsys.readouterr().out

    def test_unknown_mechanism_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["pos-demo", "--mechanism", "quantum"])
        assert exc.value.code == 2

    def _demo(self, capsys, *args):
        """pos-demo offchain's stdout for 7 verifiers, under args."""
        assert cli.main(["pos-demo", "--mechanism", "offchain",
                         "--verifiers", "7", *args]) in (0, 1)
        return capsys.readouterr().out

    @staticmethod
    def _accuracies(out):
        return [line for line in out.splitlines() if ": accuracy " in line]

    @pytest.mark.parametrize("key, value", [
        ("noise_sigma", "3.0"), ("semantic_dim", "3")])
    def test_config_key_changes_accuracies(self, tmp_path, capsys, key,
                                           value):
        path = tmp_path / "run.cfg"
        path.write_text(f"[network]\n{key} = {value}\n")
        default = self._accuracies(self._demo(capsys))
        assert self._accuracies(self._demo(capsys, str(path))) != default

    def test_environment_noise_sigma_changes_accuracies(self, capsys,
                                                        monkeypatch):
        default = self._accuracies(self._demo(capsys))
        monkeypatch.setenv("SEMSHARD_NETWORK_NOISE_SIGMA", "3.0")
        assert self._accuracies(self._demo(capsys)) != default

    def test_config_threshold_gates_aggregation(self, tmp_path, capsys):
        path = tmp_path / "strict.cfg"
        path.write_text("[network]\naccuracy_threshold = 0.25\n")
        assert "(threshold 0.25)" in self._demo(capsys, str(path))

    def test_seed_flag_overrides_network_seed(self, tmp_path, capsys):
        seeded = tmp_path / "seeded.cfg"
        seeded.write_text("[network]\nseed = 2\n")
        other = tmp_path / "other.cfg"
        other.write_text("[network]\nseed = 9\n")
        by_flag = self._demo(capsys, "--seed", "2")
        assert self._demo(capsys, str(seeded)) == by_flag
        assert self._demo(capsys, str(other), "--seed", "2") == by_flag
        # the defaults' network.seed is 0, the old default of --seed
        assert self._demo(capsys) == self._demo(capsys, "--seed", "0")

    def test_negative_seed_exits_2_naming_key(self, capsys):
        assert cli.main(["pos-demo", "--mechanism", "offchain",
                         "--seed", "-1"]) == 2
        assert "network.seed" in capsys.readouterr().err

    def test_semantic_vector_past_1_gib_exits_2_naming_key(self, tmp_path,
                                                          capsys):
        path = tmp_path / "wide.cfg"
        path.write_text(f"[network]\nsemantic_dim = "
                        f"{MAX_ARRAY_BYTES // 8 + 1}\n")
        assert cli.main(["pos-demo", str(path),
                         "--mechanism", "offchain"]) == 2
        captured = capsys.readouterr()
        assert "network.semantic_dim" in captured.err
        assert captured.out == ""
