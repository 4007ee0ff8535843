import csv
import re
from pathlib import Path
from typing import get_type_hints

import pytest

from semshard import cli
from semshard.config import (canonical_text, config_hash, default_grid,
                             load_config, parse_grid, read_manifest)
from semshard.core import ConfigError, NetworkConfig
from semshard.dqn import Hyperparameters

FLOAT_KEYS = [f"{section}.{key}"
              for section, cls in (("network", NetworkConfig),
                                   ("agent", Hyperparameters))
              for key, kind in get_type_hints(cls).items() if kind is float]


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
        grid = default_grid()
        assert grid.nodes_initial == (100, 200, 300, 400, 500)
        assert grid.rate_max == tuple(m * 1e6 for m in (60, 70, 80, 90, 100))
        assert len(list(grid.cells())) == 5 * 5 * len(grid.seeds)

    def test_parse_ranges_and_lists(self):
        grid = parse_grid("nodes=100:300:100;rates=60,80;seeds=4")
        assert grid.nodes_initial == (100, 200, 300)
        assert grid.rate_max == (60e6, 80e6)
        assert grid.seeds == (4,)

    def test_partial_spec_keeps_default_axes(self):
        grid = parse_grid("seeds=9")
        assert grid.seeds == (9,)
        assert grid.nodes_initial == default_grid().nodes_initial

    def test_bad_axis_rejected(self):
        with pytest.raises(ConfigError, match="warp"):
            parse_grid("warp=1,2")


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
        path = tmp_path / "bad.cfg"
        path.write_text("[agent]\ndiscount = 1.5\n")
        code = cli.main(["train", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "discount" in capsys.readouterr().err

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
        # a run killed while writing leaves a manifest cut short
        manifest = out / "cells" / "n60_r60000000_s3_adaptive" / "manifest.json"
        manifest.write_text(manifest.read_text()[:40])
        (manifest.parent / "rewards.csv").write_text(
            "epoch,mean_reward,epsilon,mean_loss\n0,123.5,0.1,0.0\n")
        assert cli.main(args) == 0
        assert "config_hash" in read_manifest(manifest)
        assert (out / "sweep.csv").read_bytes() == first

    def test_bad_grid_cell_fails_before_any_cell_runs(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.cfg"
        cfg_path.write_text(SMALL_CFG)
        out = tmp_path / "sweep"
        code = cli.main(["sweep", str(cfg_path), "--out", str(out),
                         "--grid", "nodes=60,700;rates=60;seeds=3"])
        assert code == 2
        assert "network.nodes_initial" in capsys.readouterr().err
        assert not (out / "cells").exists()

    def test_parallel_equals_serial(self, tmp_path):
        cfg_path = tmp_path / "cfg.cfg"
        cfg_path.write_text(SMALL_CFG)
        grid = "nodes=60,70;rates=60;seeds=3"
        out_serial, out_par = tmp_path / "s", tmp_path / "p"
        cli.main(["sweep", str(cfg_path), "--out", str(out_serial),
                  "--grid", grid])
        cli.main(["sweep", str(cfg_path), "--out", str(out_par),
                  "--grid", grid, "--workers", "2"])
        assert (out_serial / "sweep.csv").read_bytes() \
            == (out_par / "sweep.csv").read_bytes()


class TestCmdEvalThroughput:
    def _parse(self, text):
        values = {}
        for line in text.splitlines():
            parts = line.split()
            values[parts[0]] = float(parts[1])
        return values

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

    @pytest.mark.parametrize("flag, value", [
        ("--rate", "0"), ("--rate", "nan"), ("--msg-size", "-5"),
        ("--sem-time", "-1")])
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
