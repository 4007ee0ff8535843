"""Print SHA-256 prefixes of the outputs that pin semshard's bits.

Every speed change must leave these unchanged, unless CHANGES.md says why
they moved; run this script from a copy of the checkout before the change and
from one after, and compare the lines:

    python3 scripts/output_digests.py

It imports semshard from the src/ beside this script, so each checkout
digests its own code, and writes only into a temporary directory. Covered:
`train` (30 epochs, seed 3) run twice, the same `train` with a 500-row
replay ring, which its 3,000 pushes wrap six times, the same `train` with
batches of 37 and 16 hidden units, sizes that are not multiples of a BLAS
tile, so the gemms' edge kernels run end to end, a small `sweep` run
serially and on two workers and then serially again into the serial run's
directory, so every cell is reused, `pos-demo` (7 verifiers, seed 2) under
each mechanism, the same offchain `pos-demo` under a config file that sets
`noise_sigma` and `accuracy_threshold`, so that the command's constants are
seen to come from its config, and `eval-throughput` on its defaults. One
line per output: what ran, the file (or stdout), and the first 16 hex digits
of its SHA-256.
Each `sweep` run gets three lines: its `sweep.csv`; "cells", one digest
over every cell's `rewards.csv` and `network.bin` in sorted path order, each
file's path relative to `--out` hashed before its bytes; and "config_hash",
one digest over every cell manifest's `config_hash`, one per line in sorted
path order. A resumed sweep reuses a cell only when that hash matches, so a
change to the canonical config text, which would make every stored sweep
recompute, shows on this line. `sweep.csv` holds only each epoch's mean
reward, which depends only on the actions taken, so a learner change that
moves the weights and losses but no greedy action shows only on the cells
line.
The two plain `train` runs, and the three `sweep` runs, must print equal
digests: within one checkout that shows determinism and a byte-identical
resume, also when the outputs moved on purpose. A run takes a few seconds.

Three "# " lines come first and name what the float32 gemms' bits depend
on: the numpy version, the BLAS build numpy reports, and the CPU model.
tests/output_digests.txt holds this script's output as committed, and
tests/test_output_digests.py compares a fresh run against it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import platform
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from semshard import cli  # noqa: E402
from semshard.config import read_manifest  # noqa: E402

TRAIN_CFG = "[agent]\nepochs = 30\n"
RING_CFG = TRAIN_CFG + "buffer_capacity = 500\n"
EDGE_CFG = TRAIN_CFG + "batch_size = 37\nhidden_units = 16\n"
SWEEP_CFG = "[agent]\nepochs = 6\nepsilon_decay = true\n"
SWEEP_GRID = "nodes=100,500;rates=60,100;seeds=1,2"
# noise that drops three of the seven verifiers below the threshold
POS_CFG = "[network]\nnoise_sigma = 1.0\naccuracy_threshold = 0.7\n"


def machine() -> list[str]:
    """The header: numpy's version, its BLAS build and the CPU model."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".rstrip()
    except (TypeError, KeyError):  # numpy before 1.26 has no dict form
        blas = "unknown"
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return [f"# numpy {np.__version__}",
            f"# blas {blas}",
            f"# cpu {cpu}"]


def show(what: str, name: str, data: bytes) -> None:
    print(f"{what:26s} {name:12s} {hashlib.sha256(data).hexdigest()[:16]}")


def run(argv: list[str]) -> bytes:
    """Run the CLI in this process; its stdout, failing on a non-zero exit."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"semshard {' '.join(argv)} exited {code}")
    return out.getvalue().encode()


def main() -> int:
    print("\n".join(machine()))
    with tempfile.TemporaryDirectory(prefix="semshard-digests-") as tmp:
        tmp = Path(tmp)
        (tmp / "train.cfg").write_text(TRAIN_CFG)
        (tmp / "ring.cfg").write_text(RING_CFG)
        (tmp / "edge.cfg").write_text(EDGE_CFG)
        (tmp / "sweep.cfg").write_text(SWEEP_CFG)
        (tmp / "pos.cfg").write_text(POS_CFG)

        for cfg, what in (("train", "run 1"), ("train", "run 2"),
                          ("ring", "ring 500"), ("edge", "b37 h16")):
            out = tmp / what.replace(" ", "-")
            run(["train", str(tmp / f"{cfg}.cfg"), "--seed", "3",
                 "--out", str(out)])
            for name in ("rewards.csv", "network.bin"):
                show(f"train --seed 3, {what}", name,
                     (out / name).read_bytes())

        # the third run resumes the first in its directory: every cell reused
        for workers, what in (("1", "1"), ("2", "2"), ("1", "1, resumed")):
            out = tmp / f"sweep-{workers}"
            run(["sweep", str(tmp / "sweep.cfg"), "--grid", SWEEP_GRID,
                 "--workers", workers, "--out", str(out)])
            show(f"sweep --workers {what}", "sweep.csv",
                 (out / "sweep.csv").read_bytes())
            cells = sorted(p for p in (out / "cells").rglob("*")
                           if p.name in ("rewards.csv", "network.bin"))
            show(f"sweep --workers {what}", "cells", b"".join(
                p.relative_to(out).as_posix().encode() + b"\0" + p.read_bytes()
                for p in cells))
            manifests = sorted((out / "cells").rglob("manifest.json"))
            show(f"sweep --workers {what}", "config_hash", "".join(
                read_manifest(p)["config_hash"] + "\n"
                for p in manifests).encode())

        for mechanism in ("offchain", "interactive", "commitment"):
            stdout = run(["pos-demo", "--verifiers", "7", "--seed", "2",
                          "--mechanism", mechanism])
            show(f"pos-demo {mechanism}", "stdout", stdout)
        show("pos-demo offchain, pos.cfg", "stdout", run(
            ["pos-demo", str(tmp / "pos.cfg"), "--verifiers", "7", "--seed",
             "2", "--mechanism", "offchain"]))

        show("eval-throughput defaults", "stdout", run(["eval-throughput"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
