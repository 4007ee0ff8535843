"""The determinism contract: scripts/output_digests.py against the digests
committed in tests/output_digests.txt.

The script runs once, in a subprocess; its one two-worker sweep is the only
pool this test starts. Its three "# " header lines name what the float32
gemms' bits depend on: the numpy version, the BLAS build and the CPU model.

- On a machine whose header matches the file's, every digest line must
  match. An output byte that moves then fails here, and mending it is a
  one-file diff of tests/output_digests.txt, which CHANGES.md must explain.
- On any other machine only the within-checkout twins are compared: the two
  plain `train` runs must print equal digests, and so must the three `sweep`
  runs. The test says so in a warning.
"""

import subprocess
import sys
import warnings
from collections import defaultdict
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "output_digests.py"
COMMITTED = Path(__file__).with_name("output_digests.txt")


def parse(text: str) -> tuple[list[str], list[tuple[str, str, str]]]:
    """The header lines, and each digest line as (what ran, file, digest)."""
    lines = text.splitlines()
    header = [line for line in lines if line.startswith("# ")]
    digests = [tuple(line.rsplit(None, 2)) for line in lines
               if not line.startswith("# ")]
    return header, digests


def twins(digests) -> dict[tuple[str, str], list[str]]:
    """The digests each twin group printed, by (group, file)."""
    groups = defaultdict(list)
    for what, name, digest in digests:
        for group in ("train --seed 3, run ", "sweep --workers "):
            if what.startswith(group):
                groups[group, name].append(digest)
    return groups


def test_outputs_match_the_committed_digests():
    run = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True,
                         text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    header, digests = parse(run.stdout)
    want_header, want_digests = parse(COMMITTED.read_text())
    # the same runs and files, in the same order, whatever the machine
    assert [d[:2] for d in digests] == [d[:2] for d in want_digests]
    groups = twins(digests)
    assert sorted(map(len, groups.values())) == [2, 2, 3, 3, 3]
    for (group, name), seen in groups.items():
        assert len(set(seen)) == 1, f"{group}* {name}: {seen}"
    if header == want_header:
        assert digests == want_digests
    else:
        def names(lines):
            return "; ".join(line[2:] for line in lines)
        warnings.warn(f"this machine ({names(header)}) is not the one "
                      f"{COMMITTED.name} was made on ({names(want_header)}):"
                      " compared only the train and sweep twins")
