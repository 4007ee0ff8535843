"""Time one workload's set-up in a fresh interpreter and print the seconds.

Set-up is what a user pays before the first operation: importing semshard,
loading the config and constructing the env, networks and ledger.

    python3 perfbench/setup_probe.py <workload> <seed> <work dir>
"""

import sys
import time

t0 = time.perf_counter()

from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

name, seed, work = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
workload = workloads.WORKLOADS[name](seed, work, 1)
workload.prepare()
workload.build()
print(repr(time.perf_counter() - t0))
