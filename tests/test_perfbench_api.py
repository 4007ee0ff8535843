"""The benchmark builds its workloads and runs its self-test through
semshard's API by name; a change that drops or renames a name they use must
fail here, not in the benchmark run. Each runs in a fresh interpreter, as
perfbench/run.py runs them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
PERFBENCH = ROOT / "perfbench"


@pytest.mark.parametrize("workload", ["adaptive-train", "sweep", "pos-rounds"])
def test_setup_probe_builds_the_workload(workload, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "setup_probe.py"), workload, "1",
         str(tmp_path)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout.splitlines()[-1]) > 0.0


def test_selftest_reports_no_problems(tmp_path):
    code = ("import sys, pathlib, selftest\n"
            "problems = selftest.run(pathlib.Path(sys.argv[1]))\n"
            "print(*problems, sep='\\n')\n"
            "sys.exit(1 if problems else 0)\n")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(PERFBENCH), str(ROOT / "src")]))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
