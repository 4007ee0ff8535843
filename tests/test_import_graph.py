"""semshard's modules are its API, and the package imports none of them
itself. So each module loads exactly the semshard modules it imports, and a
refactor that leans on an import made elsewhere, or adds an import cycle,
fails here."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Every semshard module that importing the key loads, the key included.
# env imports consensus only for perfbench's call-site tracer.
LOADS = {
    "core": {"core"},
    "throughput": {"core", "throughput"},
    "consensus": {"core", "consensus"},
    "env": {"core", "throughput", "consensus", "env"},
    "dqn": {"core", "throughput", "consensus", "env", "dqn"},
    "config": {"core", "throughput", "consensus", "env", "dqn", "config"},
    "cli": {"core", "throughput", "consensus", "env", "dqn", "config", "cli"},
}

SCRIPT = """\
import importlib, json, sys
loaded = {}
for name in sys.argv[1:]:
    # the package too, or "from . import x" would take a stale attribute
    for key in [k for k in sys.modules if k.split(".")[0] == "semshard"]:
        del sys.modules[key]
    importlib.import_module("semshard." + name)
    loaded[name] = sorted(k.split(".", 1)[1] for k in sys.modules
                          if k.startswith("semshard."))
print(json.dumps(loaded))
"""


def test_each_module_loads_only_what_it_imports():
    # one fresh interpreter, so that no earlier test has loaded a module
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, "-c", SCRIPT, *LOADS],
                           capture_output=True, text=True, timeout=60,
                           env={**os.environ, "PYTHONPATH": path})
    assert child.returncode == 0, child.stderr
    loaded = json.loads(child.stdout.splitlines()[-1])
    assert loaded == {name: sorted(mods) for name, mods in LOADS.items()}
