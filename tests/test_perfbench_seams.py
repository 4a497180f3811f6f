"""The traced benchmark's seams still exist in the program.

``perfbench/hook/perfbench_layers.py`` times each layer by patching
named modules, classes and functions (``PATCHES``) as they are
imported. A rename or deletion in ``src/`` would otherwise surface only
when a traced benchmark run raises. This test installs the hook in a
fresh interpreter, exactly as a traced run does (``sitecustomize`` on
``PYTHONPATH`` plus ``PERFBENCH_LAYERS_DIR``), imports every module the
hook names, and checks that each import went through the hook: a patch
runs inside the import, so one that no longer fits raises there.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HOOK = ROOT / "perfbench" / "hook"

PROBE = r"""
import importlib
import importlib.util
import json

import perfbench_layers

assert perfbench_layers._installed, "sitecustomize did not install the hook"


report = {}
for name, patch in perfbench_layers.PATCHES.items():
    try:
        if importlib.util.find_spec(name) is None:
            report[name] = f"missing {patch.__name__}"
            continue
        module = importlib.import_module(name)
        # The hook's finder swaps in an exec_module that runs the patch.
        hooked = module.__spec__.loader.exec_module.__name__ == "patched_exec"
        report[name] = "ok" if hooked else "not patched"
    except Exception as exc:
        report[name] = f"{type(exc).__name__}: {exc}"
print(json.dumps(report))
"""


def test_every_perfbench_patch_applies(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(HOOK), str(ROOT / "src")])
    env["PERFBENCH_LAYERS_DIR"] = str(tmp_path)
    env.pop("PERFBENCH_ROLE", None)
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=300,
                          cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])

    broken = {name: status for name, status in report.items()
              if status != "ok"}
    assert not broken, broken
