"""The demos keep working against the package API.

Demos 01 and 02 take about a second each, so they run end to end. Demos 03
and 04 pretrain and stream for tens of seconds, so only the names they
import from tsadapt are resolved.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tsadapt

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", ["01_tensor_engine.py", "02_augmentations.py"])
def test_fast_demo_runs(name):
    src = str(Path(tsadapt.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(DEMOS / name)], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", ["03_shift_recovery.py", "04_ablations_and_sweep.py"])
def test_slow_demo_imports_resolve(name):
    tree = ast.parse((DEMOS / name).read_text())
    imports = [node for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module
               and node.module.split(".")[0] == "tsadapt"]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
