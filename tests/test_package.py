"""The package's public names and its dependencies."""

import ast
import sys
from pathlib import Path

import tsadapt


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from tsadapt import *", namespace)  # a stale name raises AttributeError
    assert set(tsadapt.__all__) <= namespace.keys()
    assert len(set(tsadapt.__all__)) == len(tsadapt.__all__)


def test_imports_stay_within_stdlib_numpy_and_scipy():
    # the package depends on numpy and scipy only; a relative import stays
    # inside the package
    allowed = set(sys.stdlib_module_names) | {"numpy", "scipy"}
    outside = []
    for path in sorted(Path(tsadapt.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {n}" for n in names if n.split(".")[0] not in allowed]
    assert outside == []
