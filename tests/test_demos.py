"""Every name a demo imports from morphguard must exist.

The demos are narrative scripts that no other test runs; parsing them
keeps a renamed or deleted public name from breaking one unnoticed.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def morphguard_imports(path: Path):
    """(module, name) for each `from morphguard... import name` in a file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "morphguard":
            for alias in node.names:
                yield node.module, alias.name


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(path):
    imports = list(morphguard_imports(path))
    assert imports, f"{path.name} imports nothing from morphguard"
    missing = [f"{module}.{name}" for module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"{path.name} imports missing names: {missing}"
