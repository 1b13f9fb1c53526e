"""Every name a demo imports from morphguard must exist, and README's
library quick start must run.

The demos are narrative scripts that no other test runs; parsing them
keeps a renamed or deleted public name from breaking one unnoticed.
"""

import ast
import importlib
import math
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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


def test_readme_library_quick_start_runs():
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Quick start (library)\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1, "the library quick start should hold one python block"
    namespace = {}
    exec(compile(blocks[0], "README.md quick start", "exec"), namespace)
    assert math.isfinite(namespace["result"].loss)

