"""No module of the package, of this test suite or of the benchmark imports a
name it never uses.

A stdlib ``ast`` scan, so the check needs no linter.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _checked_files():
    return [path for folder in ("src/lpat", "tests", "perfbench")
            for path in sorted((ROOT / folder).glob("*.py"))]


def unused_imports(path: Path) -> list[str]:
    """``file:line name`` for each imported name that no expression reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items()
            if name not in used]


def test_unused_import_scan_flags_what_it_should(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from __future__ import annotations\n"
                     "import os\nimport os.path as osp\nimport numpy as np\n"
                     "from math import pi, tau\n"
                     "x = np.zeros(1) * pi\n")
    assert unused_imports(probe) == ["probe.py:2 os", "probe.py:3 osp", "probe.py:5 tau"]


def test_no_module_imports_a_name_it_does_not_use():
    files = _checked_files()
    assert len(files) > 10
    assert [hit for path in files for hit in unused_imports(path)] == []
