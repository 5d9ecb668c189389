"""No module of the package, of this test suite or of the benchmark imports a
name it never uses, every top-level definition of the package is read
somewhere, and the package runs without SciPy.

Stdlib ``ast`` scans, so the checks need no linter.
"""

import ast
import os
import subprocess
import sys
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


def _defined(stmt: ast.stmt) -> list[str]:
    """Names a top-level statement defines: a ``def``, a ``class`` or the
    targets of an assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _reads(node: ast.AST) -> set[str]:
    """Names read under ``node``: loaded names, attribute names, and string
    constants (the benchmark names the functions it traces by string)."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.add(n.value)
    return out


def dead_definitions(defining: list[Path], reading: list[Path]) -> list[str]:
    """``file:line name`` for each top-level, non-dunder definition in
    ``defining`` that no file of ``reading`` reads outside the statement
    that defines it."""
    read: set[str] = set()
    for path in reading:
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            read |= _reads(stmt) - set(_defined(stmt))
    return [f"{path.name}:{stmt.lineno} {name}" for path in defining
            for stmt in ast.parse(path.read_text(), filename=str(path)).body
            for name in _defined(stmt)
            if name not in read and not (name.startswith("__") and name.endswith("__"))]


def test_dead_definition_scan_flags_what_it_should(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("__version__ = '1'\n"
                     "USED, UNUSED = 1, 2\n"
                     "LIMIT: int = 3\n"
                     "def helper():\n    return USED\n"
                     "def recurse(n):\n    return recurse(n - 1)\n"
                     "class Thing:\n    pass\n"
                     "def by_attribute():\n    pass\n"
                     "def by_string():\n    pass\n")
    user = tmp_path / "user.py"
    user.write_text("import probe\n"
                    "probe.helper(probe.by_attribute)\n"
                    "getattr(probe, 'by_string')()\n")
    assert dead_definitions([probe], [probe, user]) == [
        "probe.py:2 UNUSED", "probe.py:3 LIMIT", "probe.py:6 recurse", "probe.py:8 Thing"]


def test_every_top_level_definition_of_the_package_is_read():
    package = sorted((ROOT / "src/lpat").glob("*.py"))
    assert dead_definitions(package, _checked_files()) == []


def test_the_package_loads_no_scipy():
    """SciPy is a test dependency only: a fresh interpreter that imports the
    CLI and every module of the package has no ``scipy`` module loaded."""
    modules = sorted(f"lpat.{path.stem}" for path in (ROOT / "src/lpat").glob("*.py")
                     if path.stem != "__init__")
    probe = (f"import sys, lpat.cli, {', '.join(modules)}\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"
