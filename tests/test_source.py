"""Static checks over the package's own source files."""
from __future__ import annotations

import ast
from pathlib import Path

import lfbp

PACKAGE = Path(lfbp.__file__).parent


def unused_imports(path: Path) -> list[str]:
    """``file:line name`` for each name a module imports and never reads,
    leaving out ``__future__`` imports and names re-exported in ``__all__``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in sorted(imported.items()) if name not in used]


def test_unused_imports_flagged(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from json import dumps, loads as load\n"
        "from math import lcm\n"
        "__all__ = ['lcm']\n"
        "load(dumps(1))\n"
    )
    assert unused_imports(probe) == ["probe.py:2 os"]


def test_no_unused_imports_in_package():
    found = [entry for path in sorted(PACKAGE.glob("*.py")) for entry in unused_imports(path)]
    assert found == []
