"""The package's public names, and imports that every module uses."""
import ast
from pathlib import Path

import acbm

ROOT = Path(__file__).resolve().parent.parent


def test_every_public_name_resolves():
    assert len(set(acbm.__all__)) == len(acbm.__all__)
    for name in acbm.__all__:
        assert getattr(acbm, name, None) is not None, name


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never references; `from __future__`
    imports and names listed in `__all__` are exempt."""
    tree = ast.parse(source)
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport os, sys\n"
              "from a import b, c as d\n__all__ = ['b']\nprint(sys.argv)\n")
    assert unused_imports(source) == ["os (line 2)", "d (line 3)"]


def test_no_unused_imports():
    files = sorted((ROOT / "src" / "acbm").glob("*.py"))
    files += sorted((ROOT / "tests").glob("*.py"))
    found = {str(f.relative_to(ROOT)): unused_imports(f.read_text())
             for f in files}
    assert {f: names for f, names in found.items() if names} == {}
