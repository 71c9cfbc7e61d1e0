"""Every name a secfan module imports is used in that module, and every
private top-level helper is used somewhere in the package."""

import ast
from pathlib import Path

import pytest

import secfan

MODULES = sorted(Path(secfan.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression of it reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds a
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_a_stale_import_is_caught():
    source = "from .cones import cone_from_rays, zero_cone\nx = cone_from_rays([], 2)\n"
    assert unused_imports(source) == ["zero_cone (line 1)"]


def dead_private_helpers(sources: dict[str, str]) -> list[str]:
    """Private top-level functions and classes no code outside their own body names."""
    defined, named = {}, set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = stmt.name
                if owner.startswith("_") and not owner.startswith("__"):
                    defined[owner] = f"{owner} ({module} line {stmt.lineno})"
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    named.add((node.id, owner))
                elif isinstance(node, ast.Attribute):
                    named.add((node.attr, owner))
                elif isinstance(node, ast.alias):
                    named.add((node.name, owner))
    used = {name for name, owner in named if name != owner}
    return [where for name, where in defined.items() if name not in used]


def test_package_uses_every_private_helper():
    sources = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    assert dead_private_helpers(sources) == []


def test_a_dead_helper_is_caught():
    sources = {
        "a.py": "def _used():\n    return 1\n\n\ndef _dead(n):\n    return _dead(n - 1)\n",
        "b.py": "from .a import _used\n\n\nclass _Gone:\n    pass\n",
    }
    assert dead_private_helpers(sources) == ["_dead (a.py line 5)", "_Gone (b.py line 4)"]
