"""Every module of the package uses each name it imports, and every private
module-level name is used somewhere besides its definition, in the package
itself unless it is a named test reference."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nisets"
TESTS = Path(__file__).resolve().parent


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name the source imports and never reads; a
    name listed in a module-level ``__all__`` counts as read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from bisect import insort\n"
              "import numpy as np\n"
              "__all__ = ['os']\n"
              "np.zeros(1)\n")
    assert unused_imports(source) == [(3, "insort")]


def private_definitions(source: str) -> list[tuple[int, str]]:
    """(line, name) of each module-level function, class or assigned name
    that starts with a single underscore."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    return [(line, name) for line, name in found
            if name.startswith("_") and not name.startswith("__")]


def references(source: str) -> set[str]:
    """Names the source reads, imports, reaches as an attribute or spells
    as a string (as ``monkeypatch.setattr`` does); a definition or an
    assignment is not a reference."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def orphaned_private_names(modules: dict[str, str], others: list[str]) -> list[tuple[str, str]]:
    """(module, name) of each private module-level name of ``modules``
    (name -> source) that no module and no other source references."""
    used = set().union(*map(references, [*modules.values(), *others]))
    return sorted((module, name) for module, source in modules.items()
                  for _, name in private_definitions(source) if name not in used)


def test_no_orphaned_private_helpers():
    modules = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    tests = [path.read_text() for path in sorted(TESTS.glob("*.py"))]
    assert orphaned_private_names(modules, tests) == []


# private names the package keeps only as the tests' reference
TEST_REFERENCES = [("oracle.py", "_profile_loop")]


def test_no_private_helper_left_to_the_tests_alone():
    modules = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert orphaned_private_names(modules, []) == TEST_REFERENCES


def test_an_orphaned_private_helper_is_found():
    module = ("_LIMIT = 3\n"
              "_unused: int = 0\n"
              "def _helper():\n"
              "    return _LIMIT\n"
              "def _orphan():\n"
              "    pass\n"
              "class _Patched:\n"
              "    pass\n"
              "def public():\n"
              "    return _helper()\n")
    test = "monkeypatch.setattr(module, '_Patched', None)\n"
    assert orphaned_private_names({"m.py": module}, [test]) == [("m.py", "_orphan"),
                                                                ("m.py", "_unused")]
