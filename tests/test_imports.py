"""Every module of the package uses each name it imports, every private
module-level name is used somewhere besides its definition, in the package
itself unless it is a named test reference, and every public name is used
by another module of the package or is on one of two named lists.
Importing the package starts no BLAS thread and loads no process pool."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nisets"
TESTS = Path(__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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


def test_no_private_helper_left_to_the_tests_alone():
    modules = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert orphaned_private_names(modules, []) == []


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


def package_imports(source: str) -> set[str]:
    """Names the source imports with ``from .module import name`` or
    ``from nisets.module import name``; a method of the same name is not
    one of them."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").split(".")[0] == "nisets")
            for alias in node.names}


def public_names_unused_by_the_package(modules: dict[str, str]) -> list[str]:
    """Names of the ``__all__`` of ``__init__.py`` that no other module of
    ``modules`` (name -> source) imports."""
    exported = next(ast.literal_eval(node.value) for node in ast.parse(modules["__init__.py"]).body
                    if isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets))
    used = set().union(*(package_imports(source) for module, source in modules.items()
                         if module != "__init__.py"))
    return [name for name in exported if name not in used]


# public names no other module of the package uses, kept because a library
# user calls them or receives them from a call
LIBRARY_ENTRY_POINTS = [
    # what the entry points return or raise
    "ConjectureRecord", "EdgeTerm", "FormatError", "OracleProfile", "ScanReport",
    "StructuralSummary", "Violation", "WorkLimitExceeded",
    # the tree DP's one-tree reference and the ratio claim's population
    "tree_scalars", "path_cycle_unions",
    # the graph classes with their labelled counts, and the oracle's summary
    "labeled_graph_classes", "oracle_summary",
    "__version__",
]

# public names that, besides the tests, only the benchmark's replay in
# perfbench/ holds; deleting the replay frees them
HELD_BY_PERFBENCH = ["LevelSequence", "is_good_graph", "spot_check_trees",
                     "tree_canonical_key"]


def test_every_public_name_is_used_or_listed():
    modules = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    unused = public_names_unused_by_the_package(modules)
    # an entry point that some module uses needs no listing
    assert [name for name in LIBRARY_ENTRY_POINTS if name not in unused] == []
    held = set().union(*(package_imports(path.read_text()) for path in sorted(PERFBENCH.glob("*.py"))))
    rest = [name for name in unused if name not in LIBRARY_ENTRY_POINTS]
    assert [name for name in rest if name not in held] == []
    assert sorted(rest) == HELD_BY_PERFBENCH


def test_an_unused_public_name_is_found():
    modules = {"__init__.py": "from .a import f, g, h\n__all__ = ['f', 'g', 'h']\n",
               "a.py": "def f():\n    return g()\ndef g():\n    pass\ndef h():\n    pass\n",
               "b.py": "from .a import f\nf()\nx.h()\n"}
    assert public_names_unused_by_the_package(modules) == ["g", "h"]


def unresolved_package_imports(source: str) -> list[str]:
    """``module.name`` of each ``from nisets.module import name`` of the
    source, nested ones included, whose module does not import or does not
    hold the name."""
    missing = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "nisets":
            try:
                module = importlib.import_module(node.module)
            except ImportError:
                module = None
            missing += [f"{node.module}.{alias.name}" for alias in node.names
                        if not hasattr(module, alias.name)]
    return missing


@pytest.mark.parametrize("path", sorted(PERFBENCH.glob("*.py")), ids=lambda p: p.name)
def test_perfbench_package_imports_resolve(path):
    # the benchmark's replay imports the package only when it traces
    assert unresolved_package_imports(path.read_text()) == []


def test_an_unresolved_package_import_is_found():
    source = ("from nisets.engine import Engine, no_such_name\n"
              "def f():\n"
              "    from nisets.no_such_module import g\n"
              "from os import path\n")
    assert unresolved_package_imports(source) == ["nisets.engine.no_such_name",
                                                  "nisets.no_such_module.g"]


IMPORT_PROBE = ("import os, nisets; print(os.environ.get('OPENBLAS_NUM_THREADS')); "
                "print(open('/proc/self/status').read().split('Threads:')[1].split()[0])")


def probe_import(**env_extra) -> list[str]:
    """The OpenBLAS thread setting and the thread count of a fresh
    interpreter that has imported the package."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(PACKAGE.parent), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True,
                          env={**env, **env_extra}, check=True)
    return proc.stdout.split()


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc")
def test_import_starts_no_blas_thread():
    setting, threads = probe_import()
    assert setting == "1"
    # OpenBLAS would start one thread per CPU of the affinity
    if len(os.sched_getaffinity(0)) > 1:
        assert threads == "1"
    # a value the user sets wins
    assert probe_import(OPENBLAS_NUM_THREADS="2")[0] == "2"


def test_import_loads_no_pool_module():
    # multiprocessing.pool is slow to import, and only a pool process that
    # sends back an error needs it
    probe = "import sys, nisets.cli; print('multiprocessing.pool' in sys.modules)"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(PACKAGE.parent), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env,
                          check=True)
    assert proc.stdout.split() == ["False"]
