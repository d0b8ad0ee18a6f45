"""Every private module-level function, class or constant in ``src/radwalk``
is used by the package itself, and every name a module's ``__all__`` lists
is defined there; test-only oracles live in ``tests/helpers.py``."""

import ast
from pathlib import Path

import radwalk

SRC = Path(radwalk.__file__).resolve().parent


def _names(node) -> set[str]:
    """The names that code under ``node`` reads, as variables or attributes."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}


def _defined_names(stmt) -> list[str]:
    """The names a module-level statement defines: a function or class, or
    the targets of an assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _private_names(stmt) -> list[str]:
    """The private names a module-level statement defines.  Dunders such as
    ``__all__`` are not private."""
    return [name for name in _defined_names(stmt) if name.startswith("_") and not name.startswith("__")]


def _unused(sources: dict[str, str]) -> list[str]:
    """``module:name`` for each private module-level name no other statement reads."""
    defs, uses = [], []
    for module, text in sources.items():
        for stmt in ast.parse(text).body:
            defs += [(module, name, stmt) for name in _private_names(stmt)]
            uses.append((stmt, _names(stmt)))
    # a reference inside the definition itself (recursion) does not count
    return [f"{module}:{name}" for module, name, stmt in defs
            if not any(name in names for other, names in uses if other is not stmt)]


def test_every_private_definition_is_referenced_in_src():
    unused = _unused({path.name: path.read_text() for path in sorted(SRC.glob("*.py"))})
    assert not unused, f"private definitions no code in src uses: {unused}"


def test_a_dead_private_constant_or_function_is_caught():
    source = ("_USED = 1\n_DEAD = 2\n_A, _B = 3, 4\n__all__ = []\n"
              "def _dead():\n    return _USED + _A\n"
              "def run():\n    _DEAD = 5\n    return _B\n")
    assert _unused({"m.py": source}) == ["m.py:_DEAD", "m.py:_dead"]


def _undefined_exports(sources: dict[str, str]) -> list[str]:
    """``module:name`` for each name in a module's ``__all__`` that no
    module-level definition or import of that module binds."""
    missing = []
    for module, text in sources.items():
        body = ast.parse(text).body
        bound = {name for stmt in body for name in _defined_names(stmt)}
        bound |= {(a.asname or a.name).split(".")[0] for stmt in body
                  if isinstance(stmt, (ast.Import, ast.ImportFrom)) for a in stmt.names}
        exported = [ast.literal_eval(stmt.value) for stmt in body if "__all__" in _defined_names(stmt)]
        missing += [f"{module}:{name}" for names in exported for name in names if name not in bound]
    return missing


def test_every_exported_name_is_defined_in_its_module():
    missing = _undefined_exports({path.name: path.read_text() for path in sorted(SRC.glob("*.py"))})
    assert not missing, f"names in __all__ that their module does not define: {missing}"


def test_an_export_of_a_deleted_name_is_caught():
    source = ("from math import prod\nimport numpy as np\nLIMIT = 1\n"
              "__all__ = ['LIMIT', 'run', 'Spec', 'prod', 'np', 'gone', 'old_run']\n"
              "def run():\n    gone = 2\n    return gone\nclass Spec:\n    pass\n")
    assert _undefined_exports({"m.py": source}) == ["m.py:gone", "m.py:old_run"]
