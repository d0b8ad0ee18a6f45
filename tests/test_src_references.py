"""Every private module-level function or class in ``src/radwalk`` is used
by the package itself; test-only oracles live in ``tests/helpers.py``."""

import ast
from pathlib import Path

import radwalk

SRC = Path(radwalk.__file__).resolve().parent


def _names(node) -> set[str]:
    """The names that code under ``node`` reads, as variables or attributes."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_private_definition_is_referenced_in_src():
    defs, uses = [], []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            is_def = isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            if is_def and stmt.name.startswith("_"):
                defs.append((path.name, stmt))
            uses.append((stmt, _names(stmt)))
    # a reference inside the definition itself (recursion) does not count
    unused = [f"{module}:{stmt.name}" for module, stmt in defs
              if not any(stmt.name in names for other, names in uses if other is not stmt)]
    assert not unused, f"private definitions no code in src uses: {unused}"
