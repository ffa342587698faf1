"""Import hygiene of the package, in place of a linter: every name that a
module of src/fockcap imports is read in the scope that imports it.

`from __future__` imports and import statements marked `# noqa: F401` (a
re-export kept on purpose) are exempt.
"""

import ast
import os

import pytest

import fockcap

SRC = os.path.dirname(os.path.abspath(fockcap.__file__))
MODULES = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))


def unused_imports(text: str) -> list[tuple[int, str]]:
    """(line, name) of each name bound by an import of text that its scope,
    the module or the innermost function holding the import, never reads."""
    tree = ast.parse(text)
    lines = text.splitlines()
    owner = {}
    # ast.walk is breadth first, so an inner function overwrites its outer scope
    for scope in [tree] + [node for node in ast.walk(tree)
                           if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]:
        for node in ast.walk(scope):
            owner[node] = scope
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        read = {name.id for name in ast.walk(owner[node]) if isinstance(name, ast.Name)}
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in read:
                unused.append((node.lineno, bound))
    return unused


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    with open(os.path.join(SRC, module)) as f:
        assert unused_imports(f.read()) == []


def test_the_guard_finds_an_unused_import():
    text = ("from __future__ import annotations\nimport math, os.path\n"
            "from x import (a,  # noqa: F401\n    b)\nfrom y import c\nTAU = 2 * math.pi\n"
            "def f():\n    from z import d, e\n    return d, c\n")
    assert unused_imports(text) == [(2, "os"), (8, "e")]
