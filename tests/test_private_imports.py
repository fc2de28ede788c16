"""No module under ``src/`` imports another module's private name.

A leading underscore says "this module may change me without telling
anyone"; ``from repro.x import _name`` elsewhere makes that a lie, and is
how two copies of one thing start (the loadgen's private connection
driver, borrowed by the chaos driver, outlived the kit that replaced it
by six PRs).  A name another module needs is public: rename it.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent


def _private_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "repro":
            continue
        for alias in node.names:
            if alias.name.startswith("_") and not alias.name.startswith("__"):
                yield f"{path.relative_to(SRC)}:{node.lineno}: {alias.name}"


def test_no_cross_module_private_imports():
    sources = sorted(SRC.rglob("*.py"))
    assert len(sources) > 100  # the walk found the tree
    found = [hit for path in sources for hit in _private_imports(path)]
    assert not found, "private names imported across modules:\n" + "\n".join(found)
