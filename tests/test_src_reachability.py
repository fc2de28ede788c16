"""Every definition in ``src/`` is reached by something that ships.

A definition only ``tests/`` call is code the project carries for its
own tests: it is read, documented and kept working, and nothing a user
runs can reach it.  This walks, by name, from what does run:

- the module-level code of every ``src/`` module (imports and
  ``__all__`` excepted, so a package re-export reaches nothing);
- every file under ``benchmarks/`` and ``examples/``;
- each identifier inside README.md code (fenced blocks and backtick
  spans), the documented public API.

A definition is a module-level function, class or named constant, or a
method of a class.  It is reached when a reached body names it (as a
name or an attribute, so any ``.get`` reaches every ``get``) and, for a
method, its class is reached.  Dunders count as reached, and so does a
method that overrides an attribute of a base class from outside
``repro`` (``asyncio.Protocol`` callbacks), since the outside code calls
it.  So does a name spelled as an
identifier string in reached code (``getattr`` dispatch).  The scan errs
towards "reached": it can miss dead code, never call live code dead.

``PYTHONPATH=src python tests/test_src_reachability.py`` prints the
unreached definitions, one ``path:line name`` a line.
"""

import ast
import importlib
import re
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
ROOT = SRC.parent.parent
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _names(nodes):
    """Every identifier a list of AST nodes uses as a name or attribute."""
    found = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                found.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if WORD.fullmatch(node.value):
                    found.add(node.value)
    return found


def _imports(tree):
    """Local name -> dotted path, for the module's non-``repro`` imports."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if not alias.name.startswith("repro"):
                    local = alias.asname or alias.name.split(".")[0]
                    bound[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if not (node.module or "").startswith("repro"):
                for alias in node.names:
                    bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return bound


def _resolve(expr, bound):
    """The outside object a base-class expression names, or None."""
    parts = []
    while isinstance(expr, ast.Attribute):
        parts.append(expr.attr)
        expr = expr.value
    if not isinstance(expr, ast.Name) or expr.id not in bound:
        return None
    dotted = bound[expr.id].split(".") + parts[::-1]
    for cut in range(len(dotted), 0, -1):
        try:
            obj = importlib.import_module(".".join(dotted[:cut]))
        except ImportError:
            continue
        for attr in dotted[cut:]:
            obj = getattr(obj, attr, None)
        return obj
    return None


class _Definition:
    def __init__(self, where, name, body, owner=None, external=False):
        self.where, self.name, self.body = where, name, body
        self.owner, self.external = owner, external


def _definitions(path):
    """(definitions, root nodes) of one ``src/`` module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = _imports(tree)
    where = path.relative_to(ROOT)
    defs, roots = [], []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs.append(_Definition(f"{where}:{node.lineno}", node.name, [node]))
        elif isinstance(node, ast.ClassDef):
            bases = [_resolve(base, bound) for base in node.bases]
            outside = [base for base in bases if base is not None]
            rest = [
                stmt
                for stmt in node.body
                if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
            cls = _Definition(
                f"{where}:{node.lineno}",
                node.name,
                node.bases + node.keywords + node.decorator_list + rest,
            )
            defs.append(cls)
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    external = any(hasattr(base, stmt.name) for base in outside)
                    defs.append(
                        _Definition(
                            f"{where}:{stmt.lineno}",
                            f"{node.name}.{stmt.name}",
                            [stmt],
                            owner=cls,
                            external=external,
                        )
                    )
        elif (
            isinstance(node, (ast.Assign, ast.AnnAssign))
            and all(isinstance(t, ast.Name) for t in _targets(node))
            and node.value is not None
        ):
            for target in _targets(node):
                if target.id == "__all__":
                    continue
                defs.append(
                    _Definition(f"{where}:{node.lineno}", target.id, [node.value])
                )
        elif not isinstance(node, (ast.Import, ast.ImportFrom)):
            roots.append(node)
    return defs, roots


def _targets(node):
    return node.targets if isinstance(node, ast.Assign) else [node.target]


def _readme_names():
    text = (ROOT / "README.md").read_text()
    spans = re.findall(r"```.*?```", text, flags=re.S)
    spans += re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", text, flags=re.S))
    return {word for span in spans for word in WORD.findall(span)}


def unreached():
    """``path:line name`` for each ``src/`` definition nothing ships reaches."""
    defs, roots = [], []
    for path in sorted(SRC.rglob("*.py")):
        found, code = _definitions(path)
        defs += found
        roots += code
    for folder in ("benchmarks", "examples"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            roots.append(ast.parse(path.read_text(), filename=str(path)))
    names = _names(roots) | _readme_names()
    reached = set()
    pending = True
    while pending:
        pending = False
        for definition in defs:
            if definition in reached:
                continue
            short = definition.name.rpartition(".")[2]
            if definition.owner is not None and definition.owner not in reached:
                continue
            if (
                short in names
                or (short.startswith("__") and short.endswith("__"))
                or definition.external
            ):
                reached.add(definition)
                names |= _names(definition.body)
                pending = True
    return [f"{d.where} {d.name}" for d in defs if d not in reached]


def test_every_src_definition_is_reached_by_shipped_code():
    assert len(list(SRC.rglob("*.py"))) > 100  # the walk found the tree
    dead = unreached()
    assert not dead, "src/ definitions only tests reach:\n" + "\n".join(dead)


if __name__ == "__main__":
    print("\n".join(unreached()))
