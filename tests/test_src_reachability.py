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

Every option is set by something that ships, too.  An option is a
parameter or dataclass field in ``src/`` whose default is a value: a
literal (``1 << 20`` included) or an UPPER_CASE constant.  One that only
tests set is a second configuration the project tests and documents
while every user runs the default; it is a module constant instead, and
a test that needs another value patches the constant.  An option is set when the
shipped code above (all of ``src/``, ``benchmarks/``, ``examples/`` and
README's Python blocks) passes it by keyword (to any call: a forwarded
``**kwargs`` reaches it), by position (to a call spelled with its
function's or class's name), as a ``cli`` flag dest or as a settings-dict
key; a field is also set by a store to it (counters) or by its name in a
string (``setattr`` dispatch).  The scan leaves out:

- ``None``-default parameters and fields, which inject a collaborator (a
  clock, an rng, a fake) or mark an optional feature, not a value;
- ``src/repro/experiments/``, whose sweep points define each figure and
  which the tests shrink to keep the suite fast.

Like the first walk it matches by name and errs towards "set".

``PYTHONPATH=src python tests/test_src_reachability.py`` prints the
unreached definitions, then the unset options, one ``path:line name`` a
line.
"""

import ast
import importlib
import re
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
ROOT = SRC.parent.parent
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
UPPER = re.compile(r"[A-Z][A-Z0-9_]*")


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


def _is_value(default):
    """A literal (not None) or an UPPER_CASE constant."""
    if isinstance(default, ast.Name):
        return bool(UPPER.fullmatch(default.id))
    if isinstance(default, ast.Attribute):
        return bool(UPPER.fullmatch(default.attr))
    if isinstance(default, ast.Constant):
        return default.value is not None
    # Arithmetic on literals (``1 << 20``) and tuples of them.
    return all(isinstance(part, _LITERAL_PARTS) for part in ast.walk(default))


_LITERAL_PARTS = (
    ast.Constant, ast.Tuple, ast.BinOp, ast.UnaryOp, ast.operator,
    ast.unaryop, ast.expr_context,
)


def _is_dataclass(node):
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


class _Option:
    def __init__(self, where, label, name, callee, index, field=False):
        self.where, self.label, self.name = where, label, name
        #: The call name that passes it by position, and at what index
        #: (None for a keyword-only parameter).
        self.callee, self.index, self.field = callee, index, field


def _parameters(where, node, owner=None):
    args = node.args
    positional = args.posonlyargs + args.args
    static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
    if owner is not None and not static:
        positional = positional[1:]  # self / cls
    callee = owner if owner is not None and node.name == "__init__" else node.name
    label = f"{owner}.{node.name}" if owner is not None else node.name
    pad = len(positional) - len(args.defaults)
    pairs = [(arg, default, pad + i) for i, (arg, default) in
             enumerate(zip(positional[pad:], args.defaults))]
    pairs += [(arg, default, None) for arg, default in
              zip(args.kwonlyargs, args.kw_defaults) if default is not None]
    return [
        _Option(f"{where}:{arg.lineno}", f"{label}({arg.arg})", arg.arg, callee, index)
        for arg, default, index in pairs
        if _is_value(default)
    ]


def _fields(where, node):
    found, index = [], 0
    for stmt in node.body:
        if not isinstance(stmt, ast.AnnAssign) or not isinstance(stmt.target, ast.Name):
            continue
        if "ClassVar" in ast.unparse(stmt.annotation):
            continue
        default = stmt.value
        if isinstance(default, ast.Call) and getattr(default.func, "id", None) == "field":
            default = {k.arg: k.value for k in default.keywords}.get("default")
        if default is not None and _is_value(default):
            name = stmt.target.id
            found.append(_Option(f"{where}:{stmt.lineno}", f"{node.name}.{name}",
                                 name, node.name, index, field=True))
        index += 1
    return found


def _options(path, root):
    """The value options one ``src/`` module declares."""
    tree = ast.parse(path.read_text(), filename=str(path))
    where = path.relative_to(root)
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += _parameters(where, node)
        elif isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    found += _parameters(where, stmt, owner=node.name)
            if _is_dataclass(node):
                found += _fields(where, node)
    return found


class _Settings:
    """What shipped code sets, by the ways :func:`unset_options` counts."""

    def __init__(self):
        self.keywords, self.keys, self.stored = set(), set(), set()
        #: call name -> the most positional arguments one call passes.
        self.positions = {}

    def scan(self, tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                self._call(node)
            elif isinstance(node, ast.Dict):
                self.keys.update(_strings(node.keys))
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                for target in _targets(node):
                    for part in ast.walk(target):
                        if isinstance(part, ast.Attribute):
                            self.stored.add(part.attr)
                        elif isinstance(part, ast.Subscript):
                            self.keys.update(_strings([part.slice]))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if WORD.fullmatch(node.value):
                    self.stored.add(node.value)

    def _call(self, node):
        func = node.func
        callee = getattr(func, "attr", getattr(func, "id", None))
        self.keywords.update(kw.arg for kw in node.keywords if kw.arg)
        count = len(node.args)
        if any(isinstance(arg, ast.Starred) for arg in node.args):
            count = float("inf")
        self.positions[callee] = max(self.positions.get(callee, 0), count)
        if callee == "add_argument":
            for flag in _strings(node.args):
                if flag.startswith("--"):
                    self.keys.add(flag[2:].replace("-", "_"))
            self.keys.update(_strings(kw.value for kw in node.keywords if kw.arg == "dest"))

    def sets(self, option):
        if option.name in self.keywords or option.name in self.keys:
            return True
        if option.field and option.name in self.stored:
            return True
        return option.index is not None and self.positions.get(option.callee, 0) > option.index


def _strings(nodes):
    return [
        node.value
        for node in nodes
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]


def unset_options(root=ROOT):
    """``path:line name`` for each ``src/`` option no shipped code sets."""
    src = root / "src" / "repro"
    settings = _Settings()
    options = []
    for path in sorted(src.rglob("*.py")):
        settings.scan(ast.parse(path.read_text(), filename=str(path)))
        if "experiments" not in path.relative_to(src).parts:
            options += _options(path, root)
    for folder in ("benchmarks", "examples"):
        for path in sorted((root / folder).rglob("*.py")):
            settings.scan(ast.parse(path.read_text(), filename=str(path)))
    readme = root / "README.md"
    if readme.exists():
        for block in re.findall(r"```python\n(.*?)```", readme.read_text(), flags=re.S):
            settings.scan(ast.parse(block))
    return [f"{o.where} {o.label}" for o in options if not settings.sets(o)]


def test_every_src_definition_is_reached_by_shipped_code():
    assert len(list(SRC.rglob("*.py"))) > 100  # the walk found the tree
    dead = unreached()
    assert not dead, "src/ definitions only tests reach:\n" + "\n".join(dead)


def test_every_src_option_is_set_by_shipped_code():
    unset = unset_options()
    assert not unset, "src/ options only tests set:\n" + "\n".join(unset)


_PLANTED = """\
from dataclasses import dataclass

WIDTH = 8


def by_keyword(a, limit=3):
    pass


def by_position(a, depth=2):
    pass


def by_flag(*, port_number=80):
    pass


def by_key(mode="fast"):
    pass


@dataclass
class Counters:
    hits: int = 0


def injected(clock=None):
    pass


def never_set(a, width=WIDTH):
    pass
"""

_SHIPPED = """\
import argparse

by_keyword(1, limit=4)
by_position(1, 5)
argparse.ArgumentParser().add_argument("--port-number", type=int)
settings = {"mode": "slow"}
counters = Counters()
counters.hits += 1
injected()
never_set(1)
"""


def test_the_option_walk_reports_only_the_option_nothing_sets(tmp_path):
    package = tmp_path / "src" / "repro"
    (package / "experiments").mkdir(parents=True)
    (package / "planted.py").write_text(_PLANTED)
    (package / "experiments" / "sweep.py").write_text("def point(n=10):\n    pass\n")
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "examples").mkdir()
    (tmp_path / "benchmarks" / "shipped.py").write_text(_SHIPPED)
    line = _PLANTED.splitlines().index("def never_set(a, width=WIDTH):") + 1
    assert unset_options(tmp_path) == [f"src/repro/planted.py:{line} never_set(width)"]


if __name__ == "__main__":
    print("\n".join(unreached() + unset_options()))
