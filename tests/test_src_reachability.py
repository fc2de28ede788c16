"""Every definition in ``src/`` is reached by something that ships.

A definition only ``tests/`` call is code the project carries for its
own tests: it is read, documented and kept working, and nothing a user
runs can reach it.  This walks from what does run:

- the module-level code of every ``src/`` module (imports and
  ``__all__`` excepted, so a package re-export reaches nothing);
- every file under ``benchmarks/`` and ``examples/``.

README.md is no root: it documents what ships and keeps nothing alive.
Its ``python`` blocks are walked like a file under ``examples/``, and a
block that reaches a definition the roots do not reach fails, so README
may describe only code that runs.

A definition is a module-level function, class or named constant, or a
method of a class.  A reached body reaches a definition by these rules:

- (a) A bare name reaches only a module-level definition bound in the
  module that spells it: defined there, or imported with ``from M import
  name`` (a package's re-exports followed to the defining module).  It
  never reaches a method.
- (b) ``.name`` on a receiver the walk can type reaches only that
  type's definitions.  A receiver is typed when it is ``self`` or
  ``cls`` in a class body, a ``src/`` class name, a local (or module
  constant) bound once from a ``src/`` class's constructor, or a module
  imported by name.  On a class it reaches the methods of the class's
  family (its ``src/`` bases and subclasses, and their bases); on a
  ``src/`` module, that module's definition; on a module from outside
  the repository (``json.dump``), nothing.  On any other receiver,
  ``.name`` reaches every definition of that name.
- (c) A name spelled as an identifier string reaches every definition
  of that name (``getattr`` dispatch), unless the string is a dict
  literal's key or a subscript: those are data.

A method is reached only once its class is.  Dunders count as reached,
and so does a method that overrides an attribute of a base class from
outside ``repro`` (``asyncio.Protocol`` callbacks), since the outside
code calls it.  Wherever a rule cannot decide (a name bound twice, an
unresolved import, a receiver it cannot type), the walk errs towards
"reached": it can miss dead code, never call live code dead.

Every option is set by something that ships, too.  An option is a
parameter or dataclass field in ``src/`` whose default is a value: a
literal (``1 << 20`` included) or an UPPER_CASE constant.  One that only
tests set is a second configuration the project tests and documents
while every user runs the default; it is a module constant instead, and
a test that needs another value patches the constant.  An option is set
when the shipped code above (all of ``src/``, ``benchmarks/`` and
``examples/``) does one of these:

- (d) passes it by keyword on a call spelled with its function's name,
  or its class's or a subclass's name.  The walk follows ``import … as``
  aliases and functions that forward ``**kwargs`` to such a call, and a
  keyword to ``dataclasses.replace`` sets the field of that name.  A
  method's parameter is set only on a call ``receiver.method(...)``
  spelled with its method's name whose receiver rule (b) types to the
  method's class family or cannot type, on a local called bare by that
  name (a bound method passed in), or on a function that forwards
  ``**kwargs`` to such a call;
- passes it by position, to a call spelled as above;
- for a function's or class's option (not a method's): names it as a
  ``cli`` flag dest or a settings-dict key;
- for a field: stores to it (counters), names it in a string
  (``setattr`` dispatch) or redeclares it in a subclass (the two
  declarations are one option, set by the redeclaration).

The scan leaves out:

- ``None``-default parameters and fields, which inject a collaborator (a
  clock, an rng, a fake) or mark an optional feature, not a value;
- ``src/repro/experiments/``, whose sweep points define each figure and
  which the tests shrink to keep the suite fast.

Like the first walk it errs towards "set".

``PYTHONPATH=src python tests/test_src_reachability.py`` prints the
unreached definitions, the README blocks that reach one, then the unset
options, one ``path:line name`` a line.
"""

import ast
import builtins
import importlib
import importlib.util
import re
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
ROOT = SRC.parent.parent
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
UPPER = re.compile(r"[A-Z][A-Z0-9_]*")
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


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
    if isinstance(expr, ast.Name) and expr.id not in bound and not parts:
        return getattr(builtins, expr.id, None)
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


def _targets(node):
    return node.targets if isinstance(node, ast.Assign) else [node.target]


def _is_constant(node):
    """A module-level ``NAME = value``: a definition, not a store."""
    return (
        isinstance(node, (ast.Assign, ast.AnnAssign))
        and all(isinstance(t, ast.Name) for t in _targets(node))
        and node.value is not None
    )


class _Definition:
    def __init__(self, module, line, name, body, owner=None, node=None):
        self.module, self.name, self.body = module, name, body
        self.where = f"{module.where}:{line}"
        self.short = name.rpartition(".")[2]
        #: The class a method belongs to; the ClassDef of a class.
        self.owner, self.node = owner, node
        self.external = False
        #: A constant's value when it is a call (a constructor, maybe).
        self.ctor = None


class _Module:
    """One parsed file and the names its module scope binds."""

    def __init__(self, path, root, dotted=None, source=None):
        source = path.read_text() if source is None else source
        self.tree = ast.parse(source, filename=str(path))
        self.where = path.relative_to(root)
        self.dotted, self.package = dotted, path.name == "__init__.py"
        #: name -> [("def", definition) | ("module", dotted)
        #: | ("from", dotted, name) | ("other",)]
        self.binds = {}
        self.defs, self.roots = [], []
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self._bind(alias.asname, ("module", alias.name))
                    else:
                        head = alias.name.split(".")[0]
                        self._bind(head, ("module", head))
            elif isinstance(node, ast.ImportFrom):
                source = self._absolute(node)
                for alias in node.names:
                    self._bind(alias.asname or alias.name, ("from", source, alias.name))
            elif isinstance(node, ast.Global):
                for name in node.names:
                    self._bind(name, ("other",))
        if dotted is not None:
            self._definitions()
        self._stores(self.tree.body)

    def _bind(self, name, source):
        self.binds.setdefault(name, []).append(source)

    def _absolute(self, node):
        if not node.level:
            return node.module
        base = (self.dotted or "").split(".")
        base = base if self.package else base[:-1]
        base = base[: len(base) - node.level + 1]
        return ".".join(base + ([node.module] if node.module else []))

    def _stores(self, statements):
        """Bind every other name stored in module scope (not in bodies)."""
        for stmt in statements:
            if isinstance(stmt, _FUNCTIONS + (ast.ClassDef,)) or _is_constant(stmt):
                continue
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
                    self._bind(node.id, ("other",))

    def _definitions(self):
        for node in self.tree.body:
            if isinstance(node, _FUNCTIONS):
                self._define(_Definition(self, node.lineno, node.name, [node]))
            elif isinstance(node, ast.ClassDef):
                rest = [stmt for stmt in node.body if not isinstance(stmt, _FUNCTIONS)]
                cls = _Definition(
                    self, node.lineno, node.name,
                    node.bases + node.keywords + node.decorator_list + rest, node=node,
                )
                self._define(cls)
                for stmt in node.body:
                    if isinstance(stmt, _FUNCTIONS):
                        self.defs.append(_Definition(
                            self, stmt.lineno, f"{node.name}.{stmt.name}", [stmt], owner=cls,
                        ))
            elif _is_constant(node):
                for target in _targets(node):
                    if target.id == "__all__":
                        continue
                    constant = _Definition(self, node.lineno, target.id, [node.value])
                    if len(_targets(node)) == 1 and isinstance(node.value, ast.Call):
                        constant.ctor = node.value.func
                    self._define(constant)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                self.roots.append(node)

    def _define(self, definition):
        self.defs.append(definition)
        self._bind(definition.name, ("def", definition))


class _Scope:
    """A function's locals: which it binds, and which it binds once from a
    constructor call (name -> the callee expression)."""

    def __init__(self, node):
        args = node.args
        every = args.posonlyargs + args.args + args.kwonlyargs
        every += [a for a in (args.vararg, args.kwarg) if a is not None]
        counts = {}
        for arg in every:
            counts[arg.arg] = counts.get(arg.arg, 0) + 1
        ctors = {}
        body = node.body if isinstance(node.body, list) else [node.body]
        for stmt in body:
            for part in ast.walk(stmt):
                if isinstance(part, ast.Name) and not isinstance(part.ctx, ast.Load):
                    counts[part.id] = counts.get(part.id, 0) + 1
                elif isinstance(part, (ast.Global, ast.Nonlocal)):
                    for name in part.names:
                        counts[name] = counts.get(name, 0) + 2
                elif isinstance(part, ast.Assign) and isinstance(part.value, ast.Call):
                    if len(part.targets) == 1 and isinstance(part.targets[0], ast.Name):
                        ctors[part.targets[0].id] = part.value.func
        self.bound = set(counts)
        self.ctors = {name: f for name, f in ctors.items() if counts[name] == 1}


class _Index:
    """Every ``src/`` module, its definitions and the class families."""

    def __init__(self, root):
        src = root / "src" / "repro"
        self.root, self.modules = root.resolve(), {}
        for path in sorted(src.rglob("*.py")):
            parts = path.relative_to(src.parent).with_suffix("").parts
            dotted = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
            self.modules[dotted] = _Module(path, root, dotted)
        self.defs = [d for m in self.modules.values() for d in m.defs]
        self.by_short = {}
        for definition in self.defs:
            self.by_short.setdefault(definition.short, []).append(definition)
        self._hierarchy()

    def _hierarchy(self):
        """Each class's ``src/`` bases; a class with a base the walk cannot
        place has an open family (``.name`` on it is untyped)."""
        classes = [d for d in self.defs if d.node is not None]
        self.parents = {cls: [] for cls in classes}
        self.open = set()
        outside = {}
        for cls in classes:
            bound = _imports(cls.module.tree)
            outside[cls] = []
            for base in cls.node.bases:
                kind, found = self.type_of(base, cls.module, None, [])
                if kind == "class":
                    self.parents[cls].append(found)
                    continue
                obj = _resolve(base, bound)
                if obj is None:
                    self.open.add(cls)
                else:
                    outside[cls].append(obj)
        children = {cls: [] for cls in classes}
        for cls, parents in self.parents.items():
            for parent in parents:
                children[parent].append(cls)
        self.families = {}
        for cls in classes:
            below = _closure(cls, children)
            self.families[cls] = {a for d in below for a in _closure(d, self.parents)}
        for method in self.defs:
            if method.owner is not None:
                bases = [o for a in _closure(method.owner, self.parents) for o in outside[a]]
                method.external = any(hasattr(base, method.short) for base in bases)

    def binding(self, dotted, name, seen=None):
        """(definitions, modules) that ``from dotted import name`` binds."""
        seen = set() if seen is None else seen
        if (dotted, name) in seen:
            return set(), set()
        seen.add((dotted, name))
        module = self.modules.get(dotted)
        if module is None:
            return set(), set()
        defs, modules = set(), set()
        if f"{dotted}.{name}" in self.modules:
            modules.add(f"{dotted}.{name}")
        sources = module.binds.get(name, [])
        for source in sources:
            found, mods = self._source(source, seen)
            defs |= found
            modules |= mods
        if not sources and "__getattr__" in module.binds:
            defs |= {d for d in self.by_short.get(name, ()) if d.owner is None}
        return defs, modules

    def _source(self, source, seen=None):
        if source[0] == "def":
            return {source[1]}, set()
        if source[0] == "module":
            return set(), {source[1]}
        if source[0] == "from":
            return self.binding(source[1], source[2], seen)
        return set(), set()

    def bare(self, module, name):
        """The definitions a bare name reaches in ``module`` (rule a)."""
        found = set()
        for source in module.binds.get(name, ()):
            found |= self._source(source)[0]
        return found

    def type_of(self, expr, module, cls, scopes):
        """("class" | "instance", class def), ("module", dotted) or (None, None)."""
        if isinstance(expr, ast.Attribute):
            kind, found = self.type_of(expr.value, module, cls, scopes)
            if kind == "module":
                return self._one(*self.binding(found, expr.attr))
            return None, None
        if not isinstance(expr, ast.Name):
            return None, None
        if expr.id in ("self", "cls") and cls is not None:
            return ("class" if expr.id == "cls" else "instance"), cls
        for scope in reversed(scopes):
            if expr.id in scope.bound:
                return self._instance(scope.ctors.get(expr.id), module, cls, scopes)
        sources = module.binds.get(expr.id, [])
        if len(sources) != 1:
            return None, None
        return self._one(*self._source(sources[0]))

    def _one(self, defs, modules):
        """The type of a binding that names one module, class or constant."""
        if len(defs) + len(modules) != 1:
            return None, None
        if modules:
            return "module", next(iter(modules))
        found = next(iter(defs))
        if found.node is not None:
            return "class", found
        return self._instance(found.ctor, found.module, None, [])

    def _instance(self, callee, module, cls, scopes):
        if callee is None:
            return None, None
        kind, found = self.type_of(callee, module, cls, scopes)
        return ("instance", found) if kind == "class" else (None, None)

    def attribute(self, kind, found, name):
        """The definitions ``.name`` reaches on a receiver (rule b)."""
        if kind == "module" and (found in self.modules or _outside(found, self.root)):
            return self.binding(found, name)[0]
        every = self.by_short.get(name, [])
        if kind in ("class", "instance") and found not in self.open:
            family = self.families[found]
            return {d for d in every if d.owner in family}
        return set(every)


def _outside(dotted, root):
    """Whether ``dotted`` is a module from outside the repository (the
    standard library, numpy), whose attributes are no ``src/`` code."""
    try:
        spec = importlib.util.find_spec(dotted.split(".")[0])
    except (ImportError, ValueError):
        return False
    origin = spec and spec.origin
    return bool(origin) and root not in Path(origin).resolve().parents


def _closure(start, edges):
    seen, stack = {start}, [start]
    while stack:
        for nxt in edges[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


class _Reach(ast.NodeVisitor):
    """The definitions one body reaches, by rules (a) to (c)."""

    def __init__(self, index, module, cls):
        self.index, self.module, self.cls = index, module, cls
        self.scopes, self.found = [], set()

    def visit_FunctionDef(self, node):
        args = node.args
        every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
        parts = node.decorator_list + args.defaults + args.kw_defaults + [node.returns]
        parts += [arg.annotation for arg in every if arg is not None]
        for part in parts:
            if part is not None:
                self.visit(part)
        self.scopes.append(_Scope(node))
        for stmt in node.body:
            self.visit(stmt)
        self.scopes.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node):
        self.scopes.append(_Scope(node))
        self.visit(node.body)
        self.scopes.pop()

    def visit_ClassDef(self, node):
        outer, self.cls = self.cls, None  # a nested class is no src/ class
        self.generic_visit(node)
        self.cls = outer

    def visit_Import(self, node):
        pass

    visit_ImportFrom = visit_Import

    def visit_Name(self, node):
        self.found |= self.index.bare(self.module, node.id)

    def visit_Attribute(self, node):
        kind, found = self.index.type_of(node.value, self.module, self.cls, self.scopes)
        self.found |= self.index.attribute(kind, found, node.attr)
        self.visit(node.value)

    def visit_Constant(self, node):
        if isinstance(node.value, str) and WORD.fullmatch(node.value):
            self.found |= set(self.index.by_short.get(node.value, ()))

    def visit_Dict(self, node):
        for key in node.keys:
            if key is not None and not _is_string(key):
                self.visit(key)
        for value in node.values:
            self.visit(value)

    def visit_Subscript(self, node):
        self.visit(node.value)
        if not _is_string(node.slice):
            self.visit(node.slice)


def _is_string(node):
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


class _Calls(_Reach):
    """Each call that may be a method's, with its receiver typed by rule
    (b): ``receiver.name(...)``, or a local ``name(...)`` (a bound method
    passed in, untyped).  These are what set a method's option."""

    def __init__(self, index, module):
        super().__init__(index, module, None)
        #: method name -> [(kind, found, keywords, positional count)]
        self.calls = {}

    def visit_ClassDef(self, node):
        outer = self.cls
        self.cls = next((d for d in self.module.defs if d.node is node), None)
        self.generic_visit(node)
        self.cls = outer

    def visit_Call(self, node):
        func, kind, found = node.func, None, None
        if isinstance(func, ast.Attribute):
            kind, found = self.index.type_of(func.value, self.module, self.cls, self.scopes)
        elif not (isinstance(func, ast.Name) and any(func.id in s.bound for s in self.scopes)):
            func = None
        if func is not None:
            words = {kw.arg for kw in node.keywords if kw.arg}
            self.calls.setdefault(_callee(func), []).append(
                (kind, found, words, _positional(node))
            )
        self.generic_visit(node)


def _positional(call):
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return float("inf")
    return len(call.args)


def _shipped(root):
    """The files under ``benchmarks/`` and ``examples/``."""
    return [
        path
        for folder in ("benchmarks", "examples")
        for path in sorted((root / folder).rglob("*.py"))
    ]


def _readme_blocks(root):
    """(first line, source) of each ``python`` block in README.md."""
    readme = root / "README.md"
    if not readme.exists():
        return []
    text = readme.read_text()
    return [
        (text.count("\n", 0, match.start(1)) + 1, match.group(1))
        for match in re.finditer(r"```python\n(.*?)```", text, flags=re.S)
    ]


def _reached(index, root):
    """The ``src/`` definitions the roots reach."""
    hits = set()
    for module in index.modules.values():
        reach = _Reach(index, module, None)
        for node in module.roots:
            reach.visit(node)
        hits |= reach.found
    for path in _shipped(root):
        module = _Module(path, root)
        reach = _Reach(index, module, None)
        reach.visit(module.tree)
        hits |= reach.found
    reached = set()
    pending = True
    while pending:
        pending = False
        for definition in index.defs:
            if definition in reached:
                continue
            if definition.owner is not None and definition.owner not in reached:
                continue
            short = definition.short
            if (
                definition in hits
                or (short.startswith("__") and short.endswith("__"))
                or definition.external
            ):
                reached.add(definition)
                reach = _Reach(index, definition.module, definition.owner)
                for node in definition.body:
                    reach.visit(node)
                hits |= reach.found
                pending = True
    return reached


def unreached(root=ROOT):
    """``path:line name`` for each ``src/`` definition nothing ships reaches."""
    index = _Index(root)
    reached = _reached(index, root)
    return [f"{d.where} {d.name}" for d in index.defs if d not in reached]


def readme_unshipped(root=ROOT):
    """``README.md:line name`` for each ``src/`` definition a README
    ``python`` block (starting at that line) reaches and nothing ships."""
    index = _Index(root)
    reached = _reached(index, root)
    found = []
    for line, source in _readme_blocks(root):
        reach = _Reach(index, _Module(root / "README.md", root, source=source), None)
        reach.visit(reach.module.tree)
        found += sorted(
            f"README.md:{line} {d.name}" for d in reach.found if d not in reached
        )
    return found


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
    def __init__(self, where, label, name, callee, index, field=False, owner=None):
        self.where, self.label, self.name = where, label, name
        #: The call name that passes it by position, and at what index
        #: (None for a keyword-only parameter).
        self.callee, self.index, self.field = callee, index, field
        #: A method's parameter: the class the method belongs to.
        self.owner = owner


def _parameters(where, node, cls=None):
    args = node.args
    positional = args.posonlyargs + args.args
    static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
    if cls is not None and not static:
        positional = positional[1:]  # self / cls
    init = cls is not None and node.name == "__init__"
    callee = cls.name if init else node.name
    label = f"{cls.name}.{node.name}" if cls is not None else node.name
    owner = None if init else cls
    pad = len(positional) - len(args.defaults)
    pairs = [(arg, default, pad + i) for i, (arg, default) in
             enumerate(zip(positional[pad:], args.defaults))]
    pairs += [(arg, default, None) for arg, default in
              zip(args.kwonlyargs, args.kw_defaults) if default is not None]
    return [
        _Option(f"{where}:{arg.lineno}", f"{label}({arg.arg})", arg.arg, callee, index,
                owner=owner)
        for arg, default, index in pairs
        if _is_value(default)
    ]


def _field_names(node):
    return [
        stmt.target.id
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
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


def _options(module):
    """The value options one ``src/`` module declares."""
    found = []
    for node in module.tree.body:
        if isinstance(node, _FUNCTIONS):
            found += _parameters(module.where, node)
        elif isinstance(node, ast.ClassDef):
            cls = next(d for d in module.defs if d.node is node)
            for stmt in node.body:
                if isinstance(stmt, _FUNCTIONS):
                    found += _parameters(module.where, stmt, cls)
            if _is_dataclass(node):
                found += _fields(module.where, node)
    return found


def _callee(func):
    return getattr(func, "attr", getattr(func, "id", None))


class _Settings:
    """What shipped code sets, by the ways :func:`unset_options` counts."""

    def __init__(self, index):
        self.index = index
        self.keys, self.stored, self.replaced = set(), set(), set()
        #: call name -> the keywords its calls pass.
        self.keywords = {}
        #: method name -> the calls that may be its (see :class:`_Calls`).
        self.calls = {}
        #: call name -> the most positional arguments one call passes.
        self.positions = {}
        #: a name that calls reach another by: an ``import … as`` alias,
        #: or a function that forwards its ``**kwargs`` (name -> names).
        self.forwards = {}
        #: class name -> its base class names; class name -> field names.
        self.bases, self.declared = {}, {}

    def scan(self, module):
        calls = _Calls(self.index, module)
        calls.visit(module.tree)
        for name, found in calls.calls.items():
            self.calls.setdefault(name, []).extend(found)
        for node in ast.walk(module.tree):
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
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if alias.asname:
                        self._forward(alias.asname, alias.name.rpartition(".")[2])
            elif isinstance(node, _FUNCTIONS) and node.args.kwarg is not None:
                kwarg = node.args.kwarg.arg
                for call in ast.walk(node):
                    if isinstance(call, ast.Call) and any(
                        kw.arg is None and getattr(kw.value, "id", None) == kwarg
                        for kw in call.keywords
                    ):
                        self._forward(node.name, _callee(call.func))
            elif isinstance(node, ast.ClassDef):
                self.bases[node.name] = [_callee(base) for base in node.bases]
                self.declared[node.name] = set(_field_names(node))

    def _forward(self, name, target):
        self.forwards.setdefault(name, set()).add(target)

    def _call(self, node):
        callee = _callee(node.func)
        words = {kw.arg for kw in node.keywords if kw.arg}
        self.keywords.setdefault(callee, set()).update(words)
        if callee == "replace":
            self.replaced |= words
        self.positions[callee] = max(self.positions.get(callee, 0), _positional(node))
        if callee == "add_argument":
            for flag in _strings(node.args):
                if flag.startswith("--"):
                    self.keys.add(flag[2:].replace("-", "_"))
            self.keys.update(_strings(kw.value for kw in node.keywords if kw.arg == "dest"))

    def _spellings(self, callee):
        """The call names that reach ``callee``: itself, its subclasses,
        and any alias or ``**kwargs`` forwarder of those."""
        names = {callee}
        grown = True
        while grown:
            grown = False
            for name, targets in list(self.forwards.items()):
                if name not in names and targets & names:
                    names.add(name)
                    grown = True
            for name, bases in self.bases.items():
                if name not in names and set(bases) & names:
                    names.add(name)
                    grown = True
        return names

    def _redeclared(self, option):
        family = self._spellings(option.callee) - {option.callee}
        family |= set(self.bases.get(option.callee, ()))
        return any(option.name in self.declared.get(name, ()) for name in family)

    def sets(self, option):
        if option.owner is not None:
            return self._sets_method(option)
        if option.name in self.keys:
            return True
        spellings = self._spellings(option.callee)
        if any(option.name in self.keywords.get(name, ()) for name in spellings):
            return True
        if option.field and (
            option.name in self.stored
            or option.name in self.replaced
            or self._redeclared(option)
        ):
            return True
        return option.index is not None and self.positions.get(option.callee, 0) > option.index

    def _sets_method(self, option):
        for kind, found, words, count in self.calls.get(option.callee, ()):
            if self._fits(kind, found, option.owner) and (
                option.name in words
                or (option.index is not None and count > option.index)
            ):
                return True
        forwarders = self._spellings(option.callee) - {option.callee}
        return any(option.name in self.keywords.get(name, ()) for name in forwarders)

    def _fits(self, kind, found, owner):
        """Whether a receiver typed ``(kind, found)`` may be ``owner``'s."""
        if kind == "module":
            return False
        if kind in ("class", "instance") and found not in self.index.open:
            return owner in self.index.families[found]
        return True


def _strings(nodes):
    return [
        node.value
        for node in nodes
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]


def unset_options(root=ROOT):
    """``path:line name`` for each ``src/`` option no shipped code sets."""
    index = _Index(root)
    settings = _Settings(index)
    options = []
    for module in index.modules.values():
        settings.scan(module)
        if "experiments" not in module.dotted.split("."):
            options += _options(module)
    for path in _shipped(root):
        settings.scan(_Module(path, root))
    return [f"{o.where} {o.label}" for o in options if not settings.sets(o)]


def test_every_src_definition_is_reached_by_shipped_code():
    assert len(list(SRC.rglob("*.py"))) > 100  # the walk found the tree
    dead = unreached()
    assert not dead, "src/ definitions only tests reach:\n" + "\n".join(dead)


def test_readme_blocks_reach_only_shipped_code():
    unshipped = readme_unshipped()
    assert not unshipped, "README blocks reach code nothing ships:\n" + "\n".join(unshipped)


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


def _tree(root, planted, shipped, readme=None):
    """A checkout whose ``src/`` is one module and whose only shipped code
    is one benchmark file."""
    package = root / "src" / "repro"
    (package / "experiments").mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "planted.py").write_text(planted)
    (root / "benchmarks").mkdir()
    (root / "examples").mkdir()
    (root / "benchmarks" / "shipped.py").write_text(shipped)
    if readme is not None:
        (root / "README.md").write_text(readme)
    return root


def _at(source, text):
    return f"src/repro/planted.py:{source.splitlines().index(text) + 1}"


def test_the_option_walk_reports_only_the_option_nothing_sets(tmp_path):
    root = _tree(tmp_path, _PLANTED, _SHIPPED)
    (root / "src" / "repro" / "experiments" / "sweep.py").write_text(
        "def point(n=10):\n    pass\n"
    )
    line = _at(_PLANTED, "def never_set(a, width=WIDTH):")
    assert unset_options(root) == [f"{line} never_set(width)"]


_BARE = """\
def used():
    pass


def shadowed():
    pass


class Box:
    def build(self):
        pass
"""

_BARE_SHIPPED = """\
from repro.planted import Box, used


def run(build, shadowed):
    used()
    build()
    return Box(), shadowed
"""


def test_a_bare_name_reaches_only_what_its_module_binds(tmp_path):
    # A parameter named ``build`` or ``shadowed`` is no call of either.
    root = _tree(tmp_path, _BARE, _BARE_SHIPPED)
    assert unreached(root) == [
        f"{_at(_BARE, 'def shadowed():')} shadowed",
        f"{_at(_BARE, '    def build(self):')} Box.build",
    ]


_TYPED = """\
def dump(path):
    pass


class Left:
    def step(self):
        self.tick()

    def tick(self):
        pass


class Right:
    def step(self):
        pass

    def tick(self):
        pass


class Low(Left):
    def tick(self):
        pass
"""

_TYPED_SHIPPED = """\
import json

from repro import planted


def run(stream):
    left = planted.Left()
    left.step()
    json.dump({}, stream)
    return planted.Right, planted.Low
"""


def test_a_typed_receiver_reaches_only_its_family(tmp_path):
    # ``self.tick`` in ``Left`` reaches ``Low.tick`` (a subclass may be
    # the receiver), not ``Right.tick``; ``json.dump`` is no ``dump``.
    root = _tree(tmp_path, _TYPED, _TYPED_SHIPPED)
    right = _TYPED.splitlines().index("class Right:") + 1
    assert unreached(root) == [
        f"{_at(_TYPED, 'def dump(path):')} dump",
        f"src/repro/planted.py:{right + 1} Right.step",
        f"src/repro/planted.py:{right + 4} Right.tick",
    ]


_DATA = """\
def overhead():
    pass


def dispatched():
    pass
"""

_DATA_SHIPPED = """\
import repro.planted as planted

row = {"overhead": 1}
print(row["overhead"], getattr(planted, "dispatched"))
"""


def test_a_dict_key_or_subscript_string_is_data(tmp_path):
    root = _tree(tmp_path, _DATA, _DATA_SHIPPED)
    assert unreached(root) == [f"{_at(_DATA, 'def overhead():')} overhead"]


_CALLS = """\
from dataclasses import dataclass


def scaled(n, share=0.8):
    pass


def other(n, share=0.5):
    pass


def target(*, limit=3):
    pass


def aliased(*, width=4):
    pass


@dataclass
class Base:
    depth: int = 1
    size: int = 2
    mode: str = "fast"


@dataclass
class Sub(Base):
    mode: str = "slow"
"""

_CALLS_SHIPPED = """\
import dataclasses

from repro.planted import aliased as al


def wrapper(**kwargs):
    return target(**kwargs)


other(1, share=0.4)
scaled(1)
wrapper(limit=1)
al(width=2)
dataclasses.replace(Base(), depth=3)
Sub(size=5)
"""


def test_a_keyword_sets_only_the_option_of_the_call_it_spells(tmp_path):
    # Forwarded ``**kwargs``, an ``as`` alias, ``replace``, a subclass's
    # constructor and a redeclared field each set the option they name.
    root = _tree(tmp_path, _CALLS, _CALLS_SHIPPED)
    line = _at(_CALLS, "def scaled(n, share=0.8):")
    assert unset_options(root) == [f"{line} scaled(share)"]


_METHODS = """\
class Registry:
    def counter(self, name, timing=False):
        pass

    def gauge(self, name, timing=False):
        pass

    def record(self, count=1):
        pass


class Other:
    def counter(self, name, timing=False):
        pass


class Auditor:
    def on_request(self, position, op=0):
        pass
"""

_METHODS_SHIPPED = """\
from repro.planted import Auditor, Other, Registry


def drive(on_request):
    on_request(1, 2)


def run():
    other = Other()
    other.counter("c", timing=True)
    registry = Registry()
    registry.gauge("g", timing=True)
    registry.record()
    drive(Auditor().on_request)
    return {"count": 2}
"""


def test_a_method_option_is_set_only_on_its_own_method_and_family(tmp_path):
    # ``gauge(timing=)`` and ``Other.counter(timing=)`` set no
    # ``Registry.counter(timing)``, and a dict key sets no method's
    # parameter; a bound method called bare through a local is untyped.
    root = _tree(tmp_path, _METHODS, _METHODS_SHIPPED)
    assert unset_options(root) == [
        f"{_at(_METHODS, '    def counter(self, name, timing=False):')} "
        "Registry.counter(timing)",
        f"{_at(_METHODS, '    def record(self, count=1):')} Registry.record(count)",
    ]


_DOCUMENTED = """\
class Box:
    def shipped(self):
        pass

    def documented(self):
        pass


def mentioned():
    pass
"""

_DOCUMENTED_SHIPPED = """\
from repro.planted import Box


def run():
    box = Box()
    box.shipped()
"""

_README = """\
# Box

Call `mentioned()` or `Box.documented` when in doubt:

```python
from repro.planted import Box

box = Box()
box.documented()
```
"""


def test_readme_prose_keeps_nothing_alive(tmp_path):
    root = _tree(tmp_path, _DOCUMENTED, _DOCUMENTED_SHIPPED, _README)
    assert unreached(root) == [
        f"{_at(_DOCUMENTED, '    def documented(self):')} Box.documented",
        f"{_at(_DOCUMENTED, 'def mentioned():')} mentioned",
    ]


def test_a_readme_block_may_reach_only_shipped_code(tmp_path):
    root = _tree(tmp_path, _DOCUMENTED, _DOCUMENTED_SHIPPED, _README)
    block = _README.splitlines().index("```python") + 2
    assert readme_unshipped(root) == [f"README.md:{block} Box.documented"]


if __name__ == "__main__":
    print("\n".join(unreached() + readme_unshipped() + unset_options()))
