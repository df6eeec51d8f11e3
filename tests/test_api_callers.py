"""Caller census: every public name and every dataclass field of the library has a reader.

A public top-level function or class of `src/weylchar/*.py`, or a public
method of such a class, must be referenced in code under `src/` or
`perfbench/` outside its own definition.  A reference to a function or
class is a name, an attribute, or a string constant equal to the name (the
benchmark tracer binds functions by name); a reference to a method is an
attribute only, so a local variable or parameter that shares its name does
not count.  Docstrings and comments do not count, and neither do tests,
`perfbench/test_*.py` included.  Names kept for the tests or the acceptance criteria
alone are listed in KEEP, each with its reason.

Likewise each field of a dataclass in `src/weylchar/*.py` must be read as
an attribute (`x.field`, loaded, not stored) in that code, on a receiver
`x` whose class is the field's own: an attribute of another class that
shares the field's name does not count.  The class of a receiver is
inferred per function, without running anything (`FieldReads`); a read
whose receiver cannot be typed does not count either.  Fields read by the
tests alone are listed in KEEP_FIELDS as `Class.field`, with the reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "weylchar").glob("*.py"))
CALLERS = [p for d in ("src", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))
           if not p.name.startswith("test_")]

#: Public names without a library or benchmark caller, and why each stays.
KEEP = {
    "km_density": "the Kesten-McKay density that acceptance criteria 11 and 12 integrate",
    "char_regular": "the regular-point entry point that acceptance criteria 01, 03 and 04 call",
    "weight_multiplicities": "the Freudenthal weight diagram that acceptance criterion 05 sums",
    "expected_decay_exponent": "the exponent m that acceptance criterion 07 compares slopes with",
    "radians": "the radian coordinates of an exact face point that acceptance criterion 04 moves",
    "ratios": "the normalized sweep values whose limit acceptance criterion 10 checks",
    "dims": "the sweep dimensions that acceptance criterion 10 checks grow",
}

#: Dataclass fields without a reader in the library or the benchmark, and why each stays.
KEEP_FIELDS = {}


def _docstrings(tree):
    """The Constant nodes that are docstrings of the module, a class or a function."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                out.add(id(body[0].value))
    return out


def public_definitions(path):
    """(name, first line, last line, is a method) of each public def, class and method."""
    tree = ast.parse(path.read_text(), str(path))
    defs = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            defs.append((node.name, node.lineno, node.end_lineno, False))
            if isinstance(node, ast.ClassDef):
                defs += [(m.name, m.lineno, m.end_lineno, True) for m in node.body
                         if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
    return defs


def references(path):
    """{(name, is an attribute): [line, ...]} of each name, attribute and non-docstring string."""
    tree = ast.parse(path.read_text(), str(path))
    docs = _docstrings(tree)
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier() and id(node) not in docs):
            name = node.value
        else:
            continue
        out.setdefault((name, isinstance(node, ast.Attribute)), []).append(node.lineno)
    return out


def uncalled():
    refs = {path: references(path) for path in CALLERS}
    missing = []
    for path in LIBRARY:
        for name, first, last, method in public_definitions(path):
            kinds = (True,) if method else (False, True)
            if not any(
                line < first or line > last or other != path
                for other, found in refs.items()
                for kind in kinds for line in found.get((name, kind), ())
            ):
                missing.append(f"{path.name}:{first} {name}")
    return missing


def test_every_public_name_has_a_library_or_benchmark_caller():
    missing = [m for m in uncalled() if m.split()[-1] not in KEEP]
    assert not missing, "public API without a caller in src/ or perfbench/: " + ", ".join(missing)


def test_every_kept_name_is_public_and_uncalled():
    # a KEEP entry whose name gained a caller, or no longer exists, is stale
    assert sorted(m.split()[-1] for m in uncalled()) == sorted(KEEP)


def dataclass_fields(path):
    """(Class.field, line) of each field of each top-level dataclass."""
    tree = ast.parse(path.read_text(), str(path))
    return [(f"{node.name}.{item.target.id}", item.lineno)
            for node in tree.body if isinstance(node, ast.ClassDef)
            and any("dataclass" in ast.unparse(d) for d in node.decorator_list)
            for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]


class FieldReads:
    """The `Class.attr` loads in the caller code whose receiver's class is inferred.

    Classes are those defined at the top level of the caller files.  A
    receiver is typed by these rules, applied per function to its names
    (flow-insensitively, the last binding winning) and recursively to
    expressions:

    - `self`, the first parameter of a method, is its class; a parameter
      or an annotated assignment takes the class its annotation names
      (`C`, `"C"`, `mod.C`, `C | None`);
    - `C(...)` is a C, and a call to a function or method whose every
      definition of that name returns `C` is a C;
    - `x.attr` takes the class of attr's annotation in x's class (a field
      or a property);
    - a container annotated `list[C]` or `tuple[C, ...]` (a return value or
      a field), or a list that a C is appended to, holds Cs: its items,
      `x[i]`, `choice(x)` and the targets of loops and comprehensions
      over it are Cs.
    """

    def __init__(self, paths):
        self.trees = [ast.parse(path.read_text(), str(path)) for path in paths]
        defs = [node for tree in self.trees for node in tree.body if isinstance(node, ast.ClassDef)]
        self.classes = {node.name for node in defs}
        self.attrs = {}  # class -> attr -> (class, element class)
        for node in defs:
            table = self.attrs.setdefault(node.name, {})
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    table[item.target.id] = self._annotation(item.annotation)
                elif isinstance(item, ast.FunctionDef) and "property" in map(
                        ast.unparse, item.decorator_list):
                    table[item.name] = self._annotation(item.returns)
        self.returns = {}  # function or method name -> (class, element class), or None
        for tree in self.trees:
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef):
                    got = self._annotation(node.returns)
                    self.returns[node.name] = (got if self.returns.get(node.name, got) == got
                                               else (None, None))
        self.found = set()
        for tree in self.trees:
            self._scope(tree.body, {}, {})

    def _annotation(self, node):
        """(class, element class) that an annotation names, each None if it names none."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            node = ast.parse(node.value, mode="eval").body
        if isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            return (name if name in self.classes else None), None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            got = {self._annotation(node.left), self._annotation(node.right)} - {(None, None)}
            return got.pop() if len(got) == 1 else (None, None)
        if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                and node.value.id in ("list", "tuple")):
            item = node.slice.elts[0] if isinstance(node.slice, ast.Tuple) else node.slice
            return None, self._annotation(item)[0]
        return None, None

    def _type(self, node, env):
        """(class, element class) of an expression under env: name -> (class, element class)."""
        if isinstance(node, ast.Name):
            return env.get(node.id, (None, None))
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in self.classes:
                return name, None
            if name == "choice" and node.args:
                return self._type(node.args[0], env)[1], None
            return self.returns.get(name, (None, None))
        if isinstance(node, ast.Attribute):
            owner = self._type(node.value, env)[0]
            return self.attrs.get(owner, {}).get(node.attr, (None, None))
        if isinstance(node, ast.Subscript):
            return self._type(node.value, env)[1], None
        return None, None

    def _scope(self, body, env, params):
        """Type the names bound in a function (or module) body, then record its reads."""
        env = {**env, **params}
        nodes, inner = [], []
        stack = list(body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                inner.append(node)
                continue
            nodes.append(node)
            stack.extend(ast.iter_child_nodes(node))
        nodes.reverse()
        for _ in range(2):  # a second pass types names bound from names typed later
            for node in nodes:
                if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                    got = self._type(node.value, env)
                    if isinstance(node, ast.AnnAssign) and got == (None, None):
                        got = self._annotation(node.annotation)
                    for target in getattr(node, "targets", [getattr(node, "target", None)]):
                        if isinstance(target, ast.Name) and got != (None, None):
                            env[target.id] = got
                elif isinstance(node, (ast.For, ast.comprehension)):
                    item = self._type(node.iter, env)[1]
                    if isinstance(node.target, ast.Name) and item:
                        env[node.target.id] = (item, None)
                elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and node.func.attr == "append" and isinstance(node.func.value, ast.Name)
                      and node.args):
                    item = self._type(node.args[0], env)[0]
                    if item:
                        env[node.func.value.id] = (None, item)
        for node in nodes:
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                owner = self._type(node.value, env)[0]
                if owner:
                    self.found.add(f"{owner}.{node.attr}")
        for node in inner:
            methods = node.body if isinstance(node, ast.ClassDef) else [node]
            for fn in methods:
                if isinstance(fn, ast.FunctionDef):
                    self._scope(fn.body, env, self._params(fn, node))

    def _params(self, fn, owner):
        args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
        out = {a.arg: self._annotation(a.annotation) for a in args}
        decorators = set(map(ast.unparse, fn.decorator_list))
        if isinstance(owner, ast.ClassDef) and args and not decorators & {"staticmethod",
                                                                          "classmethod"}:
            out[args[0].arg] = (owner.name, None)
        return out


def unread_fields():
    read = FieldReads(CALLERS).found
    return [f"{path.name}:{line} {field}" for path in LIBRARY
            for field, line in dataclass_fields(path) if field not in read]


def test_every_dataclass_field_is_read_by_the_library_or_benchmark():
    unread = [u for u in unread_fields() if u.split()[-1] not in KEEP_FIELDS]
    assert not unread, "dataclass fields nothing in src/ or perfbench/ reads: " + ", ".join(unread)


def test_every_kept_field_exists_and_is_unread():
    assert sorted(u.split()[-1] for u in unread_fields()) == sorted(KEEP_FIELDS)
