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
an attribute (`x.field`, loaded, not stored) in that code; fields read by
the tests alone are listed in KEEP_FIELDS as `Class.field`, with the reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "weylchar").glob("*.py"))
CALLERS = [p for d in ("src", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))
           if not p.name.startswith("test_")]

#: Public names without a library or benchmark caller, and why each stays.
KEEP = {
    "fixes_torus_point": "the definition of a stabilizer that the tests check stabilizer() against",
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


def unread_fields():
    read = {node.attr for path in CALLERS for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [f"{path.name}:{line} {field}" for path in LIBRARY
            for field, line in dataclass_fields(path) if field.split(".")[1] not in read]


def test_every_dataclass_field_is_read_by_the_library_or_benchmark():
    unread = [u for u in unread_fields() if u.split()[-1] not in KEEP_FIELDS]
    assert not unread, "dataclass fields nothing in src/ or perfbench/ reads: " + ", ".join(unread)


def test_every_kept_field_exists_and_is_unread():
    assert sorted(u.split()[-1] for u in unread_fields()) == sorted(KEEP_FIELDS)
