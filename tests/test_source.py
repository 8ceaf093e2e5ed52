"""Checks on the package source itself."""

import ast
import re
from pathlib import Path

import pytest

import framelab

PACKAGE = Path(__file__).parent.parent / "src" / "framelab"
SOURCES = sorted(
    p for p in PACKAGE.glob("*.py")
    if p.name != "__init__.py"  # its imports are the package's re-exports
)


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by the imports of a module that nothing else in it
    reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_unused_import_scan_sees_an_unused_name():
    tree = ast.parse(
        "import os\nimport numpy as np\nfrom .linalg import a, b\n"
        "np.zeros(a)\n"
    )
    assert unused_imports(tree) == ["b (line 3)", "os (line 1)"]


def class_kinds(tree: ast.Module) -> dict[str, str]:
    """Each class a module defines, as "record" (a ``NamedTuple``),
    "dataclass" or "plain"."""
    kinds = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        bases = [ast.unparse(b) for b in node.bases]
        decorators = [ast.unparse(getattr(d, "func", d))
                      for d in node.decorator_list]
        if "NamedTuple" in bases:
            kinds[node.name] = "record"
        elif any(d.split(".")[-1] == "dataclass" for d in decorators):
            kinds[node.name] = "dataclass"
        else:
            kinds[node.name] = "plain"
    return kinds


def package_class_kinds() -> dict[str, str]:
    kinds = {}
    for path in SOURCES:
        kinds.update(class_kinds(ast.parse(path.read_text())))
    return kinds


def test_every_report_is_a_record():
    reports = {name: kind for name, kind in package_class_kinds().items()
               if name.endswith("Report") or name == "FitResult"}
    assert "FitResult" in reports and "GaborReport" in reports
    assert {name for name, kind in reports.items() if kind != "record"} == set()


def test_only_the_validating_objects_are_dataclasses():
    # They validate in __post_init__, carry methods or compare by
    # identity; everything else that is a plain value is a record.
    kinds = package_class_kinds()
    assert sorted(name for name, kind in kinds.items()
                  if kind == "dataclass") == [
        "AmbiguityTable", "Frame", "GleasonFn", "Povm"]


def test_class_kind_scan_sees_each_kind():
    tree = ast.parse(
        "@dataclass(frozen=True)\nclass A:\n    x: int\n"
        "@dataclasses.dataclass\nclass B:\n    x: int\n"
        "class CReport(NamedTuple):\n    x: int\n"
        "class DReport:\n    x: int\n"
    )
    assert class_kinds(tree) == {
        "A": "dataclass", "B": "dataclass", "CReport": "record",
        "DReport": "plain"}


@pytest.mark.parametrize("text, home", [
    ("fiucb", "linalg.py"),  # the numeric-dtype test of the array rule
    ("complex_gaussians", "rng.py"),  # the field draw
    ("field must be 'R' or 'C'", "rng.py"),  # the field check
    ("is_integer", "rng.py"),  # the integral-float test of the integer rule
    ("need at least one trial", "rng.py"),  # the trial-count message
    (r"\[:, :, None\]", "frames.py"),  # the rank-one broadcast
    (r"- (\w+ \* )?np\.eye\(", "frames.py"),  # the c I deviation
    (r"np\.abs\(\w+\) \*\* 2", "frames.py"),  # the squared-norm rule
    (r"np\.max\(np\.abs\(", "frames.py"),  # the unit-modulus deviation
    (r"max\(1\.0, abs\(", "linalg.py"),  # the mixed-relative comparison
    ("not a Parseval frame", "povm.py"),  # the Parseval precondition
    (r"%\.17g", "serialize.py"),  # the float format
    (r"np\.unique", "serialize.py"),  # the dedupe of array entries
])
def test_the_field_rules_are_written_once(text, home):
    # The array rule and the mixed-relative comparison live in linalg,
    # the field draw, the field check and the integer rule in rng, the
    # rank-one, c I, squared-norm and unit-modulus rules in frames, the
    # float format and the dedupe of array entries in serialize; a
    # second copy elsewhere in the package fails here.  Each text is a
    # regular expression.
    holders = sorted(p.name for p in PACKAGE.glob("*.py")
                     if re.search(text, p.read_text()))
    assert holders == [home]


def test_the_exports_are_the_imports():
    # A deletion leaves no dangling export and no imported name unlisted.
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert len(set(framelab.__all__)) == len(framelab.__all__)
    assert set(framelab.__all__) == imported


def int_coercions(tree: ast.Module) -> list[str]:
    """``int()`` calls in the public functions and methods of a module
    whose argument is one of the function's parameters, or a name a loop
    or comprehension binds from one, as ``"function(name)"``."""

    def public(body, prefix=""):
        for node in body:
            if getattr(node, "name", "_").startswith("_"):
                continue
            if isinstance(node, ast.ClassDef):
                yield from public(node.body, f"{node.name}.")
            elif isinstance(node, ast.FunctionDef):
                yield f"{prefix}{node.name}", node

    found = set()
    for name, fn in public(tree.body):
        params = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
        loops = [n for n in ast.walk(fn)
                 if isinstance(n, (ast.For, ast.comprehension))
                 and isinstance(n.iter, ast.Name)]
        grown = True
        while grown:  # names bound from a parameter, at any depth
            bound = {t.id for n in loops if n.iter.id in params
                     for t in ast.walk(n.target) if isinstance(t, ast.Name)}
            grown = not bound <= params
            params |= bound
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "int" and node.args
                    and isinstance(node.args[0], ast.Name)
                    and node.args[0].id in params):
                found.add(f"{name}({node.args[0].id})")
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_public_function_coerces_its_own_parameter_with_int(path):
    # Counts, indices and seeds go through the integer rule in rng,
    # which rejects what int() would truncate or turn from a bool.
    assert int_coercions(ast.parse(path.read_text())) == []


def test_int_coercion_scan_sees_parameters_and_their_loops():
    tree = ast.parse(
        "def f(n, xs, k):\n"
        "    a = int(n) + int(len(xs)) + int(3)\n"
        "    b = [int(x) for x in xs]\n"
        "    for group in xs:\n"
        "        for i in group:\n"
        "            int(i)\n"
        "def _g(n):\n    return int(n)\n"
        "class C:\n"
        "    def m(self, n):\n        return int(n)\n"
        "    def _p(self, n):\n        return int(n)\n"
        "class _D:\n"
        "    def m(self, n):\n        return int(n)\n"
    )
    assert int_coercions(tree) == ["C.m(n)", "f(i)", "f(n)", "f(x)"]


def numpy_uses(tree: ast.Module, function: str) -> list[str]:
    """The ``np.`` attribute accesses in a module-level function of a
    module, as source text."""
    fn = next(node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == function)
    return sorted({ast.unparse(node) for node in ast.walk(fn)
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Name)
                   and node.value.id == "np"})


@pytest.mark.parametrize("function", ["_jacobi", "_magnitudes",
                                      "_offdiag_norm"])
def test_the_jacobi_sweeps_make_no_numpy_call(function):
    # The sweeps run in Python scalar arithmetic, whose order alone fixes
    # their bits; the bit pin of _jacobi in test_linalg relies on it.
    tree = ast.parse((PACKAGE / "linalg.py").read_text())
    assert numpy_uses(tree, function) == []


def test_numpy_use_scan_sees_np_attributes():
    tree = ast.parse(
        "def f(a):\n    return np.abs(a) + np.linalg.norm(a) + a.np\n"
        "def g(a):\n    return np.pi\n"
    )
    assert numpy_uses(tree, "f") == ["np.abs", "np.linalg"]


def imported_modules(tree: ast.Module) -> set[str]:
    """The modules a module imports from, and the names it imports from
    its own package, without the leading dots."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                found.add(node.module)
            if node.level and not node.module:
                found |= {alias.name for alias in node.names}
    return found


def test_serialize_imports_nothing_from_gleason():
    # Records hold what is emitted, so the emitter needs no report type.
    tree = ast.parse((PACKAGE / "serialize.py").read_text())
    assert "gleason" not in imported_modules(tree)


def test_import_scan_sees_each_form():
    tree = ast.parse("import json\nfrom .gleason import F\n"
                     "from . import povm\nfrom .rng import _integer\n")
    assert imported_modules(tree) == {"json", "gleason", "povm", "rng"}


def calling_functions(tree: ast.Module, names: set[str]) -> list[str]:
    """The module-level functions of a module that call any of ``names``,
    as a bare name or an attribute."""
    found = set()
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                called = getattr(node.func, "attr",
                                 getattr(node.func, "id", None))
                if called in names:
                    found.add(fn.name)
    return sorted(found)


def test_the_cli_forms_report_text_in_one_function():
    # Every report the CLI prints is the record's fields plus the CLI's
    # own keys, formed in one place.
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    assert calling_functions(
        tree, {"canonical_json", "flat_report_to_json"}) == ["_report_text"]


def test_call_scan_sees_names_and_attributes():
    tree = ast.parse(
        "def f(a):\n    return s.canonical_json(a)\n"
        "def g(a):\n    return canonical_json(a)\n"
        "def h(a):\n    return a.canonical_json\n"
    )
    assert calling_functions(tree, {"canonical_json"}) == ["f", "g"]
