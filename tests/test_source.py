"""Checks on the package source itself."""

import ast
import re
import sys
from collections.abc import Iterator
from pathlib import Path

import pytest

import framelab
from framelab import SplitMix64

PACKAGE = Path(__file__).parent.parent / "src" / "framelab"
SOURCES = sorted(
    p for p in PACKAGE.glob("*.py")
    if p.name != "__init__.py"  # its imports are the package's re-exports
)
TESTS = sorted(Path(__file__).parent.glob("*.py"))


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


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda p: p.name)
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
    (r"\[:, :, None\]", "linalg.py"),  # the rank-one broadcast
    (r"- (\w+ \* )?np\.eye\(", "frames.py"),  # the c I deviation
    (r"np\.abs\(\w+\) \*\* 2", "frames.py"),  # the squared-norm rule
    (r"np\.max\(np\.abs\(", "frames.py"),  # the unit-modulus deviation
    (r"np\.vecdot\(u, v\)\[:, None\] \* u", "frames.py"),  # the projection step
    (r"max\(1\.0, abs\(", "linalg.py"),  # the mixed-relative comparison
    ("not a Parseval frame", "povm.py"),  # the Parseval precondition
    (r"%\.17g", "serialize.py"),  # the float format
    (r"_entry_keys\(", "serialize.py"),  # the sort key of array entries
    (r"np\.triu_indices", "frames.py"),  # the pairs of a Gram tile
    (r"\(right \+ sep \+ left\)\.join", "serialize.py"),  # the row rule
    (r"@ phases", "waveforms.py"),  # the ambiguity table's one product
    # the pivot step, over a whole stack
    (r"np\.argmax\(a\.diagonal\(axis1=1, axis2=2\)\.real, axis=1\)",
     "linalg.py"),
    ("1e-8", "frames.py"),  # the norm floor of a drawn row or direction
    (r"2\.0 \* math\.pi", "rng.py"),  # 2 pi
])
def test_the_field_rules_are_written_once(text, home):
    # The array rule, the mixed-relative comparison, the rank-one rule
    # and the pivot step of the pivoted factorization live in linalg,
    # the field draw, the field check, the integer rule and 2 pi in rng,
    # the c I, squared-norm, unit-modulus and orthonormalization rules,
    # the norm floor and the pairs of a Gram tile in frames, the float format,
    # the sort key of array entries and the row rule in serialize, the
    # ambiguity table's product in waveforms; a second copy elsewhere in
    # the package fails here.
    # Each text is a regular expression.
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


def test_the_package_imports_only_its_own_names_as_public():
    # __all__ is the public globals of __init__, so a name imported from
    # outside the package would join the API unless it is private.
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imports = [node for node in tree.body
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports
    for node in imports:
        if isinstance(node, ast.ImportFrom):
            assert node.level == 1, ast.unparse(node)
        else:
            assert all((alias.asname or alias.name).startswith("_")
                       for alias in node.names), ast.unparse(node)


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


def owned(tree: ast.AST) -> Iterator[tuple[ast.AST, str]]:
    """Each node under ``tree`` with its owner: the innermost function
    or method around it, as the dotted path of the classes and functions
    that hold it ("_fill", "SplitMix64.u64", "quadratic_gleason.fn"),
    or "<module>" outside every function, as in a class body.  A def
    node is owned where its name is bound, the nodes under it by the
    def."""

    def visit(node, path, owner):
        for child in ast.iter_child_nodes(node):
            yield child, owner
            if isinstance(child, ast.ClassDef):
                yield from visit(child, path + [child.name], owner)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = path + [child.name]
                yield from visit(child, inner, ".".join(inner))
            else:
                yield from visit(child, path, owner)

    return visit(tree, [], "<module>")


def owners(tree: ast.AST, hit) -> list[str]:
    """The owner of each node under ``tree`` that ``hit`` accepts, one
    entry per node, sorted."""
    return sorted(owner for node, owner in owned(tree) if hit(node))


def module(name: str) -> ast.Module:
    return ast.parse((PACKAGE / name).read_text())


def package_owners(hit) -> dict[str, list[str]]:
    """owners over each module of the package that has a hit, by file
    name."""
    found = {path.name: owners(module(path.name), hit)
             for path in sorted(PACKAGE.glob("*.py"))}
    return {name: hits for name, hits in found.items() if hits}


def named(node: ast.AST) -> str | None:
    """The name a bare name or an attribute node reads or writes."""
    return getattr(node, "attr", getattr(node, "id", None))


def called(node: ast.AST) -> str | None:
    """The name a call node calls, bare or as an attribute."""
    return named(node.func) if isinstance(node, ast.Call) else None


def dotted(node: ast.AST) -> str:
    """An attribute of a bare name as source text, as "np.abs", and ""
    for any other node."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return f"{node.value.id}.{node.attr}"
    return ""


LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp)


def loop_calls(node: ast.AST) -> set[str]:
    """The names called, bare or as attributes, inside a for or while
    loop or a comprehension node, and none for any other node."""
    if not isinstance(node, LOOPS):
        return set()
    return {called(inner) for inner in ast.walk(node)} - {None}


def writes(node: ast.AST) -> str | None:
    """The attribute name an attribute node assigns, augments or
    deletes."""
    if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load):
        return node.attr
    return None


def int_literal(node: ast.AST) -> int | None:
    """The value of an integer literal node; a bool or float is none."""
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return node.value
    return None


def test_the_walk_names_each_owner_by_its_dotted_path():
    tree = ast.parse(
        "x = 1\n"
        "def f():\n    def g():\n        return 2\n    return 3\n"
        "class C:\n    y = 4\n    def m(self):\n        return 5\n"
        "    class D:\n        def n(self):\n            return 6\n"
        "def h():\n    class E:\n        def k(self):\n            return 7\n"
    )
    assert {node.value: owner for node, owner in owned(tree)
            if isinstance(node, ast.Constant)} == {
        1: "<module>", 2: "f.g", 3: "f", 4: "<module>", 5: "C.m",
        6: "C.D.n", 7: "h.E.k"}
    assert [(node.name, owner) for node, owner in owned(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))] == [
        ("f", "<module>"), ("g", "f"), ("C", "<module>"), ("m", "<module>"),
        ("D", "<module>"), ("n", "<module>"), ("h", "<module>"), ("E", "h"),
        ("k", "h")]


@pytest.mark.parametrize("function", ["_jacobi", "_magnitudes",
                                      "_offdiag_norm"])
def test_the_jacobi_sweeps_make_no_numpy_call(function):
    # The sweeps run in Python scalar arithmetic, whose order alone fixes
    # their bits; the bit pin of _jacobi in test_linalg relies on it.
    tree = module("linalg.py")
    users = owners(tree, lambda n: dotted(n).startswith("np."))
    assert function in {owner for _, owner in owned(tree)}
    assert function not in {owner.split(".")[0] for owner in users}


def test_the_povm_layer_runs_no_eigensolver():
    # Effects are judged and factored by the pivoted factorization;
    # spectra stay with hermitian_eig, which povm does not name.
    source = (PACKAGE / "povm.py").read_text()
    assert "hermitian_eig" not in source
    assert "HermitianEig" not in source


def test_numpy_use_scan_sees_np_attributes():
    tree = ast.parse(
        "def f(a):\n    return np.abs(a) + np.linalg.norm(a) + a.np\n"
        "def g(a):\n    return np.pi\n"
    )
    assert owners(tree, lambda n: dotted(n).startswith("np.")) == [
        "f", "f", "g"]


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


def test_the_cli_forms_report_text_in_one_function():
    # Every report the CLI prints is the record's fields plus the CLI's
    # own keys, formed in one place.
    assert set(owners(module("cli.py"), lambda n: called(n) in {
        "canonical_json", "flat_report_to_json"})) == {"_report_text"}


def test_the_gabor_report_runs_no_gram_pass():
    # Its coherence is the ambiguity table's off-origin peak.
    assert owners(module("waveforms.py"),
                  lambda n: called(n) in {"coherence", "_pair_stats"}) == []


def test_the_cli_forms_no_ambiguity_peak():
    # A sequence's peaks are is_cazac's fields; only the ambiguity mode
    # reads the table itself, to write it.
    assert set(owners(module("cli.py"), lambda n: called(n) in {
        "ambiguity", "peak_off_origin"})) == {"_cmd_cazac"}


def test_the_lags_are_formed_only_for_the_ambiguity_table():
    # is_cazac reads the autocorrelation off column 0 of the table.
    assert set(owners(module("waveforms.py"),
                      lambda n: called(n) == "_lags")) == {"ambiguity"}


def test_the_simplex_is_built_with_no_blas_call():
    # Its closed form needs no Gram-Schmidt pass and no product.
    tree = module("frames.py")
    users = owners(tree, lambda n: isinstance(n, ast.MatMult)
                   or dotted(n) == "np.dot")
    assert "simplex_etf" in {owner for _, owner in owned(tree)}
    assert "simplex_etf" not in {owner.split(".")[0] for owner in users}


def test_each_verification_evaluates_one_block():
    # The frames of a verification are stacked and evaluated in one
    # values call, so the array rule, the ball check and the finiteness
    # check run once per verification; no trial builds its own Frame.
    # GleasonFn.__call__ is the evaluation of one point a caller hands
    # it, as a block of one row.
    tree = module("gleason.py")
    assert set(owners(tree, lambda n: called(n) == "values")) == {
        "GleasonFn.__call__", "_frame_sums", "fit_quadratic",
        "homogeneity_check"}
    assert owners(tree, lambda n: called(n) in {"random_onb",
                                                "_frame_sum"}) == []


def test_the_frame_draws_and_quadratic_forms_dot_a_whole_stack():
    # Gram-Schmidt and <A x, x> take one np.vecdot per stack, with
    # np.vdot's bits (the premise is tested in test_frames); no row is
    # dotted on its own.  A quadratic form's GleasonFn evaluates its
    # block through its inner fn.
    for name in ("frames.py", "gleason.py"):
        assert owners(module(name), lambda n: named(n) == "vdot") == []
    assert set(owners(module("gleason.py"),
                      lambda n: called(n) == "_quadratic_values")) == {
        "fit_quadratic", "quadratic_gleason.fn"}


def test_call_scan_sees_names_and_attributes():
    tree = ast.parse(
        "def f(a):\n    return s.canonical_json(a)\n"
        "def g(a):\n    return canonical_json(a)\n"
        "def h(a):\n    return a.canonical_json\n"
    )
    assert owners(tree, lambda n: called(n) == "canonical_json") == [
        "f", "g"]


MIXING_CONSTANTS = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)


def test_the_splitmix64_hash_is_written_once():
    # The mixing constants appear once each in rng.py, in _fill, the
    # hash rule every word of every generator comes from; no word is
    # hashed one at a time anywhere else.  serialize's sort key borrows
    # the first multiplier, at module level, for one bijective multiply
    # of each entry's bits, which draws no word.
    rng_source = (PACKAGE / "rng.py").read_text()
    assert [rng_source.count(f"0x{c:X}") for c in MIXING_CONSTANTS] == [1, 1]
    assert package_owners(lambda n: int_literal(n) in MIXING_CONSTANTS) == {
        "rng.py": ["_fill", "_fill"], "serialize.py": ["<module>"]}


def test_constant_scan_sees_the_innermost_function():
    tree = ast.parse(
        "K = 7\n"
        "def f():\n    def g():\n        return 7\n    return 7 + 8\n"
        "class C:\n    def m(self):\n        return 8.0, True\n"
    )
    assert owners(tree, lambda n: int_literal(n) in {7, 8}) == [
        "<module>", "f", "f", "f.g"]


def test_the_box_muller_transform_is_written_once():
    # Scalar, bulk, block and planned draws of normals all run one
    # transform: libm's log, mapped over the pairs, and NumPy's sqrt,
    # cos and sin, which have libm's bits (tests/test_rng.py checks
    # that premise); NumPy's own log is never used.  A function counts
    # wherever it is named, called or handed on, as to map.
    tree = module("rng.py")
    assert owners(tree, lambda n: dotted(n) in {
        "math.log", "math.cos", "math.sin"}) == ["_box_muller"]
    assert owners(tree, lambda n: dotted(n) in {
        "np.log", "np.cos", "np.sin", "np.sqrt"}) == ["_box_muller"] * 3


def test_only_the_word_readers_fill_a_block():
    # u64 reads one word and _take every multi-word draw, and the runs
    # of normals of a draw or a stack are filled one round at a time; no
    # draw runs a fill loop of its own.
    assert owners(module("rng.py"), lambda n: called(n) == "_fill") == [
        "SplitMix64._take", "SplitMix64.u64", "_normal_runs"]


def rng_lines(draw) -> int:
    """The lines of rng.py that draw() executes, counted by a tracer."""
    count = 0
    source = framelab.rng.__file__

    def trace(frame, event, arg):
        nonlocal count
        if frame.f_code.co_filename != source:
            return None
        count += event == "line"
        return trace

    sys.settrace(trace)
    try:
        draw()
    finally:
        sys.settrace(None)
    return count


# Pairs of draws that differ only in how many words they read, all
# within one fill of at most 1024 words a generator.
WORD_COUNT_PAIRS = {
    "gaussians": lambda n: SplitMix64(3).gaussians(8 * n),
    "complex_gaussians": lambda n: SplitMix64(3).complex_gaussians(4 * n),
    "spare-then-gaussians": lambda n: SplitMix64(3).gaussians(1)
    + SplitMix64(4).gaussians(8 * n + 1).sum(),
    "_field_runs": lambda n: framelab.rng._field_runs(
        [SplitMix64(s) for s in range(8)], [4 * n] * 8, "C"),
    "_run-width": lambda n: SplitMix64(3)._run(4 * n, [1, 0, 2]),
    "_run-uniforms": lambda n: SplitMix64(3)._run(3, [n, 0, n]),
    "_run-steps": lambda n: SplitMix64(3)._run(3, [1] * n),
}


@pytest.mark.parametrize("name", sorted(WORD_COUNT_PAIRS))
def test_rng_has_no_python_loop_over_words(name):
    # A draw of 16 words and one of some hundreds run the same lines of
    # rng.py: the words, the normals and the steps of a planned run go
    # through whole-array passes, and no Python loop runs per word, per
    # pair or per step.
    draw = WORD_COUNT_PAIRS[name]
    assert rng_lines(lambda: draw(2)) == rng_lines(lambda: draw(60))




def test_method_call_scan_sees_methods_and_nested_functions():
    tree = ast.parse(
        "import math\n"
        "class C:\n    def m(self):\n        return math.log(2)\n"
        "def f():\n    def g():\n        return math.cos(1)\n"
        "    return np.log(3), math.sin(1), log(2)\n"
        "def h():\n    return log(1), x.log(2)\n"
        "def k(xs):\n    return list(map(math.log, xs)), f(math.cos(1))\n"
    )
    assert owners(tree, lambda n: dotted(n) in {
        "math.log", "math.cos", "math.sin"}) == ["C.m", "f", "f.g", "k", "k"]
    assert owners(tree, lambda n: called(n) == "log") == [
        "C.m", "f", "f", "h", "h"]


GAUSSIAN_DRAWS = {"field_gaussians", "gaussians", "complex_gaussians"}


def test_no_sampler_draws_its_directions_one_at_a_time():
    # A sampler's directions come from one run of the stream
    # (gleason._directions); no Gaussian is drawn per sample.
    assert owners(module("gleason.py"),
                  lambda n: loop_calls(n) & GAUSSIAN_DRAWS) == []


def test_the_povm_layer_factors_no_effect_on_its_own():
    # Each POVM's effects are judged and factored as stacks, one per
    # dtype, by the effect rule; no loop or comprehension factors them
    # one at a time.
    tree = module("povm.py")
    assert owners(tree, lambda n: called(n) == "_pivoted_rows") == [
        "_factor_parts"]
    assert owners(tree, lambda n: loop_calls(n) & {
        "_pivoted_rows", "_factor_parts"}) == []


def test_loop_call_scan_sees_each_loop_form():
    tree = ast.parse(
        "def f(r):\n    for _ in range(3):\n        r.field_gaussians(2, 'R')\n"
        "def g(r):\n    while True:\n        x = gaussians(2)\n"
        "def h(r):\n    return [r.gaussians(1) for _ in range(2)]\n"
        "def k(r):\n    return r.field_gaussians(2, 'R')\n"
    )
    assert owners(tree, lambda n: loop_calls(n) & GAUSSIAN_DRAWS) == [
        "f", "g", "h"]


def test_name_scan_sees_names_and_attributes():
    tree = ast.parse(
        "from .rng import run\n"
        "def f(r):\n    return run(r), r.run\n"
        "class C:\n    def m(self):\n        self.run = 1\n"
        "def g():\n    def h():\n        return run\n    return x.go\n"
        "y = run\n"
    )
    assert owners(tree, lambda n: named(n) == "run") == [
        "<module>", "C.m", "f", "f", "g.h"]
    assert owners(tree, lambda n: isinstance(n, ast.Attribute)
                  and n.attr == "run") == ["C.m", "f"]


def test_only_the_frame_pass_draws_a_stack():
    # Every stack of random frames, of one size or of mixed sizes, is
    # drawn by the random-frame stream of frames, the one user of rng's
    # stacked run; no other function calls it, takes it or hands it on.
    assert package_owners(lambda n: named(n) == "_field_runs") == {
        "frames.py": ["_random_rows"]}


def test_only_frames_knows_the_pass_size():
    # How many random frames a pass draws is decided where they are
    # drawn: no other module defines, reads or imports _STACK_PASS.
    assert list(package_owners(lambda n: named(n) == "_STACK_PASS")) == [
        "frames.py"]


def test_attribute_write_scan_sees_each_form():
    tree = ast.parse(
        "class C:\n    def m(self):\n        self._base = 1\n"
        "        return self._base\n"
        "def f(r):\n    r._base, r._read = 0, 0\n"
        "    def g():\n        r._base += 1\n    del r._base\n"
        "def h(r):\n    return r._base\n"
    )
    assert owners(tree, lambda n: writes(n) == "_base") == [
        "C.m", "f", "f", "f.g"]


def test_only_the_fills_move_a_generators_counter():
    # A generator's counter is set where it is seeded and where a fill
    # or a stacked run hands it a block; no draw goes back in the
    # stream, so no other function writes it.
    assert package_owners(lambda n: writes(n) == "_base") == {
        "rng.py": ["SplitMix64.__init__", "_field_runs", "_fill"]}


def test_the_redraw_rule_is_written_once():
    # The norm floor is read, and a refused row or direction drawn
    # again, only in the redraw rule of frames, which both the random
    # frames and the sample directions of gleason call.
    assert package_owners(lambda n: named(n) == "_NORM_FLOOR") == {
        "frames.py": ["<module>", "_redraw", "_redraw"]}
    loops = package_owners(lambda n: loop_calls(n) & GAUSSIAN_DRAWS)
    assert {name: set(found) for name, found in loops.items()} == {
        "frames.py": {"_redraw"}}
    assert package_owners(lambda n: named(n) == "_redraw") == {
        "frames.py": ["_orthonormalize"], "gleason.py": ["_directions"]}


def test_only_rng_touches_a_generators_words():
    # A generator's counter, block, read position and spare are rng's:
    # every other module draws through its methods and rng's runs.
    internals = {"_base", "_words", "_read", "_spare"}
    assert list(package_owners(lambda n: isinstance(n, ast.Attribute)
                               and n.attr in internals)) == ["rng.py"]


def test_the_scalar_writers_form_no_float_text():
    # fmt_float and the emitter hand each float or complex scalar to the
    # cell rule as a one-entry array; neither formats a float with %,
    # holds a format string nor checks finiteness itself.
    tree = module("serialize.py")
    writers = {"fmt_float", "_emit"}
    users = owners(tree, lambda n: isinstance(n, ast.Mod)
                   or named(n) == "isfinite"
                   or isinstance(n, ast.Constant) and "%" in str(n.value))
    assert writers <= {owner for _, owner in owned(tree)}
    assert not writers & {owner.split(".")[0] for owner in users}
