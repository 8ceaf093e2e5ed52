"""Checks on the package source itself."""

import ast
import re
import sys
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


def test_the_gabor_report_runs_no_gram_pass():
    # Its coherence is the ambiguity table's off-origin peak.
    tree = ast.parse((PACKAGE / "waveforms.py").read_text())
    assert calling_functions(tree, {"coherence", "_pair_stats"}) == []


def test_the_cli_forms_no_ambiguity_peak():
    # A sequence's peaks are is_cazac's fields; only the ambiguity mode
    # reads the table itself, to write it.
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    assert calling_functions(
        tree, {"ambiguity", "peak_off_origin"}) == ["_cmd_cazac"]


def test_the_lags_are_formed_only_for_the_ambiguity_table():
    # is_cazac reads the autocorrelation off column 0 of the table.
    tree = ast.parse((PACKAGE / "waveforms.py").read_text())
    assert calling_functions(tree, {"_lags"}) == ["ambiguity"]


def test_the_simplex_is_built_with_no_blas_call():
    # Its closed form needs no Gram-Schmidt pass and no product.
    tree = ast.parse((PACKAGE / "frames.py").read_text())
    assert "np.dot" not in numpy_uses(tree, "simplex_etf")
    fn = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name == "simplex_etf")
    assert not any(isinstance(node, ast.MatMult) for node in ast.walk(fn))


def test_each_verification_evaluates_one_block():
    # The frames of a verification are stacked and evaluated in one
    # values call, so the array rule, the ball check and the finiteness
    # check run once per verification; no trial builds its own Frame.
    tree = ast.parse((PACKAGE / "gleason.py").read_text())
    assert calling_functions(tree, {"values"}) == [
        "_frame_sums", "fit_quadratic", "homogeneity_check"]
    assert calling_functions(tree, {"random_onb", "_frame_sum"}) == []


def test_the_frame_draws_and_quadratic_forms_dot_a_whole_stack():
    # Gram-Schmidt and <A x, x> take one np.vecdot per stack, with
    # np.vdot's bits (the premise is tested in test_frames); no row is
    # dotted on its own.
    trees = {name: ast.parse((PACKAGE / name).read_text())
             for name in ("frames.py", "gleason.py")}
    for tree in trees.values():
        assert not [node for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr == "vdot"]
    assert calling_functions(trees["gleason.py"], {"_quadratic_values"}) == [
        "fit_quadratic", "quadratic_gleason"]


def test_call_scan_sees_names_and_attributes():
    tree = ast.parse(
        "def f(a):\n    return s.canonical_json(a)\n"
        "def g(a):\n    return canonical_json(a)\n"
        "def h(a):\n    return a.canonical_json\n"
    )
    assert calling_functions(tree, {"canonical_json"}) == ["f", "g"]


MIXING_CONSTANTS = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)


def functions_using(tree: ast.Module, values) -> list[str]:
    """The innermost functions of a module whose body holds an integer
    literal among ``values``, one entry per literal, and "<module>" for
    a literal outside every function."""

    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            else:
                if (isinstance(child, ast.Constant)
                        and type(child.value) is int
                        and child.value in values):
                    found.append(owner)
                visit(child, owner)

    visit(tree, "<module>")
    return sorted(found)


def test_the_splitmix64_hash_is_written_once():
    # The mixing constants appear once each in rng.py, in _fill, the
    # hash rule every word of every generator comes from; no word is
    # hashed one at a time anywhere else.  serialize's sort key borrows
    # the first multiplier, at module level, for one bijective multiply
    # of each entry's bits, which draws no word.
    rng_source = (PACKAGE / "rng.py").read_text()
    assert [rng_source.count(f"0x{c:X}") for c in MIXING_CONSTANTS] == [1, 1]
    uses = {path.name: functions_using(ast.parse(path.read_text()),
                                       MIXING_CONSTANTS)
            for path in PACKAGE.glob("*.py")}
    assert {name: found for name, found in uses.items() if found} == {
        "rng.py": ["_fill", "_fill"], "serialize.py": ["<module>"]}


def test_constant_scan_sees_the_innermost_function():
    tree = ast.parse(
        "K = 7\n"
        "def f():\n    def g():\n        return 7\n    return 7 + 8\n"
        "class C:\n    def m(self):\n        return 8.0, True\n"
    )
    assert functions_using(tree, {7, 8}) == ["<module>", "f", "f", "g"]


def functions_calling(tree: ast.Module, owner: str | None, names: set[str],
                      passed: bool = False) -> list[str]:
    """The innermost functions of a module, methods among them, that
    call ``owner.name`` for a name in ``names``, or the bare ``name``
    when ``owner`` is None, one entry per call.  With ``passed``, a
    function handed to a call as an argument, as in ``map(math.log,
    xs)``, counts as called there."""
    found = []

    def called(func):
        if owner is None:
            return isinstance(func, ast.Name) and func.id in names
        return (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == owner and func.attr in names)

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                hits = [child.func] + (child.args if passed else [])
                found.extend(function for func in hits if called(func))
            visit(child, function)

    visit(tree, "<module>")
    return sorted(found)


def test_the_box_muller_transform_is_written_once():
    # Scalar, bulk, block and planned draws of normals all run one
    # transform: libm's log, mapped over the pairs, and NumPy's sqrt,
    # cos and sin, which have libm's bits (tests/test_rng.py checks
    # that premise); NumPy's own log is never used.
    tree = ast.parse((PACKAGE / "rng.py").read_text())
    assert functions_calling(tree, "math", {"log", "cos", "sin"},
                             passed=True) == ["_box_muller"]
    assert functions_calling(tree, "np", {"log", "cos", "sin", "sqrt"},
                             passed=True) == ["_box_muller"] * 3


def test_only_the_word_readers_fill_a_block():
    # u64 reads one word and _take every multi-word draw, and the runs
    # of normals of a draw or a stack are filled one round at a time; no
    # draw runs a fill loop of its own.
    tree = ast.parse((PACKAGE / "rng.py").read_text())
    assert functions_calling(tree, None, {"_fill"}) == [
        "_normal_runs", "_take", "u64"]


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
    assert functions_calling(tree, "math", {"log", "cos", "sin"}) == [
        "f", "g", "k", "m"]
    assert functions_calling(tree, "math", {"log", "cos", "sin"},
                             passed=True) == ["f", "g", "k", "k", "m"]
    assert functions_calling(tree, None, {"log"}) == ["f", "h"]


GAUSSIAN_DRAWS = {"field_gaussians", "gaussians", "complex_gaussians"}


def calls_in_loops(tree: ast.Module, names: set[str]) -> list[str]:
    """The functions of a module with a call to any of ``names``, as a
    bare name or an attribute, inside a for or while loop or a
    comprehension."""
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
             ast.GeneratorExp)
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for loop in ast.walk(fn):
            if not isinstance(loop, loops):
                continue
            for node in ast.walk(loop):
                if isinstance(node, ast.Call):
                    called = getattr(node.func, "attr",
                                     getattr(node.func, "id", None))
                    if called in names:
                        found.add(fn.name)
    return sorted(found)


def test_no_sampler_draws_its_directions_one_at_a_time():
    # A sampler's directions come from one run of the stream
    # (gleason._directions); no Gaussian is drawn per sample.
    tree = ast.parse((PACKAGE / "gleason.py").read_text())
    assert calls_in_loops(tree, GAUSSIAN_DRAWS) == []


def test_the_povm_layer_factors_no_effect_on_its_own():
    # Each POVM's effects are judged and factored as stacks, one per
    # dtype, by the effect rule; no loop or comprehension factors them
    # one at a time.
    tree = ast.parse((PACKAGE / "povm.py").read_text())
    assert calling_functions(tree, {"_pivoted_rows"}) == ["_factor_parts"]
    assert calls_in_loops(tree, {"_pivoted_rows", "_factor_parts"}) == []


def test_loop_call_scan_sees_each_loop_form():
    tree = ast.parse(
        "def f(r):\n    for _ in range(3):\n        r.field_gaussians(2, 'R')\n"
        "def g(r):\n    while True:\n        x = gaussians(2)\n"
        "def h(r):\n    return [r.gaussians(1) for _ in range(2)]\n"
        "def k(r):\n    return r.field_gaussians(2, 'R')\n"
    )
    assert calls_in_loops(tree, GAUSSIAN_DRAWS) == ["f", "g", "h"]


def functions_naming(tree: ast.Module, names: set[str],
                     bare: bool = True) -> list[str]:
    """The innermost functions of a module, methods among them, that
    name any of ``names`` as an attribute, or with ``bare`` also as a
    bare name, one entry per use, and "<module>" for a use outside every
    function."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Attribute) and child.attr in names
                    or bare and isinstance(child, ast.Name)
                    and child.id in names):
                found.append(owner)
            visit(child, owner)

    visit(tree, "<module>")
    return sorted(found)


def test_name_scan_sees_names_and_attributes():
    tree = ast.parse(
        "from .rng import run\n"
        "def f(r):\n    return run(r), r.run\n"
        "class C:\n    def m(self):\n        self.run = 1\n"
        "def g():\n    def h():\n        return run\n    return x.go\n"
        "y = run\n"
    )
    assert functions_naming(tree, {"run"}) == [
        "<module>", "f", "f", "h", "m"]
    assert functions_naming(tree, {"run"}, bare=False) == ["f", "m"]


def _uses(names: set[str]) -> dict[str, list[str]]:
    # functions_naming over every module of the package that names any
    # of names.
    uses = {path.name: functions_naming(ast.parse(path.read_text()), names)
            for path in PACKAGE.glob("*.py")}
    return {name: found for name, found in uses.items() if found}


def test_only_the_frame_pass_draws_a_stack():
    # Every stack of random frames, of one size or of mixed sizes, is
    # drawn by the random-frame stream of frames, the one user of rng's
    # stacked run; no other function calls it, takes it or hands it on.
    assert _uses({"_field_runs"}) == {"frames.py": ["_random_rows"]}


def test_only_frames_knows_the_pass_size():
    # How many random frames a pass draws is decided where they are
    # drawn: no other module defines, reads or imports _STACK_PASS.
    assert list(_uses({"_STACK_PASS"})) == ["frames.py"]


def attribute_writers(tree: ast.Module, names: set[str]) -> list[str]:
    """The innermost functions of a module, as Class.method for a
    method, that assign, augment or delete an attribute named in
    ``names``, one entry per write."""
    found = []

    def visit(node, owner, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, owner, f"{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, prefix + child.name, "")
            else:
                if (isinstance(child, ast.Attribute) and child.attr in names
                        and isinstance(child.ctx, (ast.Store, ast.Del))):
                    found.append(owner)
                visit(child, owner, prefix)

    visit(tree, "<module>", "")
    return sorted(found)


def test_attribute_write_scan_sees_each_form():
    tree = ast.parse(
        "class C:\n    def m(self):\n        self._base = 1\n"
        "        return self._base\n"
        "def f(r):\n    r._base, r._read = 0, 0\n"
        "    def g():\n        r._base += 1\n    del r._base\n"
        "def h(r):\n    return r._base\n"
    )
    assert attribute_writers(tree, {"_base"}) == ["C.m", "f", "f", "g"]


def test_only_the_fills_move_a_generators_counter():
    # A generator's counter is set where it is seeded and where a fill
    # or a stacked run hands it a block; no draw goes back in the
    # stream, so no other function writes it.
    writers = {path.name: attribute_writers(ast.parse(path.read_text()),
                                            {"_base"})
               for path in SOURCES}
    assert {name: found for name, found in writers.items() if found} == {
        "rng.py": ["SplitMix64.__init__", "_field_runs", "_fill"]}


def test_the_redraw_rule_is_written_once():
    # The norm floor is read, and a refused row or direction drawn
    # again, only in the redraw rule of frames, which both the random
    # frames and the sample directions of gleason call.
    assert _uses({"_NORM_FLOOR"}) == {
        "frames.py": ["<module>", "_redraw", "_redraw"]}
    loops = {path.name: calls_in_loops(ast.parse(path.read_text()),
                                       GAUSSIAN_DRAWS)
             for path in SOURCES}
    assert {name: found for name, found in loops.items() if found} == {
        "frames.py": ["_redraw"]}
    assert _uses({"_redraw"}) == {
        "frames.py": ["_orthonormalize"], "gleason.py": ["_directions"]}


def test_only_rng_touches_a_generators_words():
    # A generator's counter, block, read position and spare are rng's:
    # every other module draws through its methods and rng's runs.
    internals = {"_base", "_words", "_read", "_spare"}
    for path in SOURCES:
        if path.name != "rng.py":
            tree = ast.parse(path.read_text())
            assert functions_naming(tree, internals, bare=False) == [], (
                path.name)


def test_the_scalar_writers_form_no_float_text():
    # fmt_float and the emitter hand each float or complex scalar to the
    # cell rule as a one-entry array; neither formats a float with %,
    # holds a format string nor checks finiteness itself.
    tree = ast.parse((PACKAGE / "serialize.py").read_text())
    writers = [fn for fn in tree.body if isinstance(fn, ast.FunctionDef)
               and fn.name in ("fmt_float", "_emit")]
    assert len(writers) == 2
    for fn in writers:
        assert not [node for node in ast.walk(fn)
                    if isinstance(node, ast.BinOp)
                    and isinstance(node.op, ast.Mod)], fn.name
        assert not [node for node in ast.walk(fn)
                    if isinstance(node, ast.Constant)
                    and "%" in str(node.value)], fn.name
        assert functions_naming(fn, {"isfinite"}) == [], fn.name
