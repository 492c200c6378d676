"""Properties of the package source itself."""

import ast
import importlib
import inspect
import pathlib
import pickle
import runpy
import subprocess
import sys

import pytest

from conftest import T4
import chcverify
from chcverify.chc_ast import parse_program
from chcverify.linalg import EQ, LE, LT, ConstraintSet, LinearConstraint
from chcverify.polyhedra import Polyhedron

PACKAGE = pathlib.Path(chcverify.__file__).parent
BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
LAYERS = BENCH / "layers.py"
CORPUS = BENCH / "corpus.py"


def test_no_assert_statements():
    # `python -O` strips assert statements; internal checks must raise.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in {found}"
    assert len(list(PACKAGE.glob("*.py"))) > 5


def _traceable(target: str) -> bool:
    """Whether the span tracer can wrap "module:attr" or "module:Class.method":
    a module-level callable, or a function, classmethod or staticmethod in
    the class's own namespace."""
    mod_name, _, attr = target.partition(":")
    module = importlib.import_module(f"chcverify.{mod_name}")
    owner_name, _, meth = attr.rpartition(".")
    if not owner_name:
        return callable(getattr(module, attr, None))
    raw = getattr(getattr(module, owner_name, None), "__dict__", {}).get(meth)
    return isinstance(raw, (classmethod, staticmethod)) or callable(raw)


def test_every_benchmark_trace_target_resolves():
    # The benchmark reports a traced name it cannot find as absent rather
    # than failing, so a rename would silently empty its per-layer metrics.
    targets = runpy.run_path(str(LAYERS))["TARGETS"]
    missing = [t for t in targets if not _traceable(t)]
    assert not missing, f"benchmark trace targets not found: {missing}"
    assert len(targets) > 20


def test_a_traced_run_does_the_work_of_the_timed_run():
    # The benchmark's per-layer numbers come from a traced run, so neither
    # the tracer nor its probes may make the program do work that the timed
    # run skips: a probe that reads a lazily mined result must not mine
    # more. The tracer rebinds the package's functions, so it runs in a
    # subprocess. `verify` empties the caches when it starts, so each count
    # is that run's own.
    code = """if True:
        import sys
        sys.path[:0] = sys.argv[1:3]
        import chcverify, layers
        from chcverify import linalg
        from tracer import Tracer

        def projections(text):
            chcverify.verify(chcverify.parse_program(text))
            info = linalg._project_cached.cache_info()
            return info.hits + info.misses

        text = sys.stdin.read()
        untraced = projections(text)
        tracer = Tracer()
        tracer.install(layers.TARGETS, layers.PROBES)
        tracer.active = True
        print(untraced, projections(text), len(tracer.name_of))
    """
    out = subprocess.run(
        [sys.executable, "-c", code, str(PACKAGE.parent), str(BENCH)],
        input=T4, capture_output=True, text=True, check=True).stdout
    untraced, traced, spans = map(int, out.split())
    assert spans > 0
    assert traced == untraced


def test_every_benchmark_config_key_is_a_config_field():
    # The benchmark worker builds `Config(**job.config)`, so a field that a
    # workload sets and the code no longer has would only show as failed
    # benchmark runs.
    tree = ast.parse(CORPUS.read_text(), filename=str(CORPUS))
    keys = {key.value for node in ast.walk(tree)
            if isinstance(node, ast.keyword) and node.arg == "config"
            and isinstance(node.value, ast.Dict)
            for key in node.value.keys}
    assert keys, "no config={...} found in the benchmark corpus"
    fields = set(inspect.signature(chcverify.Config).parameters)
    assert keys <= fields, f"not Config fields: {sorted(keys - fields)}"


def test_every_exported_name_resolves():
    # `from chcverify.<module> import *` fails on a name left in `__all__`
    # after its definition is gone.
    missing = []
    for path in sorted(PACKAGE.glob("*.py")):
        name = "chcverify" if path.stem == "__init__" else f"chcverify.{path.stem}"
        module = importlib.import_module(name)
        missing += [f"{name}.{attr}" for attr in getattr(module, "__all__", ())
                    if not hasattr(module, attr)]
    assert not missing, f"names in __all__ but not defined: {missing}"


def _references(stmt: ast.AST) -> set:
    """The identifiers one top-level statement uses in code: names,
    attributes and imported names. Strings do not count, so neither a
    docstring nor a benchmark trace target ("module:attr") keeps a
    definition alive."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def _is_all(stmt: ast.AST) -> bool:
    return isinstance(stmt, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)


def test_every_module_level_definition_is_used():
    # A function or class that only its own body or the tests refer to is
    # dead code; the public API is the package `__all__`.
    defined = []  # (module, name, defining statement)
    used_by = {}  # identifier -> statements that refer to it
    for path in sorted(PACKAGE.glob("*.py")) + sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            if path.parent == PACKAGE and isinstance(
                    stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.stem, stmt.name, stmt))
            if not _is_all(stmt):
                for name in _references(stmt):
                    used_by.setdefault(name, []).append(stmt)
    unused = [f"{module}.{name}" for module, name, stmt in defined
              if name not in chcverify.__all__
              and not any(s is not stmt for s in used_by.get(name, ()))]
    assert not unused, f"defined but not used outside their own body: {unused}"
    assert len(defined) > 50


def test_every_method_of_a_package_class_is_used():
    # As for module-level definitions: a method that only its own body or
    # the tests call is dead code. Dunders are called by the language, and
    # a reference is its name anywhere in `src/` or `bench/` outside the
    # method itself, so a method shares its liveness with any attribute
    # of the same name.
    defined = []  # (module.Class.name, defining statement)
    used_by = {}  # identifier -> units (methods or top-level statements)
    for path in sorted(PACKAGE.glob("*.py")) + sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            units = stmt.body if isinstance(stmt, ast.ClassDef) else [stmt]
            for unit in units:
                if (path.parent == PACKAGE and unit is not stmt
                        and isinstance(unit, ast.FunctionDef)
                        and not unit.name.startswith("__")):
                    defined.append((f"{path.stem}.{stmt.name}.{unit.name}", unit))
                for name in _references(unit):
                    used_by.setdefault(name, []).append(unit)
    unused = [name for name, unit in defined
              if not any(u is not unit for u in used_by.get(unit.name, ()))]
    assert not unused, f"methods not used outside their own body: {unused}"
    assert len(defined) > 50


def test_only_chc_ast_and_qa_use_the_query_and_answer_suffixes():
    # The parser reserves the suffixes and `qa` spells its names with them.
    # Any other module that reads them depends on how `qa` names predicates,
    # as a round key that copied their sort order once did.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if _references(tree) & {"QUERY_SUFFIX", "ANSWER_SUFFIX"}:
            found.append(path.stem)
    assert found == ["chc_ast", "qa"]


def _definitions():
    """(name, node) of each top-level statement of the package, and of each
    statement of a top-level class, named module.name or
    module.Class.name ("line N" for a statement without a name)."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            owner = f"{stmt.name}." if isinstance(stmt, ast.ClassDef) else ""
            for node in stmt.body if owner else [stmt]:
                name = getattr(node, "name", f"line {node.lineno}")
                yield f"{path.stem}.{owner}{name}", node


def test_only_tableau_add_reads_the_artificial_column_kind():
    # An artificial column lives only inside the `_Tableau.add` call that
    # made it. Code anywhere else that reads `_ART` would treat a second
    # row form, one not held through its own slack.
    found = [name for name, node in _definitions()
             if any(isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                    and n.id == "_ART" or isinstance(n, ast.Attribute)
                    and n.attr == "_ART" for n in ast.walk(node))]
    assert found == ["linalg._Tableau.add"]


def test_one_redundancy_procedure_and_one_tableau_build_per_set():
    # `simplify` is the kernel's one redundancy procedure, projection's
    # prunes included, and a set's satisfiability is decided where its
    # tableau is built and cached. A second caller of `_drop_redundant` or
    # of `_Tableau.of` would bring back a second redundancy pass or a
    # satisfiability check outside the cache; `replaces_a_row` adds its
    # candidate row to a copy of the cached tableau of the rows.
    def callers(func):
        return [name for name, node in _definitions()
                if any(isinstance(n, ast.Call) and ast.unparse(n.func) == func
                       for n in ast.walk(node))]

    assert callers("_drop_redundant") == ["linalg.simplify"]
    assert callers("_Tableau.of") == ["linalg._tableau_of"]


def test_only_the_cached_rename_builds_a_positional_rename_map():
    # A fact moves between canonical names and an atom's arguments through
    # `linalg.renamed`, which caches the move. A definition anywhere else
    # that zips names into a map and renames by it would redo that work on
    # every call.
    def zips_a_map(n):
        return (isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                and n.func.id == "dict" and len(n.args) == 1
                and isinstance(n.args[0], ast.Call)
                and isinstance(n.args[0].func, ast.Name)
                and n.args[0].func.id == "zip")

    def renames(n):
        return (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                and n.func.attr == "rename")

    found = [name for name, node in _definitions()
             if any(map(zips_a_map, ast.walk(node)))
             and any(map(renames, ast.walk(node)))]
    assert found == ["linalg.renamed"]


def test_package_imports_only_the_standard_library():
    # The package declares no dependencies, so every absolute import must
    # resolve without installing anything.
    imported = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module)
    roots = {name.partition(".")[0] for name in imported}
    outside = sorted(roots - set(sys.stdlib_module_names))
    assert not outside, f"imports outside the standard library: {outside}"
    assert {"fractions", "math"} <= roots


def test_no_module_imports_contextvars():
    # A run's state is `verify`'s own: its locals, the arguments it passes
    # and module constants, never a context variable that some caller set.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            names = ([alias.name for alias in node.names]
                     if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom)
                     else [])
            if "contextvars" in names:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"contextvars imported at {found}"


def test_import_loads_only_what_verify_runs():
    # Every verdict starts a fresh interpreter, so what `import chcverify`
    # loads is paid on every run: the CLI's argparse is imported by `main`,
    # tempfile (with random, shutil, bisect and fnmatch) by the dumps, and
    # the records are NamedTuples and slotted classes, not dataclasses
    # (whose import pulls in inspect). `-S` skips `site`, whose `.pth`
    # hooks may import modules of their own.
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import chcverify; "
            "print(' '.join(sorted(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(PACKAGE.parent)],
                         capture_output=True, text=True, check=True).stdout
    loaded = set(out.split())
    assert "chcverify.driver" in loaded
    assert not loaded & {"dataclasses", "inspect", "argparse"}
    assert not loaded & {"tempfile", "random", "shutil", "bisect", "fnmatch"}


def _program():
    return parse_program("c1. p(X) :- 1*X = 0.\nc2. false :- 1*X < 0, p(X).")


# The slotted record types, each with a builder of a fresh value and its
# constructor fields.
SLOTTED = {
    "LinearConstraint": (lambda: LinearConstraint.make({"X": 1, "Y": -2}, LT, 3),
                         ("coeffs", "rel", "bound")),
    "ConstraintSet": (lambda: ConstraintSet.make(
        [LinearConstraint.make({"X": 1}, LE, 1),
         LinearConstraint.make({"Y": 2}, EQ, "1/2")]), ("constraints",)),
    "Program": (_program, ("clauses",)),
    "Polyhedron": (lambda: Polyhedron.of(
        ("A", "B"), ConstraintSet.make([LinearConstraint.make({"A": 1, "B": 1}, LE, 4)])),
        ("space", "constraints")),
}


@pytest.mark.parametrize("name", sorted(SLOTTED))
def test_slotted_types_have_value_semantics(name):
    build, fields = SLOTTED[name]
    a, b = build(), build()
    assert a is not b and a == b and hash(a) == hash(b) and not a != b
    as_tuple = tuple(getattr(a, f) for f in fields)
    assert a != as_tuple and as_tuple != a
    text = repr(a)
    assert text.startswith(f"{name}(")
    assert all(f"{f}=" in text for f in fields), text
    assert not hasattr(a, "__dict__")
    back = pickle.loads(pickle.dumps(a))
    assert back == a and hash(back) == hash(a)
