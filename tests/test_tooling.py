"""Source-level guards: no `assert` in the package, `python -O` changes no output, every
public function has a caller in the package and every import a use, the instance
generator, the module builders and the coaction dictionary build nothing through the
coercing public constructors, the partial smash builds of the workspaces call no coercing
method, `main` builds its grammar once per process, each command imports only the
modules it runs, one function walks the lines of F_p^n, one function builds and checks
the dual action of a smash product, one routine checks the partial-action axioms for
both the action and the coaction checker, and a failing hypothesis test does not stop
the run under the repo's warning filters."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import psl
from psl.algebra import Algebra
from psl.cli import main
from psl.exactla import GF, QQ, Matrix, Subspace
from psl.hopf import HopfAlgebra
from psl.paction import PartialAction, PartialCoaction, action_to_coaction, c4_triple, coaction_to_action
from psl.pmod import (
    AlgebraModule,
    PartialModule,
    extend_left_module,
    extend_right_module,
    from_smash_module,
    irreducible_extension,
    quotient_module,
    regular_module,
    to_smash_module,
)
from psl.smash import build_partial_smash
from psl.workspace import load_workspace

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "psl").glob("*.py"))


def src_env() -> dict:
    """The environment with this checkout's `src/` first on PYTHONPATH, for a fresh interpreter."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements_in_package(path):
    # python -O strips asserts, so every invariant must raise a real exception
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"assert statements in {path.name} at lines {lines}"


def test_optimized_interpreter_prints_identical_bytes():
    env = src_env()
    outputs = []
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "psl.cli", "verify", "T4.26", "--output", "json"],
            capture_output=True, env=env, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert b'"ok": true' in outputs[0]


FAILING_THEN_PASSING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    # under the repo's warning filters, reporting a falsifying example must not end the
    # session in INTERNALERROR: the passing test after it still runs and is reported
    (tmp_path / "pyproject.toml").write_text((ROOT / "pyproject.toml").read_text(encoding="utf-8"), encoding="utf-8")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_probe.py").write_text(FAILING_THEN_PASSING, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        capture_output=True, text=True, cwd=tmp_path, timeout=600,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout + proc.stderr


# functions allowed a true division: over Q the kernel holds integral values as
# ints, and int / int is a float, so every other `/` in the package is a fault
DIVISION_ALLOWED = {"exactla.py": {"_Echelon.add"}}


def scoped_matches(tree, match):
    """(qualified name of the enclosing function, line) of every node for which match(node) holds."""
    found = []

    def walk(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if match(node):
            found.append((".".join(scope), node.lineno))
        for child in ast.iter_child_nodes(node):
            walk(child, scope)

    walk(tree, ())
    return found


def true_divisions(tree):
    """(qualified name of the enclosing function, line) of every `/` and `/=`."""
    return scoped_matches(
        tree, lambda node: isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_true_division_only_where_allowed(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    allowed = DIVISION_ALLOWED.get(path.name, set())
    stray = [(scope, line) for scope, line in true_divisions(tree) if scope not in allowed]
    assert not stray, f"true division in {path.name} outside {sorted(allowed)}: {stray}"


def test_division_guard_sees_every_form():
    tree = ast.parse("def f(a, b):\n    a /= b\n    return a / b\nclass C:\n    def g(self):\n        return 1 // 2 + 3 / 4\n")
    assert true_divisions(tree) == [("f", 2), ("f", 3), ("C.g", 6)]


def test_one_walk_over_the_lines():
    # the lattice enumeration, the irreducibility test and irreducible_extension
    # read the one line walk; a second caller of _projective_raw would be a second walk
    callers = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        calls = scoped_matches(
            tree,
            lambda node: isinstance(node, ast.Call)
            and "_projective_raw" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)),
        )
        callers.update(f"{path.stem}:{scope}" for scope, _ in calls)
    assert callers == {"exactla:_line_closures"}


def test_one_enumeration_gate():
    # the enumeration decides alone whether an ideal lattice is affordable: the caps are
    # compared where it starts and the line budget where the walk starts, and verify acts
    # on the refusal raised; a predicate or refusal helper that re-derives either would be
    # a second gate
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in SOURCES}

    def name(node):
        return getattr(node, "id", None) or getattr(node, "attr", None) or ""

    def scopes(match):
        return {f"{module}:{scope}" for module, tree in trees.items() for scope, _ in scoped_matches(tree, match)}

    def comparing(*wanted):
        return scopes(
            lambda node: isinstance(node, ast.Compare) and {name(n) for n in (node.left, *node.comparators)} & set(wanted)
        )

    assert comparing("dim_cap", "field_cap") == {"radicals:enumerate_h_stable_ideals"}
    assert comparing("ENUM_BUDGET") == {"exactla:_line_closures"}
    assert comparing("ENUM_CARRIER_CAP") == set()  # C3.7 passes it to the enumeration as a cap
    imported = {
        alias.name for node in ast.walk(trees["verify"]) if isinstance(node, ast.ImportFrom) for alias in node.names
    }
    assert not [n for n in imported if "refusal" in n or "enumerable" in n]
    assert not scopes(lambda node: isinstance(node, ast.Call) and "refusal" in name(node.func))


def test_one_dual_action_builder():
    # the dual H*-action of a smash product is built, and its axioms checked, on first
    # read only; a second caller of dual_hopf or check_partial_action in smash.py would
    # be an eager build
    tree = ast.parse((ROOT / "src" / "psl" / "smash.py").read_text(encoding="utf-8"))
    for name in ("dual_hopf", "check_partial_action"):
        calls = scoped_matches(
            tree,
            lambda node: isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None)),
        )
        assert {scope for scope, _ in calls} == {"_build_dual_action"}, name


def test_one_block_kernel_for_the_action_and_module_axioms():
    # PA3 and PA4, the module law and PM3 and PM4 all build their blocks through one
    # routine, the module checkers keep no dense loop of their own, and the coaction
    # layer multiplies nothing itself: a second block routine, a dense module loop or a
    # product in A (x) K would be a second kernel
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in SOURCES}
    defined = [
        path for path, tree in trees.items() for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_axiom_block"
    ]
    assert defined == ["algebra"]

    def callers(module, name):
        calls = scoped_matches(
            trees[module],
            lambda node: isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None)),
        )
        return {scope for scope, _ in calls}

    assert {f"{module}:{scope}" for module in trees for scope in callers(module, "_axiom_block")} == {
        "paction:_pa_failures", "pmod:_module_law", "pmod:check_partial_module",
    }
    for name in ("_apply_pair", "_add_scaled"):
        assert not callers("pmod", name) & {"_module_law", "check_partial_module"}, name
    for name in ("_multiply_raw", "_tensor_terms"):
        assert not callers("paction", name) & {"check_partial_coaction", "coinvariant_subalgebra"}, name


# functions allowed to make a Fraction: over Q a scalar is an int where it is integral
# and a Fraction only otherwise, so one is made only where an input enters
# (`RationalField.of`), where the elimination divides (`_Echelon.add`) and for the
# 1/|N| of `dual_group_idempotent`; any other would be a second scalar form
FRACTION_ALLOWED = {"exactla.py": {"RationalField.of", "_Echelon.add"}, "paction.py": {"dual_group_idempotent"}}


def fraction_calls(tree):
    """(qualified name of the enclosing function, line) of every call of `Fraction` or `<module>.Fraction`."""
    return scoped_matches(
        tree,
        lambda node: isinstance(node, ast.Call)
        and "Fraction" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)),
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_fraction_made_only_where_allowed(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    allowed = FRACTION_ALLOWED.get(path.name, set())
    stray = [(scope, line) for scope, line in fraction_calls(tree) if scope not in allowed]
    assert not stray, f"Fraction made in {path.name} outside {sorted(allowed)}: {stray}"


def test_fraction_guard_sees_every_form():
    tree = ast.parse(
        "def f(x):\n    return Fraction(x)\nclass C:\n    def g(self, x):\n        return fractions.Fraction(1, x)\n"
        "def h(x):\n    return isinstance(x, Fraction) or x.__class__ is Fraction\n"
    )
    # a call by name or through the module counts; a test of the type does not
    assert fraction_calls(tree) == [("f", 2), ("C.g", 5)]


# public functions and methods that nothing in psl calls and the package does not
# export, each kept for the reason given
UNCALLED_ALLOWED = {
    "algebra:Algebra.multiply": "a layer of pslbench/spans.py (algebra.multiply), and the product of "
    "outside vectors; psl's own loops multiply through _multiply_raw",
    "exactla:Subspace.contains": "membership of an outside vector, beside coords_of and reduce",
    "exactla:Subspace.coords_of": "the coordinates of an outside vector, beside contains and reduce; "
    "psl's own loops read the sparse Subspace._coords",
    "exactla:Subspace.reduce": "a layer of pslbench/spans.py (exactla.reduce)",
    "exactla:enumerate_invariant_subspaces": "a layer of pslbench/spans.py (exactla.enumerate), "
    "and the entry point the lattice oracles test",
}


def uncalled_definitions(sources: dict, exported: set) -> list:
    """`module:qualname` of each public function and method with no reference outside itself.

    `sources` maps a module name to its text.  A module-level function is
    referenced through a name and a method through an attribute, anywhere in
    the sources but inside its own definition; an exported function needs none.
    An attribute of `self` or `cls` inside class C references only
    C's own method of that name.
    """
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    # name -> (module, line, (module, class) of a self/cls attribute inside a class, else None)
    refs = {ast.Name: {}, ast.Attribute: {}}
    for mod, tree in trees.items():
        stack = [(tree, None)]
        while stack:
            node, cls = stack.pop()
            if isinstance(node, ast.ClassDef):
                cls = node.name
            stack.extend((child, cls) for child in ast.iter_child_nodes(node))
            if isinstance(node, ast.Name):
                refs[ast.Name].setdefault(node.id, []).append((mod, node.lineno, None))
            elif isinstance(node, ast.Attribute):
                own = cls and isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")
                refs[ast.Attribute].setdefault(node.attr, []).append((mod, node.lineno, (mod, cls) if own else None))
    found = []
    for mod, tree in trees.items():
        defs = [(None, n) for n in tree.body] + [
            (cls.name, n) for cls in tree.body if isinstance(cls, ast.ClassDef) for n in cls.body
        ]
        for owner, node in defs:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            if owner is None and node.name in exported:
                continue
            uses = refs[ast.Name if owner is None else ast.Attribute].get(node.name, [])
            uses = [(m, line) for m, line, scope in uses if scope in (None, (mod, owner))]
            if all(m == mod and node.lineno <= line <= node.end_lineno for m, line in uses):
                found.append(f"{mod}:{owner + '.' if owner else ''}{node.name}")
    return found


def package_exports() -> set:
    """The names `psl` exports: the keys of its lazy name -> module table."""
    return set(psl._EXPORTS)


def test_lazy_exports_resolve_to_their_modules():
    assert psl.__all__ == sorted(psl._EXPORTS)
    for name in psl.__all__:
        assert getattr(psl, name) is getattr(importlib.import_module(psl._EXPORTS[name]), name), name
    namespace = {}
    exec("from psl import *", namespace)
    assert set(psl.__all__) <= set(namespace)
    assert set(psl.__all__) <= set(dir(psl))
    with pytest.raises(AttributeError):
        psl.no_such_name
    with pytest.raises(ImportError):
        exec("from psl import no_such_name", {})


def test_every_public_definition_has_a_caller():
    # a function only tests call belongs next to those tests, not in the package
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES if p.name != "__init__.py"}
    uncalled = uncalled_definitions(sources, package_exports())
    assert sorted(set(uncalled) - set(UNCALLED_ALLOWED)) == []
    assert sorted(set(UNCALLED_ALLOWED) - set(uncalled)) == []  # no stale allowance


def test_caller_guard_sees_every_form():
    sources = {
        "m": "def f(n):\n    return f(n - 1)\ndef g():\n    return h()\ndef h():\n    pass\n"
        "def exported():\n    pass\n"
        "class C:\n    def rec(self):\n        return self.rec()\n    def used(self):\n        pass\n"
        "    def _private(self):\n        pass\n    def size(self):\n        pass\n"
        "    def own(self):\n        pass\n    def _reads_own(self):\n        return self.own\n",
        "n": "def k(c):\n    return c.used()\n"
        "class D:\n    def __init__(self):\n        self.size = 0\n",
    }
    # recursion is no caller; a name reaches a function and an attribute a method,
    # but self.<name> inside a class only that class's own method
    assert uncalled_definitions(sources, {"exported"}) == ["m:f", "m:g", "m:C.rec", "m:C.size", "n:k"]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == [], f"unused imports in {path.name}"


def count_constructor_calls(monkeypatch, classes) -> list:
    """The list that each later `__init__` call of one of `classes` appends its class name to."""
    calls = []
    for cls in classes:
        real = cls.__init__

        def counting(self, *args, cls=cls, real=real, **kwargs):
            calls.append(cls.__name__)
            real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return calls


def test_verify_builds_nothing_through_the_public_constructors(monkeypatch, tmp_path):
    # psl builds its algebras, Hopf algebras, actions and matrices from its own
    # sparse terms; the coercing constructors are for outside input only
    calls = count_constructor_calls(monkeypatch, (Algebra, HopfAlgebra, PartialAction, Matrix))
    assert main(["verify", "T4.26"]) == 0
    assert main(["verify", "NEG-SS"]) == 0  # builds sweedler_h4 and asks is_semisimple
    c4_triple(QQ)  # the FIX-B fixture of the run, also on its own
    assert calls == []
    doc = {
        "version": "psl-workspace/1",
        "field": {"kind": "Q"},
        "groups": {"C1": {"cyclic": 1}},
        "hopf_algebras": {"H": {"constructor": "group_algebra", "group": "C1"}},
        "algebras": {"A": {"constructor": "product_of_fields", "k": 1}},
        "actions": {"explicit": {"hopf": "H", "algebra": "A", "act": [[["1"]]]}},
    }
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    load_workspace(str(path)).actions["explicit"]
    assert calls == ["PartialAction"]


def test_module_builders_and_coactions_build_nothing_through_the_public_constructors(monkeypatch):
    # pmod's modules and the action <-> coaction dictionary store the sparse rows
    # their loops compute; the coercing constructors are for outside input only
    calls = count_constructor_calls(monkeypatch, (AlgebraModule, PartialModule, PartialCoaction, PartialAction, Matrix))
    F5 = GF(5)
    pa = c4_triple(F5)  # FIX-B over F_5, with the simple modules A/(e2, e3) on both sides
    I = Subspace.from_vectors(F5, 3, [[0, 1, 0], [0, 0, 1]])
    right, left = quotient_module(pa.alg, I, "right"), quotient_module(pa.alg, I, "left")
    sp = build_partial_smash(pa)
    for side in ("right", "left"):
        to_smash_module(from_smash_module(sp, regular_module(sp.carrier, side)), sp)
    extend_right_module(pa, right)
    extend_left_module(pa, left)
    irreducible_extension(pa, right)
    coaction_to_action(action_to_coaction(pa), pa.hopf)
    assert calls == []


WORKSPACES = [ROOT / "pslbench" / "workspaces" / f for f in ("q.json", "f2.json", "f3.json")]
WORKSPACES.append(ROOT / "workspaces" / "sample.json")


@pytest.mark.parametrize("path", WORKSPACES, ids=lambda p: p.name)
def test_partial_smash_builds_call_no_coercing_method(monkeypatch, path):
    # building an action and its partial smash product runs on the kernel routines
    # (_multiply_raw, _apply_raw, Subspace._span and _coords); the coercing methods
    # below are for outside input only
    ws = load_workspace(str(path))
    calls = []
    for cls, name in ((Algebra, "multiply"), (PartialAction, "act_basis"), (Subspace, "coords_of")):
        real = getattr(cls, name)

        def counting(self, *args, real=real, name=name):
            calls.append(name)
            return real(self, *args)

        monkeypatch.setattr(cls, name, counting)
    real_from_vectors = Subspace.from_vectors.__func__

    def from_vectors(cls, *args):
        calls.append("from_vectors")
        return real_from_vectors(cls, *args)

    monkeypatch.setattr(Subspace, "from_vectors", classmethod(from_vectors))
    for name in ws.actions:
        build_partial_smash(ws.actions[name])
    assert calls == []


def test_parity_script_writes_only_with_write(monkeypatch, tmp_path, capsys):
    import test_parity

    record = tmp_path / "parity.json"
    stored = {"a": "1", "b": "2"}
    record.write_text(json.dumps(stored))
    monkeypatch.setattr(test_parity, "RECORD", record)
    now = {"a": "1", "b": "3", "c": "4"}
    monkeypatch.setattr(test_parity, "snapshot", lambda: dict(now))

    assert test_parity.main([]) == 1
    assert capsys.readouterr().out.splitlines()[:2] == ["b", "c"]
    assert test_parity.main(["--check"]) == 2
    assert json.loads(record.read_text()) == stored  # compared, never written

    assert test_parity.main(["--write"]) == 0
    assert json.loads(record.read_text()) == now
    assert test_parity.main([]) == 0


GRAMMAR_PROBE = """
import argparse, contextlib, io, json

real_init = argparse.ArgumentParser.__init__
built = []

def counting(self, *args, **kwargs):
    if kwargs.get("prog", args[0] if args else None) == "psl":
        built.append(1)
    real_init(self, *args, **kwargs)

argparse.ArgumentParser.__init__ = counting
import psl.cli
at_import = len(built)
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(psl.cli.main(["check", "--workspace", "workspaces/sample.json", "triple"]))
    codes.append(psl.cli.main(["smash", "--workspace", "workspaces/sample.json", "corner"]))
out = io.StringIO()
with contextlib.redirect_stdout(out):
    codes.append(psl.cli.main(
        ["radicals", "--workspace", "workspaces/sample.json", "triple", "--output", "json"]))
print(json.dumps({"import": at_import, "main": len(built) - at_import, "codes": codes,
                  "stdout": out.getvalue()}))
"""


def test_grammar_built_once_per_process():
    # import builds no parser; the first main() call builds it and later calls reuse it
    env = src_env()
    probe = subprocess.run(
        [sys.executable, "-c", GRAMMAR_PROBE], capture_output=True, cwd=ROOT, env=env, timeout=600,
    )
    assert probe.returncode == 0, probe.stderr.decode()
    seen = json.loads(probe.stdout)
    assert (seen["import"], seen["main"], seen["codes"]) == (0, 1, [0, 0, 0])
    # a shell invocation, one main() in its own process, prints the same answer
    shell = subprocess.run(
        [sys.executable, "-m", "psl.cli", "radicals", "--workspace", "workspaces/sample.json",
         "triple", "--output", "json"],
        capture_output=True, cwd=ROOT, env=env, timeout=600,
    )
    assert shell.returncode == seen["codes"][-1]
    assert shell.stdout.decode() == seen["stdout"]
    assert json.loads(seen["stdout"])["command"] == "radicals"


IMPORT_PROBE = """
import contextlib, io, json, sys
import psl
argv = json.loads(sys.argv[1])
code = None
if argv is not None:
    from psl.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""

# loaded only by what runs them: psl.verify by `verify`, psl.pmod by a workspace with a
# `modules` section; dataclasses (and inspect, which it imports) by no command
ON_DEMAND = {"psl.verify", "psl.pmod", "dataclasses", "inspect"}

MODULE_DOC = {
    "version": "psl-workspace/1",
    "field": {"kind": "Q"},
    "groups": {"C2": {"cyclic": 2}},
    "hopf_algebras": {"H": {"constructor": "group_algebra", "group": "C2"}},
    "algebras": {"A": {"constructor": "product_of_fields", "k": 2}},
    "actions": {"t": {"builder": "trivial", "hopf": "H", "algebra": "A"}},
    "modules": {"reg": {
        "action": "t", "side": "right", "dim": 2,
        "a_act": [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]],
        "h_act": [[["1", "0"], ["0", "1"]], [["1", "0"], ["0", "1"]]],
    }},
}


def loaded_after(argv) -> tuple:
    """(exit code, sys.modules) of a fresh interpreter after `import psl` and, unless
    `argv` is None, one `psl.cli.main(argv)`."""
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, json.dumps(argv)],
        capture_output=True, cwd=ROOT, env=src_env(), timeout=600,
    )
    assert probe.returncode == 0, probe.stderr.decode()
    seen = json.loads(probe.stdout)
    return seen["code"], set(seen["modules"])


def test_import_psl_loads_no_submodule():
    _, modules = loaded_after(None)
    assert sorted(m for m in modules if m.startswith("psl.")) == []


def test_radicals_loads_neither_verify_nor_pmod():
    code, modules = loaded_after(
        ["radicals", "--workspace", str(ROOT / "pslbench" / "workspaces" / "f2.json"), "c2-on-f2"])
    assert code == 0
    assert "psl.radicals" in modules
    assert sorted(modules & ON_DEMAND) == []


def test_verify_loads_the_theorem_table_only():
    code, modules = loaded_after(["verify", "NEG-SS"])
    assert code == 0
    assert sorted(modules & ON_DEMAND) == ["psl.verify"]


def test_check_of_a_workspace_module_loads_pmod(tmp_path):
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(MODULE_DOC))
    code, modules = loaded_after(["check", "--workspace", str(path), "reg"])
    assert code == 0
    assert sorted(modules & ON_DEMAND) == ["psl.pmod"]


def constructor_paths() -> dict:
    """For each class of psl with `__slots__` and a second constructor, one instance built through
    each of its constructors, by path name."""
    from psl.hopf import GroupTable, group_algebra
    from psl.pmod import PartialModule

    F = GF(3)
    one, terms = [[[1]]], ((((0, 1),),),)
    A, A_kernel = Algebra(F, one, unit=[1]), Algebra._of_terms(F, terms, (1,))
    H = HopfAlgebra(A, one, [1], Matrix(F, [[1]]))
    H_kernel = group_algebra(F, GroupTable.cyclic(1))
    pa = PartialAction(H, A, one)
    return {
        Matrix: {"__init__": Matrix(F, [[1, 2]]), "_of_raw": Matrix._of_raw(F, ((1, 2),), 2)},
        Algebra: {"__init__": A, "_of_terms": A_kernel},
        HopfAlgebra: {"__init__": H, "_of_terms": H_kernel},
        PartialAction: {"__init__": pa, "_of_terms": PartialAction._of_terms(H_kernel, A_kernel, terms)},
        PartialCoaction: {
            "__init__": PartialCoaction(A, H, Matrix(F, [[1]])),
            "_of_terms": PartialCoaction._of_terms(A, H, (((0, 1),),)),
        },
        AlgebraModule: {
            "__init__": AlgebraModule(A, 1, "right", one),
            "_of_terms": AlgebraModule._of_terms(A, 1, "right", terms),
        },
        PartialModule: {
            "__init__": PartialModule("right", pa, 1, one, one),
            "_of_terms": PartialModule._of_terms("right", pa, 1, terms, terms),
        },
    }


def slotted_classes_with_a_second_constructor() -> set:
    found = set()
    for path in SOURCES:
        module = importlib.import_module(f"psl.{path.stem}") if path.stem != "__init__" else psl
        for obj in vars(module).values():
            if (isinstance(obj, type) and obj.__module__ == module.__name__ and "__slots__" in vars(obj)
                    and ("_of_terms" in vars(obj) or "_of_raw" in vars(obj))):
                found.add(obj)
    return found


def test_every_slot_is_set_on_every_constructor_path():
    # a kept view whose slot one constructor leaves unset fails only when that path is
    # taken, as an AttributeError far from the constructor
    paths = constructor_paths()
    assert set(paths) == slotted_classes_with_a_second_constructor()
    for cls, built in paths.items():
        for path, obj in built.items():
            assert type(obj) is cls
            unset = [slot for slot in cls.__slots__ if not hasattr(obj, slot)]
            assert unset == [], f"{cls.__name__}.{path} leaves {unset} unset"
