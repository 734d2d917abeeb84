"""Source guard: no module imports a name it does not use, every
module-level function and class has a caller or a reader somewhere, and the
settings a user can pass are the ones listed here."""

import argparse
import ast
import importlib
import importlib.util
from dataclasses import fields
from pathlib import Path

import pytest

import cliffspec as cs
from cliffspec.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cliffspec"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _used_names(nodes):
    """Names read as variables, attributes or imported names in ``nodes``."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
            elif isinstance(sub, ast.alias):
                out.add(sub.name.split(".")[-1])
    return out


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.stem)
def test_module_uses_every_name_it_imports(path):
    tree = _tree(path)
    imported = set()
    rest = []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        else:
            rest.append(node)
    assert imported <= _used_names(rest), sorted(imported - _used_names(rest))


def test_every_module_level_definition_is_referenced():
    files = [p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")]
    # names used by each top-level statement of each file
    used = {p: [(node, _used_names([node])) for node in _tree(p).body] for p in files}
    unreferenced = []
    for path in MODULES:
        for node, _ in used[path]:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            # references anywhere but inside the definition itself
            if not any(node.name in names for stmts in used.values()
                       for other, names in stmts if other is not node):
                unreferenced.append(f"{path.stem}.{node.name}")
    assert unreferenced == []


def _is_main_guard(node):
    return (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
            and ast.unparse(node.test) == "__name__ == '__main__'")


# what a constant expression is made of: literals, names and attributes
# (math.pi) under arithmetic; no call, subscript or comprehension
_CONSTANT_NODES = (ast.Constant, ast.Name, ast.Attribute, ast.Load, ast.BinOp, ast.UnaryOp,
                   ast.operator, ast.unaryop)


def test_the_contour_samples_profiles_in_one_place():
    # calculus evaluates a profile only in ContourEngine._sample, which
    # checks the function's sector before and its values after
    readers = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Attribute) and child.attr in ("eval_complex", "profile"):
                readers.add(".".join(scope))
            visit(child, scope)

    visit(_tree(PACKAGE / "calculus.py"), ())
    assert readers == {"ContourEngine._sample"}


def test_the_suite_sums_claims_in_one_place():
    # every record's tol is a combined_tolerance call, and no arithmetic in
    # the suite reads a claim: the claims are summed in one order, there
    claims = ("truncation_error", "discretization_error", "combined_error")
    tols, sums = [], []
    for node in ast.walk(_tree(PACKAGE / "suite.py")):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_record":
            tols += [kw.value for kw in node.keywords if kw.arg == "tol"]
        elif isinstance(node, (ast.BinOp, ast.AugAssign)):
            sums += [sub.attr for sub in ast.walk(node)
                     if isinstance(sub, ast.Attribute) and sub.attr in claims]
    assert tols and all(isinstance(t, ast.Call) and getattr(t.func, "id", None)
                        == "combined_tolerance" for t in tols), [ast.unparse(t) for t in tols]
    assert sums == []


def test_the_contour_rule_is_written_once():
    # the strip's 31/32, the target of the node counts and the rule's error
    # bound (the one expm1 of src) each have one definition; 1e-10 is that
    # target's value and the invertibility tolerance's, both named
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}"
                if child.name == "trapezoid_error":
                    found.append(("def trapezoid_error", where))
            elif isinstance(child, ast.Assign) and isinstance(child.value, ast.Constant):
                if child.value.value == 1e-10:
                    found.append(("1e-10", f"{where}.{child.targets[0].id}"))
                continue
            elif isinstance(child, ast.Constant) and child.value == 1e-10:
                found.append(("1e-10", where))
            elif isinstance(child, ast.Attribute) and child.attr == "expm1":
                found.append(("expm1", where))
            elif (isinstance(child, ast.BinOp) and isinstance(child.op, ast.Div)
                  and ast.unparse(child) in ("31 / 32", "31.0 / 32.0")):
                found.append(("31/32", where))
            visit(child, inner)

    for path in MODULES:
        visit(_tree(path), path.stem)
    assert sorted(found) == [
        ("1e-10", "calculus.RULE_TARGET"), ("1e-10", "module.INVERTIBILITY_RTOL"),
        ("31/32", "calculus.ContourConfig.strip"),
        ("def trapezoid_error", "quadrature"), ("expm1", "quadrature.trapezoid_error")]


def test_modules_do_no_work_at_import():
    # every import compiles each module from source when bytecode is not
    # written, and that time lands in the set-up of every run: a module body
    # holds imports, definitions, docstrings, the __main__ guard and names
    # bound to constant expressions, and nothing computed
    work = []
    for path in MODULES:
        for node in _tree(path).body:
            if isinstance(node, (ast.Import, ast.ImportFrom, ast.FunctionDef,
                                 ast.AsyncFunctionDef, ast.ClassDef)) or _is_main_guard(node):
                continue
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                    and isinstance(node.value.value, str):
                continue
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None and all(
                    isinstance(sub, _CONSTANT_NODES) for sub in ast.walk(node.value)):
                continue
            work.append(f"{path.stem}:{node.lineno}: {ast.unparse(node)[:60]}")
    assert work == []


def test_settings_inventory():
    # every setting a user can pass; a new knob is a deliberate edit here
    def names(cls):
        return [f.name for f in fields(cls)]

    assert names(cs.ContourConfig) == ["phi", "u_max", "nodes"]
    assert names(cs.RaySampling) == ["phis"]
    assert names(cs.SuiteConfig) == ["omega", "theta", "phi", "contour_nodes", "quad_nodes",
                                     "n_sandwich", "seed"]
    [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {name: sorted(o for a in p._actions for o in a.option_strings
                            if o not in ("-h", "--help"))
               for name, p in sub.choices.items()}
    common = ["--operator", "--out"]
    assert options == {
        "spectrum": sorted(common + ["--grid"]),
        "bisect": sorted(common + ["--omega"]),
        "calc": sorted(common + ["--function", "--omega", "--theta", "--phi", "--nodes"]),
        "frame": sorted(common + ["--g", "--omega", "--theta", "--nodes"]),
        "verify": sorted(common + ["--g", "--function", "--omega", "--theta", "--phi",
                                   "--nodes", "--seed"]),
    }


def test_perfbench_trace_targets_resolve():
    # perfbench's tracer wraps these names as ``Tracer.install`` reads them,
    # through the module's or the class's __dict__, and reads engine.A after
    # each engine build; a renamed entry point would break ``--trace 1``
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module_name, path, _ in tracing.TARGETS:
        owner = importlib.import_module(module_name)
        *cls, attr = path.split(".")
        if cls:
            owner = vars(owner).get(cls[0])
        if owner is None or attr not in vars(owner):
            missing.append(f"{module_name}.{path}")
    assert missing == []
    assert isinstance(vars(cs.ContourEngine).get("A"), property)
