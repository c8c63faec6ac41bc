"""Every function, class and method under src/distideal has a caller in
src/ itself, or an entry in ``KEPT`` that says why it stays.

A definition counts as called when some module of the package other
than ``__init__.py``, its own included, names it: as a bare name, as an
attribute (``x.name``) or in an import.  Dunders and the names that
``__init__.py`` exports are the package's interface and are exempt.
The modules are read with ``ast``, never imported.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "distideal"

# "module.name" or "module.Class.method" -> why it stays without a caller
KEPT = {
    "cli._Parser.error": "argparse calls it on a usage error",
    "classify.ClassificationReport.verdict": "perfbench reads it",
    "snf.minors_gcd": "perfbench's invariants workload calls it",
    "groebner.reduce_poly": "perfbench's tracer wraps it",
    "groebner.s_polynomial": "perfbench's tracer wraps it",
    "groebner.gcd_polynomial": "perfbench's tracer wraps it",
    "graph.canonical_form": "perfbench's tracer wraps it",
    "groebner.Ideal.verify": "the basis checker of the tests and "
                             "ROADMAP items 1 and 10",
    "ideals.check": "the certificate checker of the tests and "
                    "ROADMAP items 1 and 10",
}


def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(SRC.glob("*.py"))}


def _definitions(tree):
    """The qualified names of the module's top-level functions and
    classes, and of the methods defined in those classes."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds):
                    yield node.name + "." + item.name, item.name


def _named(tree):
    """Every identifier the module reads: names, attributes, imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _exports(tree):
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _uncalled():
    """The qualified definitions no module names, and every definition."""
    trees = _trees()
    init = trees.pop("__init__")
    exported = _exports(init)
    named = set().union(*map(_named, trees.values()))
    defined, uncalled = set(), set()
    for module, tree in trees.items():
        for qualified, name in _definitions(tree):
            full = module + "." + qualified
            defined.add(full)
            dunder = name.startswith("__") and name.endswith("__")
            if dunder or qualified in exported or name in named:
                continue
            uncalled.add(full)
    return uncalled, defined


def test_every_src_definition_has_a_caller_or_a_reason():
    uncalled, _ = _uncalled()
    assert sorted(uncalled - set(KEPT)) == []


def test_kept_names_exist_and_have_no_src_caller():
    # the list shrinks with the code: a name that is gone, or that src/
    # now calls, leaves KEPT
    uncalled, defined = _uncalled()
    assert sorted(set(KEPT) - defined) == []
    assert sorted(set(KEPT) - uncalled) == []
