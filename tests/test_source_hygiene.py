"""Leftovers of deleted code: imports a module no longer uses, private
module-level names that nothing in the package refers to any more, and
exception classes that nothing raises.  Also the independence of the test
oracles from the code they check."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "srbetti"
HELPERS = Path(__file__).resolve().parent / "helpers.py"
TREES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def used_names(tree: ast.AST) -> set[str]:
    """Names read in the tree, attributes included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_no_unused_imports():
    # __init__ imports to re-export
    unused = []
    for name, tree in TREES.items():
        if name == "__init__.py":
            continue
        used = used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}: {bound}")
    assert unused == []


def test_no_unreferenced_private_module_names():
    referenced = set().union(*map(used_names, TREES.values()))
    unreferenced = []
    for name, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, ast.Assign):
                defined = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                defined = [node.target.id]
            else:
                defined = []
            for d in defined:
                if d.startswith("_") and not d.startswith("__") and d not in referenced:
                    unreferenced.append(f"{name}: {d}")
    assert unreferenced == []


def test_every_exception_class_is_raised():
    defined = {node.name for node in TREES["errors.py"].body if isinstance(node, ast.ClassDef)}
    raised = set()
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert defined and sorted(defined - raised) == []


def test_oracles_import_only_constructors():
    # the brute-force oracles may build srbetti's inputs and read its
    # results, but never call what they check (homology, rank, the sweep)
    imported = set()
    for node in ast.walk(ast.parse(HELPERS.read_text(), str(HELPERS))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "srbetti":
            imported |= {f"{node.module}.{alias.name}" for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names if alias.name.split(".")[0] == "srbetti"}
    expected = {"BettiTable", "Complex", "Graph", "complex_from_facets", "graph_from_edges"}
    assert imported == {f"srbetti.{name}" for name in expected}
