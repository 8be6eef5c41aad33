"""Leftovers of deleted code: imports that a module of the package or of
the tests no longer uses, private module-level names that nothing in the
package refers to any more, exception classes that nothing raises, and
handlers inside the package that catch one of its own exceptions.
Also the independence of the test oracles from the code they check, the
closed forms' independence from the sweep, and the package's module-level
state, what a CLI run imports, and the README's list of CLI options."""

import argparse
import ast
import hashlib
import re
import subprocess
import sys
from importlib.util import find_spec
from pathlib import Path

from srbetti import cli, complex_from_facets, fixture_path
from srbetti.simplicial import read_facets

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "srbetti"
HELPERS = TESTS / "helpers.py"


def parse_all(directory: Path) -> dict[str, ast.AST]:
    return {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(directory.glob("*.py"))}


TREES = parse_all(PACKAGE)


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
    # the package's __init__ imports to re-export
    trees = {f"srbetti/{name}": tree for name, tree in TREES.items() if name != "__init__.py"}
    trees |= {f"tests/{name}": tree for name, tree in parse_all(TESTS).items()}
    unused = []
    for name, tree in trees.items():
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


def _callee(node: ast.AST) -> str | None:
    """The last name of a called or decorating expression."""
    node = node.func if isinstance(node, ast.Call) else node
    return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None


def test_module_state_is_the_parser_and_its_defaults():
    # a mutable container bound at module level, or a cached function, is
    # shared by every caller in the process; the package keeps exactly the
    # corpus defaults and the memoized parser
    containers = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    mutable_types = {"dict", "list", "set", "bytearray", "array", "Counter", "defaultdict", "OrderedDict", "deque"}
    caches = {"cache", "lru_cache", "cached_property"}
    state = []
    for name, tree in TREES.items():
        module = name.removesuffix(".py")
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                value = node.value
                if isinstance(value, containers) or (isinstance(value, ast.Call) and _callee(value) in mutable_types):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    state += [f"{module}.{t.id}" for t in targets if isinstance(t, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(_callee(d) in caches for d in node.decorator_list):
                    state.append(f"{module}.{node.name}")
    assert sorted(state) == ["cli.CORPUS_DEFAULTS", "cli.build_parser"]


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


def test_no_package_exception_is_caught_inside_the_package():
    # srbetti's exceptions are for its callers: a disagreement inside the
    # package is reported as data, not raised and caught again
    defined = {node.name for node in TREES["errors.py"].body if isinstance(node, ast.ClassDef)}
    caught = []
    for name, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                caught += [f"{name}:{node.lineno}: {_callee(t)}" for t in types if _callee(t) in defined]
    assert defined and caught == []


def test_formulas_import_no_sweep():
    # the closed forms read plain values (h, n, degrees, p, t); a table
    # or a graph is the caller's to compute, so no second sweep runs here
    imported = set()
    for node in ast.walk(TREES["formulas.py"]):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("srbetti.").removeprefix("srbetti")
            imported |= {module} if module else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name.removeprefix("srbetti.") for alias in node.names}
    assert sorted(imported & {"betti", "graphs", "verify"}) == []


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


def test_oracles_read_no_methods_of_checked_classes():
    # a method or property of a checked class is srbetti code; the oracles
    # read only fields, and n, which is the length of a field
    checked = {"Complex", "Graph", "BettiTable", "FVector", "HVector", "ResolutionShape"}
    methods = set()
    for tree in TREES.values():
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name in checked:
                methods |= {
                    item.name
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")
                }
    assert "tokens_of" in methods and "n" in methods
    helpers = ast.parse(HELPERS.read_text(), str(HELPERS))
    read = {node.attr for node in ast.walk(helpers) if isinstance(node, ast.Attribute)}
    assert sorted(read & (methods - {"n"})) == []


def run_isolated(code: str) -> str:
    """The output of code run in a fresh `python -I -S` that imports
    srbetti from this checkout."""
    prelude = f"import sys\nsys.path.insert(0, {str(PACKAGE.parent)!r})\n"
    argv = [sys.executable, "-I", "-S", "-c", prelude + code]
    return subprocess.run(argv, capture_output=True, text=True, check=True).stdout


def test_cli_imports_no_dataclasses_openssl_or_typing():
    # each CLI run is a fresh process, so what srbetti.cli imports is paid
    # on every run: the records are named tuples, the annotations come from
    # collections.abc, and the digest is the builtin sha256 where the
    # interpreter has one (Python 3.12 dropped it for hashlib)
    loaded = set(run_isolated("import srbetti.cli\nprint(*sys.modules)").split())
    absent = {"dataclasses", "inspect", "typing"}
    if find_spec("_sha256") is not None:
        absent |= {"hashlib", "_hashlib"}
    assert sorted(absent & loaded) == []


def test_fingerprint_without_the_builtin_sha256():
    # the hashlib fallback gives the digest the builtin module gives
    path = fixture_path("rp2.cplx")
    out = run_isolated(
        'sys.modules["_sha256"] = None\n'
        "from srbetti import complex_from_facets, verify\n"
        "from srbetti.simplicial import read_facets\n"
        f"print(verify.fingerprint(complex_from_facets(read_facets({str(path)!r}))), 'hashlib' in sys.modules)"
    )
    c = complex_from_facets(read_facets(path))
    blob = f"{c.n}:{','.join(map(str, c.facets))}".encode()
    assert out.split() == [hashlib.sha256(blob).hexdigest()[:16], "True"]


def test_readme_cli_section_names_exactly_the_parser_options():
    # every --flag the README's CLI section describes is taken by some
    # subcommand, and every option of a subcommand but -h is described
    readme = (TESTS.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    described = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        flag
        for sub in subparsers.choices.values()
        for action in sub._actions
        if not isinstance(action, argparse._HelpAction)
        for flag in action.option_strings
    }
    assert sorted(described - options) == [] and sorted(options - described) == []
