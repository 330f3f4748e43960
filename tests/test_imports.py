"""Lint: every module-level import is used, every public name is run, and
integers are checked in one module.

No external linter is a dependency, so this scans the package, the tests and
the scripts with ``ast``: a name bound by a module-level ``import`` must be
read somewhere in its module, or be listed in the module's ``__all__``.  And
each name in ``beadproc.__all__``, and in the ``__all__`` of every package
module, must be read by the package itself or by a script, so the package
does not export code that only tests run; such code lives next to the test
references in ``tests/``.  And no package module but ``model`` calls
``operator.index`` or tests for bools: ``model._index`` is the one integer
check.  And a package module reads another module's private name only
where the pair is listed in ``PRIVATE_READS``, with its reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src/beadproc", "tests", "scripts")


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path: Path) -> list[str]:
    """``"path:line name"`` for each module-level import ``path`` never uses."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(node.lineno, alias.asname or alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, alias.asname or alias.name) for alias in node.names if alias.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exported(tree)
    return [f"{path.relative_to(ROOT)}:{line} {name}" for line, name in bound if name not in used]


def test_no_unused_module_level_imports():
    files = sorted(f for d in SCANNED for f in (ROOT / d).rglob("*.py"))
    assert files
    assert [entry for f in files for entry in unused_imports(f)] == []


def _read_names(path: Path) -> set[str]:
    """Names ``path`` reads, as a bare name or as an attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_every_public_name_is_used_by_the_package_or_a_script():
    # Re-exports in ``__init__`` are imports, not reads, so they count for
    # nothing; a module's own reads of its names do count.
    modules = sorted((ROOT / "src/beadproc").glob("*.py"))
    init = ROOT / "src/beadproc/__init__.py"
    users = [f for f in modules if f != init] + sorted((ROOT / "scripts").glob("*.py"))
    read = set().union(*map(_read_names, users))
    public = {f.stem: _exported(ast.parse(f.read_text(encoding="utf-8"), filename=str(f))) for f in modules}
    assert public["__init__"] and all(public.values())
    assert {stem: sorted(names - read) for stem, names in public.items() if names - read} == {}


def integer_checks(path: Path) -> list[str]:
    """``"path:line"`` for each ``operator.index``, ``np.bool_`` or bool ``isinstance`` test in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    hits = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if (node.value.id, node.attr) in {("operator", "index"), ("np", "bool_"), ("numpy", "bool_")}:
                hits.add(node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
            if any(isinstance(n, ast.Name) and n.id == "bool" for arg in node.args[1:] for n in ast.walk(arg)):
                hits.add(node.lineno)
    return [f"{path.relative_to(ROOT)}:{line}" for line in sorted(hits)]


def test_integer_arguments_are_checked_only_in_model():
    # model._index is the package's one integer check; a second one elsewhere
    # would decide differently what an integer is, or word its refusal apart
    modules = sorted((ROOT / "src/beadproc").glob("*.py"))
    assert integer_checks(ROOT / "src/beadproc/model.py")
    assert [hit for f in modules if f.name != "model.py" for hit in integer_checks(f)] == []


# Each reader's reads of other modules' private names, with the reason.
# ``model._index``, the one integer check, is open to every module.
CHECKS = "model holds the one position check and the one point-tuple check"
PRIVATE_READS = {
    "checks": {
        "sampler._dirichlet_draw": "validate checks the sampler's own Dirichlet draw",
    },
    "kernel": {"model._positions": CHECKS, "model._records": CHECKS},
    "oracle": {"model._positions": CHECKS, "model._records": CHECKS},
    "scaling": {
        "kernel._gauss_legendre_unit": "the bulk forms share the kernel's cached nodes",
        "model._positions": CHECKS,
        "model._records": CHECKS,
    },
}


def private_reads(path: Path) -> set[str]:
    """``"module._name"`` for each private name of another package module that ``path`` reads,
    by ``from .module import _name`` or as ``module._name`` on an imported module."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    package = {f.stem for f in path.parent.glob("*.py")}
    modules, reads = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None and alias.name in package:
                    modules[alias.asname or alias.name] = alias.name
                elif node.module in package and alias.name.startswith("_"):
                    reads.add(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            if node.attr.startswith("_") and not node.attr.startswith("__"):
                reads.add(f"{modules[node.value.id]}.{node.attr}")
    return reads - {"model._index"}


def test_private_names_cross_modules_only_where_listed():
    # one module per decision: a module that needs another's private name
    # gets it by a listed pair, so adding one is a visible edit with a reason
    modules = sorted((ROOT / "src/beadproc").glob("*.py"))
    found = {f.stem: private_reads(f) for f in modules}
    assert {stem: reads for stem, reads in found.items() if reads} == {
        stem: set(pairs) for stem, pairs in PRIVATE_READS.items()
    }
