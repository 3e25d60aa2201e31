"""Module layering: no module of the package imports one above it."""

import ast
from pathlib import Path

import bergman_lab

#: Layers from the bottom up; a module may import only from its own layer or below.
LAYERS = (
    ("errors", "_exact"),
    ("weights",),
    ("space",),
    ("operators",),
    ("subspaces",),
    ("verify",),
    ("cli",),
)
RANK = {name: rank for rank, names in enumerate(LAYERS) for name in names}
PACKAGE = Path(bergman_lab.__file__).resolve().parent


def package_imports(tree: ast.AST) -> set:
    """Package modules imported anywhere in the tree, function bodies included."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:
                found.update(alias.name for alias in node.names)
            elif node.level == 1:
                found.add(node.module.split(".")[0])
            elif node.module and node.module.startswith("bergman_lab."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("bergman_lab."))
    return found


def test_modules_import_only_lower_layers():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__", "__main__"}
    assert modules == set(RANK), "every module needs a layer"
    upward = []
    for name in sorted(modules):
        tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        upward += [f"{name} imports {dep}" for dep in sorted(package_imports(tree))
                   if RANK[dep] > RANK[name]]
    assert upward == []


#: The names of the index storage form of a map (see ``operators.LinearMap``).
INDEX_FORM_NAMES = {"_rows", "_vals", "_indexed", "_at_rows", "_transposed", "_weighted_values"}


def test_only_operators_names_the_index_storage_form():
    """Every other module reaches index maps through operators' functions
    and LinearMap's public methods, so one module knows the storage format."""
    named = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "operators":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            named += [f"{path.stem}:{node.lineno} names {name}"
                      for name in sorted(names & INDEX_FORM_NAMES)]
    assert named == []


def imported_names(tree: ast.AST) -> dict:
    """The names the module binds by import, with the line of each import;
    ``from __future__`` imports bind none."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name.split(".")[0], node.lineno)
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update((alias.asname or alias.name, node.lineno) for alias in node.names)
    return bound


def test_modules_use_every_name_they_import():
    """Every name a module imports is read in that module.  The package's
    ``__init__`` is skipped: its imports are the re-exports."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem}:{line} imports {name}"
                   for name, line in sorted(imported_names(tree).items()) if name not in read]
    assert unused == []
