"""The package's imports and private names, read from its source with
`ast`: `nchodge.__all__` is exactly what `__init__` imports and every name
in it resolves, no module keeps an import it never reads, and no module
keeps a private function, class or method that no module reads."""

import ast
import pathlib

import pytest

import nchodge

PACKAGE = pathlib.Path(nchodge.__file__).resolve().parent
MODULES = sorted(path.name for path in PACKAGE.glob("*.py"))


def parse(name: str) -> ast.Module:
    return ast.parse((PACKAGE / name).read_text(encoding="utf-8"), filename=name)


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, anywhere in the module, with its line;
    `from __future__` imports bind none."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    return bound


def read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, as a bare name or the base of an
    attribute chain."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Each private module-level function or class, and each private method
    of a module-level class, with its line: a name with a leading underscore
    that is not a dunder."""
    nodes = list(tree.body)
    nodes += [item for node in tree.body if isinstance(node, ast.ClassDef) for item in node.body]
    return {
        node.name: node.lineno
        for node in nodes
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }


def used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads: bare, as an attribute, or imported."""
    names = read_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_all_resolves():
    missing = [name for name in nchodge.__all__ if not hasattr(nchodge, name)]
    assert missing == []


def test_all_lists_exactly_what_init_imports():
    assert len(set(nchodge.__all__)) == len(nchodge.__all__)
    assert set(nchodge.__all__) == set(imported_names(parse("__init__.py")))


@pytest.mark.parametrize("name", [m for m in MODULES if m != "__init__.py"])
def test_no_unread_import(name):
    tree = parse(name)
    read = read_names(tree)
    unread = {n: line for n, line in imported_names(tree).items() if n not in read}
    assert unread == {}, f"{name} imports names it never reads"


def test_no_unread_private_definition():
    trees = {name: parse(name) for name in MODULES}
    read = set().union(*map(used_names, trees.values()))
    unread = {
        f"{name}:{line} {private}"
        for name, tree in trees.items()
        for private, line in private_definitions(tree).items()
        if private not in read
    }
    assert unread == set(), "private names that no module of the package reads"
