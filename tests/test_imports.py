"""Every module of the package reads each name it imports, and some module
reads each private name a module defines."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "credaltrees"

# perfbench/spans.py traces these by patching the module attributes, so the
# modules import them although no code there calls them.
KEEP_ALIVE = {
    ("solver", "enumerate_strategies"),
    ("solver", "gamble_of"),
    ("cli", "enumerate_strategies"),
    ("cli", "gamble_of"),
}


def _imported(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _annotation_names(tree: ast.Module) -> set[str]:
    """The names inside the module's string annotations."""
    names = set()
    for annotation in filter(None, _annotations(tree)):
        for n in ast.walk(annotation):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                parsed = ast.parse(n.value, mode="eval")
                names.update(m.id for m in ast.walk(parsed) if isinstance(m, ast.Name))
    return names


def _read(tree: ast.Module) -> set[str]:
    """The names the module's code loads, those inside string annotations
    included."""
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _annotation_names(tree)


# __init__ imports only to re-export: its imports are the package's names.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unread = {
        name
        for name in _imported(tree) - _read(tree)
        if (path.stem, name) not in KEEP_ALIVE
    }
    assert not unread, f"{path.name} imports names it never reads: {sorted(unread)}"


def _defined_private(tree: ast.Module) -> set[str]:
    """The private names the module binds at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _loaded(tree: ast.Module) -> set[str]:
    """The names the module's code loads, as a name, an attribute or an
    import, those inside string annotations included."""
    names = _annotation_names(tree)
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            names.update(alias.name for alias in n.names)
    return names


def test_every_private_module_name_is_read_somewhere():
    # A helper a simplification leaves without callers is dead code.
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE.glob("*.py")}
    read = set().union(*map(_loaded, trees.values()))
    unread = sorted(
        f"{stem}.{name}" for stem, tree in trees.items() for name in _defined_private(tree) - read
    )
    assert not unread, f"private names no module reads: {unread}"
