"""Every private module-level name in the package is used somewhere in the package."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mcjoint"


def _bound(target):
    """Names a module-level assignment target binds, tuples unpacked."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _bound(elt)


def private_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [name for target in node.targets for name in _bound(target)]
        elif isinstance(node, ast.AnnAssign):
            names = list(_bound(node.target))
        else:
            continue
        yield from (n for n in names if n.startswith("_") and not n.startswith("__"))


def references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_private_name_is_referenced_in_the_package():
    # the scan itself: tuple-bound and annotated names count, a definition is no use
    probe = ast.parse("_A, (_B, _C) = range(3)\n_D: int = 1\ndef _e(): return _A\nclass _F: pass\n")
    assert list(private_definitions(probe)) == ["_A", "_B", "_C", "_D", "_e", "_F"]
    assert set(references(probe)) == {"range", "int", "_A"}

    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    used = {name for tree in trees.values() for name in references(tree)}
    unused = [f"{module}: {name}" for module, tree in trees.items()
              for name in private_definitions(tree) if name not in used]
    assert unused == [], "private names nothing in src/ uses; a test-only helper belongs in tests/"
