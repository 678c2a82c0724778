"""No public function or constant kind whose only caller is its own unit test.

Every name in a ``gridruin`` module's ``__all__`` must be re-exported by
the package or referenced as code (a name or an attribute, not a docstring
mention) somewhere in the library.  Every kind of ``constants._KINDS``
must be a constant of some ruin variant's prefactor.  No module imports
inside a function: the import graph is what the module headers say.
"""

import ast
from pathlib import Path

import gridruin
from gridruin.constants import _KINDS
from gridruin.estimators import _VARIANTS

PACKAGE = Path(gridruin.__file__).resolve().parent


def declared_all(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def test_every_public_name_is_exported_or_used_by_the_library():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    used = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    unused = [
        f"{module}.{name}"
        for module, tree in trees.items()
        if module != "__init__"
        for name in declared_all(tree)
        if name not in gridruin.__all__ and name not in used
    ]
    assert unused == []


def test_every_constant_kind_is_a_model_constant():
    # every key builder reads its parameter as a number; 0.25 suits them all
    used = {kind for *_, keys in _VARIANTS.values() for kind, _, _ in keys(1.0, 0.1, 0.25)}
    assert set(_KINDS) == used


def test_no_import_inside_a_function():
    inside = [
        f"{path.stem}.{fn.name}: {ast.unparse(node)}"
        for path in sorted(PACKAGE.glob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text()))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert inside == []
