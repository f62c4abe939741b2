"""The package's public names: the lazy export table and each module's __all__."""

import importlib

import pytest

import kplane


def test_every_public_name_resolves():
    for name in kplane.__all__:
        assert getattr(kplane, name) is not None, name


def test_exports_come_from_their_modules():
    for name, module in kplane._EXPORTS.items():
        mod = importlib.import_module(f"kplane.{module}")
        assert getattr(kplane, name) is getattr(mod, name), name
        assert name in mod.__all__, f"{name} missing from kplane.{module}.__all__"


@pytest.mark.parametrize("module", sorted(kplane._SUBMODULES))
def test_module_all_entries_exist(module):
    mod = importlib.import_module(f"kplane.{module}")
    for name in getattr(mod, "__all__", ()):
        assert hasattr(mod, name), f"kplane.{module}.__all__ names missing {name!r}"


def test_unknown_name_raises():
    with pytest.raises(AttributeError, match="no attribute"):
        kplane.no_such_name  # noqa: B018


def test_every_private_module_name_is_used():
    # a private function, class or constant at module level that nothing in
    # the package reads again is dead code
    import ast
    from pathlib import Path

    sources = sorted(Path(kplane.__file__).parent.glob("*.py"))
    trees = {path.name: ast.parse(path.read_text()) for path in sources}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    dead = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                found = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [n.id for t in found for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            dead += [
                f"{name}:{target}" for target in targets
                if target.startswith("_") and not target.startswith("__") and target not in used
            ]
    assert dead == []


def test_modules_share_only_these_private_names():
    # shared numerical rules live under public names in kplane.quadrature;
    # these four private helpers are all that a module takes from a sibling
    import ast
    from pathlib import Path

    allowed = {
        "_unbounded_image_warning",
        "_profile_distribution",
        "_rearranged_profile",
        "_half_max_radius",
    }
    imported = set()
    for path in sorted(Path(kplane.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            sibling = isinstance(node, ast.ImportFrom) and (
                node.level or node.module.startswith("kplane")
            )
            if sibling:
                imported.update(
                    f"{path.stem}:{alias.name}" for alias in node.names
                    if alias.name.startswith("_") and not alias.name.startswith("__")
                )
    assert sorted(name for name in imported if name.split(":")[1] not in allowed) == []
