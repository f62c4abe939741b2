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
