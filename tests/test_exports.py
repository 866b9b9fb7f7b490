"""The public names: everything ``__all__`` lists is defined."""

import importlib
import pkgutil

import pytest

import smallarea

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(smallarea.__path__))


def test_package_exports_resolve():
    missing = [name for name in smallarea.__all__ if not hasattr(smallarea, name)]
    assert missing == []
    assert len(set(smallarea.__all__)) == len(smallarea.__all__)


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_exports_are_defined_there(module):
    mod = importlib.import_module(f"smallarea.{module}")
    names = getattr(mod, "__all__", ())
    assert [name for name in names if not hasattr(mod, name)] == []
