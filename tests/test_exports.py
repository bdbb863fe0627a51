import importlib
import pkgutil

import pytest

import steinpoisson
from steinpoisson import bounds

MODULES = sorted(info.name for info in pkgutil.iter_modules(steinpoisson.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"steinpoisson.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_package_reexports_every_bound():
    names = [name for name in bounds.__all__ if name.startswith("bound_")]
    assert len(names) >= 10
    assert [name for name in names
            if getattr(steinpoisson, name, None) is not getattr(bounds, name)] == []
