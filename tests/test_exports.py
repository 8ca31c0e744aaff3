"""Every exported name resolves.

Tools that walk `__all__` (the benchmark tracer wraps each entry it finds with
`getattr`) crash on a name that was deleted but left in an export list.
"""

import importlib
import pkgutil

import pytest

import covosc

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(covosc.__path__) if info.name != "__main__")


def test_package_exports_resolve():
    missing = [name for name in covosc.__all__ if not hasattr(covosc, name)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"covosc.{name}")
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert missing == []
