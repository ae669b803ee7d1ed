"""Package surface: every exported name exists."""

import importlib
import pkgutil

import pytest

import plsim

MODULES = sorted(info.name for info in pkgutil.iter_modules(plsim.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_exports_resolve(name):
    module = importlib.import_module(f"plsim.{name}")
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []
