"""Package surface: every exported name exists, and importing the CLI stays light."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import plsim

MODULES = sorted(info.name for info in pkgutil.iter_modules(plsim.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_exports_resolve(name):
    module = importlib.import_module(f"plsim.{name}")
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []


def test_cli_import_loads_no_scipy():
    # a fresh interpreter, so modules other tests imported do not count;
    # the acceptance experiments load only when `plsim selftest` runs them
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(plsim.__file__)))
    script = ("import plsim.cli, sys; print(sorted(m for m in sys.modules "
              "if m.startswith('scipy') or m == 'plsim.acceptance'))")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True, timeout=60)
    assert done.stdout.strip() == "[]"
