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


def _fresh_python(args, **kwargs):
    # a fresh interpreter, so modules other tests imported do not count
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(plsim.__file__)))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          **kwargs)


def test_cli_import_loads_no_scipy():
    # the acceptance experiments load only when `plsim selftest` runs them,
    # and no plsim module, those included, loads scipy
    script = ("import importlib, sys, plsim.cli\n"
              "print('plsim.acceptance' in sys.modules)\n"
              f"for name in {MODULES!r}: importlib.import_module('plsim.' + name)\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = _fresh_python(["-c", script], check=True, timeout=60)
    assert done.stdout.split("\n") == ["False", "[]", ""]


BLOCK_SCIPY = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None

sys.meta_path.insert(0, BlockScipy())
from plsim.cli import main
sys.exit(main(["selftest", "--assert"]))
"""


def test_selftest_passes_without_scipy():
    # the runtime needs numpy only: every acceptance experiment runs with
    # scipy unimportable, and warnings as errors
    done = _fresh_python(["-W", "error", "-c", BLOCK_SCIPY], timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 12 and all(" PASS " in line for line in lines), done.stdout
