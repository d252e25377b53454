"""Each module of the package imports on its own, first, in a fresh
interpreter: an import cycle between modules fails here, whatever order the
other tests happen to import them in."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(p.stem for p in (SRC / "imnav").glob("*.py") if p.stem != "__init__")


def test_every_module_is_listed():
    assert {"agent", "evaluation", "harness", "serial", "training"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC),
                                                                     os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", f"import imnav.{module}"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
