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


def run_fresh(code):
    """The output of `code` run in a fresh interpreter that finds the package."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC),
                                                                     os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    run_fresh(f"import imnav.{module}")


def test_serial_imports_no_other_module():
    """`serial` holds only generic text tools: no artifact format of the
    package's own types."""
    loaded = run_fresh("import sys, imnav.serial\n"
                       "print(*sorted(m for m in sys.modules if m.startswith('imnav.')))")
    assert loaded.split() == ["imnav.serial"]
