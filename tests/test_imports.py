"""Each submodule imports on its own, as the first module of the package.

Importing ``abasolve.<name>`` normally runs the package's ``__init__``
first, which imports every submodule in one fixed order, so an import
cycle that only that order avoids would go unnoticed.  Each case here runs
in a fresh interpreter with an empty stand-in for the package, so the
submodule named is the first of the package to execute.
"""

import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "abasolve"
SUBMODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")

PROBE = """
import importlib, sys, types
package = types.ModuleType("abasolve")
package.__path__ = [sys.argv[1]]
sys.modules["abasolve"] = package
importlib.import_module("abasolve." + sys.argv[2])
print(" ".join(sorted(m for m in sys.modules if m.startswith("abasolve."))))
"""


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_imports_first(name):
    done = subprocess.run([sys.executable, "-c", PROBE, str(SRC), name],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = done.stdout.split()
    assert f"abasolve.{name}" in loaded
    if name == "_kernels":
        # the kernels are the bottom layer: nothing else from the package
        assert loaded == ["abasolve._kernels"]
