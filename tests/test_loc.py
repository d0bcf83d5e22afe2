"""``tools/loc.py`` on a synthetic checkout: which lines count as code."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LOC = ROOT / "tools" / "loc.py"

# 17 lines; code on lines 4, 7, 9, 10, 13, 14 and 15
MODULE = '''"""Module docstring,
over two lines."""

import math


def area(r):
    """Function docstring."""  # and a comment
    return (math.pi *
            r * r)

# a comment line
"""A string expression
that is not a docstring"""
x = area(1.0)


'''


def test_loc_counts_lines_and_code_lines(tmp_path):
    package = tmp_path / "src" / "abasolve"
    package.mkdir(parents=True)
    (package / "shape.py").write_text(MODULE)
    (package / "empty.py").write_text("")
    done = subprocess.run([sys.executable, str(LOC), str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        " lines   code  module",
        "     0      0  empty.py",
        "    17      7  shape.py",
        "    17      7  total",
    ]


def test_loc_refuses_a_checkout_without_modules(tmp_path):
    done = subprocess.run([sys.executable, str(LOC), str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "no modules under" in done.stderr
