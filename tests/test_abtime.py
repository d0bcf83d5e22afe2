"""Smoke test of ``tools/abtime.py``: time a checkout against itself and
against a copy whose reports differ, on the first instances of a pool,
and leave ``perfbench/`` untouched."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ABTIME = ROOT / "tools" / "abtime.py"
BENCH = ROOT / "perfbench"


def _abtime(a: Path, b: Path, *extra: str):
    return subprocess.run([sys.executable, str(ABTIME), str(a), str(b),
                           "--workload", "classify-ladder", "--limit", "3",
                           *extra],
                          capture_output=True, text=True, timeout=120)


def test_abtime_times_both_sides_and_matches_hashes():
    before = {p: p.stat().st_mtime_ns for p in BENCH.rglob("*")}
    done = _abtime(ROOT, ROOT, "--rounds", "2")
    assert done.returncode == 0, done.stdout + done.stderr
    rounds = re.findall(r"^round (\d) \((AB|BA), 9 solves a side\): "
                        r"A [\d.]+ ms, B [\d.]+ ms, B/A [\d.]+$",
                        done.stdout, re.MULTILINE)
    assert rounds == [("1", "AB"), ("2", "BA")]
    assert re.search(r"^median B/A: [\d.]+$", done.stdout, re.MULTILINE)
    assert "sha256 of emitted texts: identical" in done.stdout
    assert {p: p.stat().st_mtime_ns for p in BENCH.rglob("*")} == before


def test_abtime_exits_1_when_the_reports_differ(tmp_path):
    other = tmp_path / "other"
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, other / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    module = other / "src" / "abasolve" / "instances.py"
    text = module.read_text()
    assert text.count('text = _dumps(obj, 0) + "\\n"') == 1
    module.write_text(text.replace('text = _dumps(obj, 0) + "\\n"',
                                   'text = _dumps(obj, 0) + " \\n"'))
    done = _abtime(ROOT, other, "--rounds", "1")
    assert done.returncode == 1, done.stdout + done.stderr
    assert "sha256 of emitted texts: DIFFER" in done.stdout


def test_abtime_refuses_bad_arguments():
    for extra in (("--rounds", "0"), ("--limit", "0")):
        done = _abtime(ROOT, ROOT, *extra)
        assert done.returncode == 2
        assert "must be at least 1" in done.stderr
    done = subprocess.run([sys.executable, str(ABTIME), str(ROOT),
                           "--workload", "verify"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "give two checkouts" in done.stderr
    done = subprocess.run([sys.executable, str(ABTIME), str(ROOT), str(ROOT),
                           "--workload", "nope", "--rounds", "1"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "unknown workload 'nope'" in done.stderr
    assert "Traceback" not in done.stderr
