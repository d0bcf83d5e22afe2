"""Smoke test of ``tools/replay.py``: record a few instances, compare the
recording with itself, and leave ``perfbench/`` untouched."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
REPLAY = ROOT / "tools" / "replay.py"
BENCH = ROOT / "perfbench"


@pytest.mark.parametrize("workload", ("verify", "grid-eb"))
def test_replay_records_and_compares(tmp_path, workload):
    before = {p: p.stat().st_mtime_ns for p in BENCH.rglob("*")}
    recording = tmp_path / "a.jsonl"
    with recording.open("w") as out:
        subprocess.run([sys.executable, str(REPLAY), "--workload", workload,
                        "--limit", "3"], stdout=out, check=True, timeout=60)
    assert len(recording.read_text().splitlines()) == 3
    done = subprocess.run([sys.executable, str(REPLAY), "--compare",
                           str(recording), str(recording)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "byte-identical reports: 3\n" in done.stdout
    assert "gate problems on B: 0\n" in done.stdout
    assert {p: p.stat().st_mtime_ns for p in BENCH.rglob("*")} == before
