"""Smoke test of ``tools/replay.py``: record a few instances, compare the
recording with itself and with a hand-edited copy, and leave
``perfbench/`` untouched."""

import json
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
    assert "differ only under diagnostics: 0 of 0\n" in done.stdout

    # instance 0 differs only under diagnostics (one key changed, one
    # added), instance 1 also outside them, instance 2 not at all
    lines = [json.loads(text) for text in recording.read_text().splitlines()]
    for i, line in enumerate(lines[:2]):
        report = json.loads(line["texts"][0])
        key = sorted(report["diagnostics"])[0]
        report["diagnostics"][key] = "edited"
        if i == 0:
            report["diagnostics"]["added"] = 1
        else:
            report["classification"] = "edited"
        line["texts"][0] = json.dumps(report)
    edited = tmp_path / "edited.jsonl"
    edited.write_text("".join(json.dumps(line) + "\n" for line in lines))
    done = subprocess.run([sys.executable, str(REPLAY), "--compare",
                           str(edited), str(recording)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "byte-identical reports: 1\n" in done.stdout
    assert "differ only under diagnostics: 1 of 2\n" in done.stdout
    assert f"diagnostics keys that differ (reports): {key} 2, added 1\n" \
        in done.stdout
    assert {p: p.stat().st_mtime_ns for p in BENCH.rglob("*")} == before


def test_replay_compare_refuses_an_empty_recording(tmp_path):
    line = {"workload": "verify", "index": 0, "rung": "r", "texts": ["{}"]}
    full = tmp_path / "full.jsonl"
    full.write_text(json.dumps(line) + "\n")
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n")
    for a, b in ((full, empty), (empty, full)):
        done = subprocess.run([sys.executable, str(REPLAY), "--compare",
                               str(a), str(b)],
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 2, done.stdout + done.stderr
        assert f"{empty} holds no recorded instances" in done.stderr
        assert "Traceback" not in done.stderr
