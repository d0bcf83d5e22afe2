#!/usr/bin/env python3
"""Record reference answers for the default seed into reference.json.

Run from the root of a checkout, once, at the commit whose answers are the
reference:

    python3 perfbench/record_reference.py

Every instance of every workload's default-seed stream is solved once and
must pass the correctness gate before its objective and classification (or
its refusal) are written.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run


def main() -> int:
    run.configure_environment()
    root = Path.cwd()
    ab = run.import_library(root)
    import gate
    import workloads

    doc = {"seed": run.DEFAULT_SEED, "workloads": {}}
    workdir = root / ".perfbench_work" / "reference"
    try:
        for name, workload in workloads.WORKLOADS.items():
            pool = run.prepare(ab, workloads, workload, run.DEFAULT_SEED,
                               workdir / name)
            solve = run.make_solver(ab, name)
            entries = {}
            for inst in pool:
                try:
                    out = solve(inst)
                except ab.SolverError:
                    out = None
                problems = [] if out is None else \
                    gate.check_outputs(ab, inst, out)
                if problems:
                    print(f"{name} instance {inst.index}: {problems}",
                          file=sys.stderr)
                    return 1
                entries[str(inst.index)] = gate.summary(out)
            doc["workloads"][name] = entries
            print(f"{name}: {len(entries)} instances, "
                  f"{sum('refused' in e for e in entries.values())} refused")
    finally:
        shutil.rmtree(root / ".perfbench_work", ignore_errors=True)
    gate.REFERENCE_PATH.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
