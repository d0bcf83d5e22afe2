#!/usr/bin/env python3
"""Replay a benchmark workload's seed-0 instances and compare the answers.

Record the answers of one checkout (default: the one holding this file),
one JSON line per instance, with its emitted texts or its refusal:

    python3 tools/replay.py --workload verify [--root CHECKOUT] [--limit N] > a.jsonl

Compare two recordings of the same workload:

    python3 tools/replay.py --compare a.jsonl b.jsonl [--root CHECKOUT]

The comparison prints how many reports are byte-identical, how many of the
others differ only under ``diagnostics`` and which diagnostics keys differ
in how many reports, how many name a different scheme and how many of
those induce the same distribution over posteriors on A, the largest
change in each reported value, and the gate problems of the second
recording: perfbench's ``gate.check_outputs`` plus the seed-0 reference.
It exits 1 when there are gate problems, and 2 when a recording holds no
instances.

Instances come from perfbench's own ``prepare`` and solves from its
``make_solver``, so a recording is what the benchmark would emit.  The
instance documents are written under a temporary directory, and no
bytecode is written, so the checkout is left as it was.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import json
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
TOL = 1e-9
# (label, index of the emitted text holding it, key path into that text)
VALUES = (("objective", 0, ("objective",)),
          ("bob_utility", 0, ("bob_utility",)),
          ("V", 0, ("V",)),
          ("scan_objective", 0, ("diagnostics", "scan_objective")),
          ("lp_objective", 0, ("diagnostics", "lp_objective")),
          ("u_b_star", 1, ("chain", "u_b_star")))


def load_bench(root: Path):
    """perfbench's run, workloads and gate modules and abasolve, all from
    the checkout at ``root``."""
    sys.path.insert(0, str(root / "perfbench"))
    import run
    run.configure_environment()
    ab = run.import_library(root)
    import gate
    import workloads
    return ab, run, workloads, gate


def workload(workloads, name: str, n: int | None):
    """The named workload, its pool cut to the blocks that hold its first
    ``n`` instances (all when None): ``generate`` draws block by block, so
    a shorter pool is a prefix of the full one."""
    if name not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {name!r}; choose from "
                         f"{sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[name]
    if n is None:
        return w
    return dataclasses.replace(w, pool_blocks=min(w.pool_blocks,
                                                  -(-n // w.block_size)))


def record(root: Path, name: str, limit: int | None) -> None:
    ab, run, workloads, _ = load_bench(root)
    solve = run.make_solver(ab, name)
    with tempfile.TemporaryDirectory() as tmp:
        pool = run.prepare(ab, workloads, workload(workloads, name, limit),
                           run.DEFAULT_SEED, Path(tmp))
        for inst in pool[:limit]:
            line = {"workload": name, "index": inst.index,
                    "rung": inst.rung.label()}
            try:
                line["texts"] = list(solve(inst))
            except ab.SolverError as exc:
                line["refused"] = type(exc).__name__
            print(json.dumps(line), flush=True)


def read(path: str) -> dict[int, dict]:
    with open(path) as f:
        lines = [json.loads(text) for text in f if text.strip()]
    return {line["index"]: line for line in lines}


def value(texts: list[str], where: int, keys: tuple[str, ...]):
    if where >= len(texts):
        return None
    doc = json.loads(texts[where])
    for key in keys:
        doc = doc.get(key) if isinstance(doc, dict) else None
    return doc


def split_diagnostics(text: str) -> tuple[str, dict[str, str]]:
    """An emitted text without its ``diagnostics``, and the diagnostics by
    key, each re-serialised so that -0.0 and 0.0 stay apart."""
    doc = json.loads(text)
    diag = doc.pop("diagnostics", {}) if isinstance(doc, dict) else {}
    return json.dumps(doc, sort_keys=True), {
        key: json.dumps(val, sort_keys=True) for key, val in diag.items()}


def atoms(pi) -> list[list]:
    """A scheme's distribution over posteriors on A: (mass, posterior)
    pairs, signals that share a posterior to TOL merged."""
    out = []
    for row in pi:
        mass = sum(row)
        if mass <= TOL:
            continue
        post = [x / mass for x in row]
        for atom in out:
            if max(abs(x - y) for x, y in zip(atom[1], post)) <= TOL:
                atom[0] += mass
                break
        else:
            out.append([mass, post])
    return out


def same_distribution(pi_a, pi_b) -> bool:
    left, right = atoms(pi_a), atoms(pi_b)
    if len(left) != len(right):
        return False
    for mass, post in left:
        match = next((j for j, (m, p) in enumerate(right)
                      if abs(m - mass) <= TOL and
                      max(abs(x - y) for x, y in zip(p, post)) <= TOL), None)
        if match is None:
            return False
        right.pop(match)
    return True


def compare(root: Path, path_a: str, path_b: str) -> int:
    a, b = read(path_a), read(path_b)
    for path, rec in ((path_a, a), (path_b, b)):
        if not rec:
            print(f"error: {path} holds no recorded instances",
                  file=sys.stderr)
            return 2
    names = {line["workload"] for line in (*a.values(), *b.values())}
    if len(names) != 1:
        raise SystemExit(f"error: recordings hold workloads {sorted(names)}")
    name = names.pop()
    common = sorted(a.keys() & b.keys())
    print(f"workload {name}: {len(a)} instances in A, {len(b)} in B, "
          f"{len(common)} in both")

    identical = changed_scheme = same_dist = changed_refusal = 0
    differing = diagnostics_only = 0
    diagnostics_keys = collections.Counter()
    delta = {label: 0.0 for label, _, _ in VALUES}
    for idx in common:
        ta, tb = a[idx].get("texts"), b[idx].get("texts")
        if ta is None or tb is None:
            changed_refusal += a[idx].get("refused") != b[idx].get("refused")
            continue
        if ta == tb:
            identical += 1
            continue
        differing += 1
        parts_a = [split_diagnostics(text) for text in ta]
        parts_b = [split_diagnostics(text) for text in tb]
        if len(ta) == len(tb) and all(rest_a == rest_b for (rest_a, _), (
                rest_b, _) in zip(parts_a, parts_b)):
            diagnostics_only += 1
        diagnostics_keys.update({
            key for (_, da), (_, db) in zip(parts_a, parts_b)
            for key in da.keys() | db.keys() if da.get(key) != db.get(key)})
        sa = json.loads(ta[0])["scheme"]
        sb = json.loads(tb[0])["scheme"]
        if sa != sb:
            changed_scheme += 1
            same_dist += same_distribution(sa["pi"], sb["pi"])
        for label, where, keys in VALUES:
            va, vb = value(ta, where, keys), value(tb, where, keys)
            if va is not None and vb is not None:
                delta[label] = max(delta[label], abs(va - vb))
    refused = [sum("refused" in rec[i] for i in common) for rec in (a, b)]
    print(f"byte-identical reports: {identical}")
    print(f"differ only under diagnostics: {diagnostics_only} of "
          f"{differing}")
    print("diagnostics keys that differ (reports): " + (", ".join(
        f"{key} {n}" for key, n in sorted(diagnostics_keys.items(),
                                          key=lambda kv: (-kv[1], kv[0])))
        or "none"))
    print(f"refusals: A {refused[0]}, B {refused[1]}, "
          f"changed {changed_refusal}")
    print(f"changed scheme: {changed_scheme}, of which {same_dist} induce "
          f"the same distribution over posteriors to {TOL:g}")
    print("max |delta|: " + ", ".join(f"{label} {d:.3g}"
                                      for label, d in delta.items()))

    ab, run, workloads, gate = load_bench(root)
    reference = gate.load_reference(name)
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        for inst in workloads.generate(workload(workloads, name, max(b) + 1),
                                       run.DEFAULT_SEED, Path(tmp)):
            if inst.index not in b:
                continue
            texts = b[inst.index].get("texts")
            out = None if texts is None else tuple(texts)
            found = [] if out is None else gate.check_outputs(ab, inst, out)
            if inst.index not in reference:
                found.append("no reference value recorded")
            else:
                found += gate.check_reference(reference[inst.index], out)
            problems += [f"instance {inst.index} {inst.rung.label()}: {p}"
                         for p in found]
    print(f"gate problems on B: {len(problems)}")
    for problem in problems:
        print(f"  {problem}")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", help="record this workload's answers")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"),
                      help="compare two recordings")
    p.add_argument("--root", type=Path, default=ROOT,
                   help="checkout whose abasolve and perfbench to use")
    p.add_argument("--limit", type=int, default=None,
                   help="record only the first N instances")
    args = p.parse_args(argv)
    if args.limit is not None and args.limit < 1:
        p.error("--limit must be at least 1")
    root = args.root.resolve()
    if args.compare:
        return compare(root, *args.compare)
    record(root, args.workload, args.limit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
