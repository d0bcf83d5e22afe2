#!/usr/bin/env python3
"""Time two checkouts in-process over one benchmark workload's seed-0 pool.

    python3 tools/abtime.py A B --workload classify-ladder [--rounds 4]
                            [--limit N]

Each round runs one fresh child interpreter per checkout, alternating
which side goes first, so that the two sides see the host's drift alike.
A child builds the workload's seed-0 pool with perfbench's own
``prepare`` and solves it with perfbench's ``make_solver``, from the
checkout it times, as ``tools/replay.py`` does; it solves the pool once
untimed, then PASSES times under the clock.  The instance documents go to
a temporary directory and no bytecode is written, so both checkouts are
left as they were.

On a shared host one round's ratio can swing by 10-30%, so the number of
rounds a comparison needs grows as the difference it looks for shrinks:
a 50% change shows in four rounds, while a 3% one stayed unresolved
after ten.  ``--limit`` takes the pool's first N instances, for a quick check.

The output is each round's milliseconds per solve on both sides and their
ratio B / A, the median of those ratios, and whether the sha256 over every
emitted text (and every refusal) matches between the sides.  It exits 1
when the hashes differ, 2 when a child fails, and 0 otherwise: the
timings decide nothing here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve()
PASSES = 3  # timed passes over the pool per child


def child(root: Path, name: str, limit: int | None) -> dict:
    """One side of one round: ms per solve over PASSES timed passes of
    the pool, and the sha256 of the untimed pass's emitted texts."""
    sys.path.insert(0, str(HERE.parent))
    import replay
    ab, run, workloads, _ = replay.load_bench(root)
    solve = run.make_solver(ab, name)
    with tempfile.TemporaryDirectory() as tmp:
        pool = run.prepare(ab, workloads,
                           replay.workload(workloads, name, limit),
                           run.DEFAULT_SEED, Path(tmp))[:limit]
        digest = hashlib.sha256()
        for inst in pool:
            try:
                texts = solve(inst)
            except ab.SolverError as exc:
                texts = ("refused " + type(exc).__name__,)
            for text in texts:
                digest.update(text.encode())
                digest.update(b"\0")
        t0 = perf_counter()
        for _ in range(PASSES):
            for inst in pool:
                try:
                    solve(inst)
                except ab.SolverError:
                    pass
        seconds = perf_counter() - t0
    return {"ms_per_solve": 1e3 * seconds / (PASSES * len(pool)),
            "solves": PASSES * len(pool), "sha256": digest.hexdigest()}


def spawn(root: Path, name: str, limit: int | None) -> dict:
    """Run ``child`` in a fresh interpreter; exit 2 with its standard
    error when it fails."""
    cmd = [sys.executable, str(HERE), "--child", str(root), "--workload",
           name]
    if limit is not None:
        cmd += ["--limit", str(limit)]
    done = subprocess.run(cmd, capture_output=True, text=True)
    if done.returncode:
        print(f"error: timing {root} failed:\n{done.stderr}", end="",
              file=sys.stderr)
        raise SystemExit(2)
    return json.loads(done.stdout.splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("checkouts", nargs="*", type=Path, metavar="CHECKOUT",
                   help="the two checkouts, A then B")
    p.add_argument("--workload", required=True)
    p.add_argument("--rounds", type=int, default=4,
                   help="A/B rounds; more resolve a smaller difference")
    p.add_argument("--limit", type=int, default=None,
                   help="use only the pool's first N instances")
    p.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    for opt in ("rounds", "limit"):
        value = getattr(args, opt)
        if value is not None and value < 1:
            p.error(f"--{opt} must be at least 1")
    if args.child is not None:
        print(json.dumps(child(args.child.resolve(), args.workload,
                               args.limit)))
        return 0
    if len(args.checkouts) != 2:
        p.error("give two checkouts, A and B")
    roots = [path.resolve() for path in args.checkouts]
    ratios = []
    hashes = [set(), set()]
    print(f"workload {args.workload}: A {roots[0]}, B {roots[1]}")
    for r in range(args.rounds):
        order = (0, 1) if r % 2 == 0 else (1, 0)
        out = [None, None]
        for side in order:
            out[side] = spawn(roots[side], args.workload, args.limit)
            hashes[side].add(out[side]["sha256"])
        ratio = out[1]["ms_per_solve"] / out[0]["ms_per_solve"]
        ratios.append(ratio)
        print(f"round {r + 1} ({'AB' if order == (0, 1) else 'BA'}, "
              f"{out[0]['solves']} solves a side): A "
              f"{out[0]['ms_per_solve']:.4f} ms, B "
              f"{out[1]['ms_per_solve']:.4f} ms, B/A {ratio:.4f}",
              flush=True)
    print(f"median B/A: {statistics.median(ratios):.4f}")
    same = len(hashes[0] | hashes[1]) == 1
    print(f"sha256 of emitted texts: {'identical' if same else 'DIFFER'} "
          f"(A {', '.join(sorted(hashes[0]))}; "
          f"B {', '.join(sorted(hashes[1]))})")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
