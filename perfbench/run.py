#!/usr/bin/env python3
"""abasolve benchmark: one seeded workload, closed loop, one client.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid-a --seed 0 --seconds 26 --trace 0

Workloads: classify-ladder, grid-a, grid-eb, verify (see workloads.py for
what each stresses and why).  The harness calls the same public functions
the CLI uses, in-process: parse_instance -> validate_instance -> solver ->
emit_report, back to back for ``--seconds`` seconds.  Every answer is then
checked by the gate in gate.py; a wrong answer exits 1.

``--trace 0`` prints the end-to-end metrics: solves_per_s, solve_p50_ms,
solve_p90_ms, setup_s, peak_rss_mb and answered_frac.  ``--trace 1``
runs half the time untraced and half traced, and prints the per-layer
metrics of spans.py plus the tracing overhead.  The last line of standard
output is one JSON object with keys correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

BLAS_THREADS = 1
DEFAULT_SEED = 0
SETUP_REPEATS = 5
WARMUP_SOLVES = 5
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.process_time(); import abasolve; "
                "print(time.process_time() - t)")


def configure_environment() -> None:
    """Pin BLAS threads before numpy loads, so runs do not depend on how
    many cores the machine's other tenants leave idle."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_library(root: Path):
    """Import abasolve from the checkout's own src/, never from elsewhere."""
    src = root / "src"
    package = src / "abasolve"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: {package} not found; run from the root "
                         "of an abasolve checkout")
    sys.path.insert(0, str(src))
    import abasolve
    if Path(abasolve.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported abasolve from {abasolve.__file__}"
                         f", expected {package}")
    return abasolve


# -- solving ----------------------------------------------------------------

def _load(ab, path):
    spaces, prior, score = ab.instances.parse_instance(path)
    outcome = ab.core.validate_instance(spaces, prior, score)
    if not outcome.ok:
        raise ab.ValidationError("; ".join(outcome.violations))
    return prior, score


def _simulate(ab, prior, score, believed, scheme_path) -> str:
    """The CLI's simulate command, plus the constant-sum check of the
    actual scheme."""
    labels, pi = ab.instances.parse_scheme(scheme_path)
    actual = ab.SignalingScheme(labels, pi).validate(prior)
    if ab.belief.sender_objective(prior, score, actual) >= \
            ab.belief.sender_objective(prior, score, believed):
        check = ab.oracle.deviation_check(prior, score, believed, actual)
    else:
        check = ab.oracle.deviation_check(prior, score, actual, believed)
    payoff = ab.oracle.cross_belief_utilities(prior, score, believed, actual)
    doc = {
        "passed": check.passed,
        "bob_utility_cross": payoff.bob_utility,
        "alice_utility_cross": payoff.alice_utility,
        "off_path_mass": payoff.off_path_mass,
        "chain": {k: check.details[k] for k in sorted(check.details)},
        "alice_total": ab.belief.alice_total_utility(prior, score, actual),
        "bob_own": ab.belief.bob_utility_of_scheme(prior, score, actual),
        "V": check.details["total_value_V"],
    }
    return ab.instances.write_json(doc, None)


def make_solver(ab, workload: str):
    """One solve: parse, validate, solve, emit; returns the emitted texts."""
    def solve(inst) -> tuple[str, ...]:
        prior, score = _load(ab, inst.instance_path)
        p = inst.rung.params
        if workload == "classify-ladder":
            report = ab.exact.classify_substitutes(prior, score,
                                                   p["tangent_k"])
        elif workload == "grid-a":
            report = ab.fptas.fptas_a_const(prior, score, p["delta"],
                                            grid_k=p["grid_k"])
        elif workload == "grid-eb":
            report = ab.fptas.fptas_eb_const(prior, score, p["delta"],
                                             grid_k=p["grid_k"])
        else:
            report = ab.oracle.oracle_optimal(prior, score,
                                              1.0 / p["step_den"],
                                              p["max_signals"])
        texts = [ab.instances.emit_report(report, None)]
        if inst.scheme_path is not None:
            texts.append(_simulate(ab, prior, score, report.scheme,
                                   inst.scheme_path))
        return tuple(texts)
    return solve


def prepare(ab, workloads, workload, seed: int, workdir: Path):
    """Generate, write, parse and validate the seeded instance stream."""
    workdir.mkdir(parents=True, exist_ok=True)
    pool = workloads.generate(workload, seed, workdir)
    for inst in pool:
        prior, _ = _load(ab, inst.instance_path)
        if inst.scheme_path is not None:
            labels, pi = ab.instances.parse_scheme(inst.scheme_path)
            ab.SignalingScheme(labels, pi).validate(prior)
    return pool


def measure_setup(ab, workloads, workload, seed: int, workdir: Path,
                  src: Path):
    """Median of SETUP_REPEATS set-ups: a fresh interpreter's import of
    abasolve plus generating, parsing and validating the instances.

    Set-up is timed in CPU seconds (user + system).  Its wall time swung
    2.5-fold between runs minutes apart on a shared host, mostly from
    waiting on the other tenants and the disk, while the solves' wall
    time moved a few percent; the work a change adds to set-up shows in
    its CPU time all the same."""
    times = []
    pool = None
    for _ in range(SETUP_REPEATS):
        child = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(src)],
                               capture_output=True, text=True, timeout=120,
                               check=True)
        t0 = process_time()
        pool = prepare(ab, workloads, workload, seed, workdir)
        times.append(float(child.stdout) + process_time() - t0)
    return statistics.median(times), pool


@dataclass
class Record:
    inst: object
    seconds: float
    error: str | None      # class name of the typed refusal, if refused
    end: float             # seconds since the loop started

    @property
    def refused(self) -> bool:
        return self.error is not None


@dataclass
class Run:
    records: list
    block_size: int
    outputs: dict          # instance index -> first emitted texts
    nondeterministic: set  # instance indices whose texts changed

    def complete(self) -> tuple[list, float]:
        """Records of the complete blocks and the wall time they took."""
        n = len(self.records) // self.block_size * self.block_size
        return self.records[:n], self.records[n - 1].end


def closed_loop(ab, pool, solve, seconds: float, block_size: int,
                tracer=None) -> Run:
    """Send solves back to back until ``seconds`` have passed and at least
    one block is complete."""
    run = Run([], block_size, {}, set())
    start = perf_counter()
    i = 0
    while True:
        inst = pool[i % len(pool)]
        t0 = perf_counter()
        error = None
        try:
            out = solve(inst) if tracer is None else tracer.root(i, solve,
                                                                 inst)
        except ab.SolverError as exc:
            out, error = None, type(exc).__name__
        t1 = perf_counter()
        run.records.append(Record(inst, t1 - t0, error, t1 - start))
        if out is not None and run.outputs.setdefault(inst.index, out) != out:
            run.nondeterministic.add(inst.index)
        i += 1
        if t1 - start >= seconds and i >= block_size:
            return run


# -- checking ---------------------------------------------------------------

def gate_runs(ab, gate, runs, seed: int, workload: str) -> list[str]:
    """Check every distinct answer once; identical inputs must give
    byte-identical reports."""
    reference = gate.load_reference(workload) if seed == DEFAULT_SEED else {}
    outputs = {}
    problems = []
    by_index = {}
    for run in runs:
        for idx in sorted(run.nondeterministic):
            problems.append(f"instance {idx}: reports differ between solves")
        for idx, out in run.outputs.items():
            if outputs.setdefault(idx, out) != out:
                problems.append(f"instance {idx}: reports differ between runs")
        for rec in run.records:
            by_index[rec.inst.index] = rec.inst
    for idx, inst in sorted(by_index.items()):
        out = outputs.get(idx)
        found = [] if out is None else gate.check_outputs(ab, inst, out)
        if seed == DEFAULT_SEED:
            if idx not in reference:
                found.append("no reference value recorded")
            else:
                found += gate.check_reference(reference[idx], out)
        problems += [f"instance {idx} {inst.rung.label()}: {p}"
                     for p in found]
    return problems


def failed_solves(workloads, records) -> int:
    """Refused solves, except the refusals the workload expects: the
    caps refusing the rung they are meant to refuse is a correct outcome."""
    size_class, error = workloads.EXPECTED_REFUSAL
    return sum(r.refused and not (r.inst.size_class == size_class
                                  and r.error == error) for r in records)


# -- metrics ----------------------------------------------------------------

def nearest_rank(sorted_values: list[float], q: float) -> int:
    return max(math.ceil(q * len(sorted_values)) - 1, 0)


def solves_per_s(run: Run) -> float:
    """Answered solves per second of wall time over the complete blocks."""
    records, wall = run.complete()
    return sum(not r.refused for r in records) / wall


def end_to_end(run: Run, setup_s: float) -> dict:
    """Metrics over the run's complete blocks, which hold exactly the
    stated size mix."""
    records, wall = run.complete()
    answered = sum(not r.refused for r in records)
    # a refused solve never answers: it counts as lasting the whole run
    lat = sorted(wall if r.refused else r.seconds for r in records)
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "solves_per_s": (solves_per_s(run), "1/s"),
        "solve_p50_ms": (1e3 * lat[nearest_rank(lat, 0.5)], "ms"),
        "solve_p90_ms": (1e3 * lat[nearest_rank(lat, 0.9)], "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (kb / 1024.0, "MB"),
        "answered_frac": (answered / len(records), "ratio"),
    }


def percentile_classes(run: Run) -> str:
    """Which size class the p50 and p90 solves fall in, with the class
    shares of the run, so a percentile sitting on a class boundary shows."""
    recs = sorted(run.complete()[0],
                  key=lambda r: math.inf if r.refused else r.seconds)
    shares = Counter(r.inst.size_class for r in recs)
    parts = [f"{c} {100.0 * n / len(recs):.1f}%" for c, n in shares.items()]
    picks = []
    for q in (0.5, 0.9):
        k = nearest_rank(recs, q)
        window = Counter(r.inst.size_class
                         for r in recs[max(k - 5, 0):k + 6])
        picks.append(f"p{int(q * 100)} in {recs[k].inst.size_class} "
                     f"(neighbours {dict(window)})")
    return "; ".join(picks) + "; shares " + ", ".join(parts)


def per_layer(spans, tracer, run: Run, untraced: Run, group_of) -> dict:
    n = len(run.records)
    covered = [0.0] * len(tracer.spans)
    for name, start, end, parent, _ in tracer.spans:
        if parent >= 0:
            covered[parent] += end - start
    self_total = defaultdict(float)
    self_group = defaultdict(lambda: defaultdict(float))
    for idx, (name, start, end, _, sid) in enumerate(tracer.spans):
        own = end - start - covered[idx]
        self_total[name] += own
        self_group[group_of(sid)][name] += own
    counts = tracer.counts
    out = {m: (self_total[m] / n, "s/solve") for m in spans.SPAN_METRICS}
    for name in spans.COUNTERS:
        unit = "B/solve" if name == "kernels.simplex_bytes" else "count/solve"
        out[name] = (counts[name] / n, unit)
    out["lp.tableau_cells_max"] = (float(tracer.cells_max), "count")
    generated = counts["exact.signals_generated"]
    out["exact.signals_kept_ratio"] = (
        counts["exact.signals_to_lp"] / generated if generated else 0.0,
        "ratio")
    traced_sps = solves_per_s(run)
    plain_sps = solves_per_s(untraced)
    out["trace.solves_per_s"] = (traced_sps, "1/s")
    out["trace.untraced_solves_per_s"] = (plain_sps, "1/s")
    out["trace.overhead_solves_per_s"] = (plain_sps - traced_sps, "1/s")
    for group, totals in sorted(self_group.items()):
        layers = {k: v for k, v in totals.items() if k != spans.ROOT}
        top = sorted(layers, key=layers.get, reverse=True)[:3]
        share = sum(layers.values()) or 1.0
        print(f"largest self time [{group}]: " + ", ".join(
            f"{k} {100.0 * layers[k] / share:.1f}%" for k in top))
    print(f"solve_lp calls per solve: {counts['lp.solve_calls'] / n:.3g}")
    return out


# -- provenance -------------------------------------------------------------

def blas_thread_count(np) -> int:
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def provenance(ab, np, args, src: Path) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_enabled": bool(ab.NUMBA_ENABLED),
        "blas_threads": blas_thread_count(np),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "src_loc": sum(len(p.read_text().splitlines())
                       for p in sorted(src.rglob("*.py"))),
    }


def emit_result(correct: bool, attempted: int, failed: int,
                metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


def main(argv: list[str] | None = None) -> int:
    configure_environment()
    root = Path.cwd()
    ab = import_library(root)
    import numpy as np

    import gate
    import spans
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=26.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")

    workload = workloads.WORKLOADS[args.workload]
    workroot = root / ".perfbench_work"
    workdir = workroot / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        print("provenance: " + json.dumps(provenance(ab, np, args,
                                                     root / "src")))
        setup_s, pool = measure_setup(ab, workloads, workload, args.seed,
                                      workdir, root / "src")
        solve = make_solver(ab, workload.name)
        for inst in pool[:WARMUP_SOLVES]:
            try:
                solve(inst)
            except ab.SolverError:
                pass
        if args.trace:
            untraced = closed_loop(ab, pool, solve, args.seconds / 2,
                                   workload.block_size)
            tracer = spans.Tracer()
            tracer.install()
            try:
                timed = closed_loop(ab, pool, solve, args.seconds / 2,
                                    workload.block_size, tracer)
            finally:
                tracer.uninstall()
            runs = [untraced, timed]

            def group_of(sid):
                inst = timed.records[sid].inst
                if workload.name == "classify-ladder":
                    return f"|A|={inst.rung.shape[1]}"
                return workload.name
            metrics = per_layer(spans, tracer, timed, untraced, group_of)
        else:
            timed = closed_loop(ab, pool, solve, args.seconds,
                                workload.block_size)
            runs = [timed]
            metrics = end_to_end(timed, setup_s)
            print(percentile_classes(timed))
        rungs = Counter(r.inst.rung.label() for r in timed.records)
        print("solves per rung: " + json.dumps(dict(sorted(rungs.items()))))
        problems = gate_runs(ab, gate, runs, args.seed, workload.name)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workroot.rmdir()
        except OSError:
            pass
    for line in problems[:20]:
        print(f"WRONG: {line}")
    records = [r for run in runs for r in run.records]
    emit_result(not problems, len(records),
                failed_solves(workloads, records), metrics)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
