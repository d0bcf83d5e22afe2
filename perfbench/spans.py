"""Outside-in tracing: spans and counters recorded around abasolve's layers.

The tracer replaces public functions at the module attribute through which
their callers look them up (``exact.solve_lp``, ``_kernels.simplex_iterate``
and so on), so the library itself is unchanged.  Each span records its name,
start, end, parent span and solve id; spans stay in memory until the run
ends.  A span's self time is its duration minus the time its child spans
cover.  Counters are updated at the same call sites.

Span names are the per-layer metric names they feed.  Self times and
counters are reported as means per traced solve.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

ROOT = "bench.solve"

# (module, attribute, span metric or None for a counter-only site, hook name)
SITES = (
    ("instances", "parse_instance", "instances.parse_s", None),
    ("instances", "parse_scheme", "instances.parse_s", None),
    ("instances", "emit_report", "instances.emit_s", None),
    ("instances", "write_json", "instances.emit_s", None),
    ("core", "validate_instance", "core.validate_s", None),
    ("core", "total_value", "core.total_value_s", None),
    ("exact", "total_value", "core.total_value_s", None),
    ("fptas", "total_value", "core.total_value_s", None),
    ("oracle", "total_value", "core.total_value_s", None),
    ("core", "marginals_and_conditionals", None, "conditionals"),
    ("exact", "marginals_and_conditionals", None, "conditionals"),
    ("fptas", "marginals_and_conditionals", None, "conditionals"),
    ("belief", "marginals_and_conditionals", None, "conditionals"),
    ("oracle", "marginals_and_conditionals", None, "conditionals"),
    ("scoring", "eval_G", None, "eval_g"),
    ("scoring", "linearize_smooth", "scoring.linearize_s", "linearize"),
    ("exact", "classify_substitutes", "exact.classify_s", None),
    ("exact", "solve_exact", "exact.prune_s", None),
    ("exact", "build_revelation_signals", "exact.enumerate_s", "enumerate"),
    ("exact", "build_obedience_lp", "exact.lp_build_s", "obedience_lp"),
    ("exact", "certify_obedience", "exact.certify_s", None),
    ("exact", "solve_lp", "lp.self_s", "solve_lp"),
    ("fptas", "solve_lp", "lp.self_s", "solve_lp"),
    ("_kernels", "simplex_iterate", "kernels.simplex_s", "simplex"),
    ("_kernels", "ub_grid_wa", "kernels.ub_grid_s", "ub_grid"),
    ("_kernels", "ub_grid_veb", "kernels.ub_grid_s", "ub_grid"),
    ("_kernels", "compositions", "kernels.compositions_s", None),
    ("fptas", "fptas_a_const", "fptas.lp_build_s", "fptas"),
    ("fptas", "fptas_eb_const", "fptas.lp_build_s", "fptas"),
    ("fptas", "enumerate_k_uniform", "fptas.grid_s", "grid"),
    ("oracle", "oracle_optimal", "oracle.optimal_self_s", None),
    ("oracle", "cross_belief_utilities", "oracle.cross_belief_s",
     "cross_belief"),
    ("oracle", "deviation_check", "oracle.deviation_s", None),
    ("_kernels", "oracle_scan", "kernels.oracle_scan_s", "oracle_scan"),
    ("belief", "bob_utility_of_scheme", "belief.scheme_eval_s",
     "scheme_eval"),
    ("belief", "alice_total_utility", "belief.scheme_eval_s", "scheme_eval"),
)

SPAN_METRICS = tuple(dict.fromkeys(s[2] for s in SITES if s[2]))

COUNTERS = (
    "lp.solve_calls", "lp.phase1_pivots", "lp.phase2_pivots",
    "kernels.simplex_bytes", "kernels.ub_grid_points",
    "kernels.oracle_candidates", "fptas.grid_points", "fptas.eta_retries",
    "exact.signals_generated", "exact.signals_to_lp",
    "scoring.tangent_pieces", "scoring.eval_G_calls",
    "core.conditionals_calls", "oracle.cross_belief_calls",
    "belief.scheme_eval_calls",
)


class Tracer:
    """Span and counter store; active only between ``install`` and
    ``uninstall`` and only while ``solve_id`` is set."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, solve]
        self.stack: list[int] = []
        self.solve_id: int | None = None
        self.counts: dict[str, float] = defaultdict(float)
        self.cells_max = 0
        self._simplex_calls: dict[int, list[tuple[int, int]]] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for mod_name, attr, metric, hook in SITES:
            module = importlib.import_module(f"abasolve.{mod_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, metric, hook))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def root(self, solve_id: int, fn, *args):
        """Run one solve under the root span."""
        self.solve_id = solve_id
        try:
            return self._wrap(fn, ROOT, None)(*args)
        finally:
            self.solve_id = None

    # -- recording --------------------------------------------------------

    def _count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] += value

    def _wrap(self, fn, metric, hook):
        before = getattr(self, f"_before_{hook}", None) if hook else None
        after = getattr(self, f"_after_{hook}", None) if hook else None

        def traced(*args, **kwargs):
            if self.solve_id is None:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            if metric is None:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            rec = [metric, 0.0, 0.0, self.stack[-1] if self.stack else -1,
                   self.solve_id]
            self.spans.append(rec)
            self.stack.append(idx)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self.stack.pop()
            if after is not None:
                after(idx, rec[3], args, out)
            return out

        return traced

    def _before_conditionals(self, args, kwargs):
        self._count("core.conditionals_calls")

    def _before_eval_g(self, args, kwargs):
        self._count("scoring.eval_G_calls")

    def _after_linearize(self, idx, parent, args, out):
        self._count("scoring.tangent_pieces", out.k_pieces)

    def _after_enumerate(self, idx, parent, args, out):
        self._count("exact.signals_generated", len(out))

    def _before_obedience_lp(self, args, kwargs):
        signals = args[2] if len(args) > 2 else kwargs.get("signals")
        if signals is not None:
            self._count("exact.signals_to_lp", len(signals))

    def _before_solve_lp(self, args, kwargs):
        self._count("lp.solve_calls")

    def _after_simplex(self, idx, parent, args, out):
        cells = int(args[0].size)
        self.cells_max = max(self.cells_max, cells)
        self._simplex_calls.setdefault(parent, []).append((int(out[1]), cells))

    def _after_solve_lp(self, idx, parent, args, out):
        calls = self._simplex_calls.pop(idx, [])
        infeasible = getattr(out.status, "value", "") == "Infeasible"
        phases = ["lp.phase1_pivots", "lp.phase2_pivots"]
        if len(calls) == 1 and not infeasible:
            phases = phases[1:]
        for (iters, cells), phase in zip(calls, phases):
            self._count(phase, iters)
            self._count("kernels.simplex_bytes", 8.0 * iters * cells)

    def _before_ub_grid(self, args, kwargs):
        self._count("kernels.ub_grid_points", args[0].shape[0])

    def _after_grid(self, idx, parent, args, out):
        self._count("fptas.grid_points", out.shape[0])

    def _after_fptas(self, idx, parent, args, out):
        self._count("fptas.eta_retries", out.diagnostics.get("eta_retries", 0))

    def _before_cross_belief(self, args, kwargs):
        self._count("oracle.cross_belief_calls")

    def _before_scheme_eval(self, args, kwargs):
        self._count("belief.scheme_eval_calls")

    def _before_oracle_scan(self, args, kwargs):
        self._count("kernels.oracle_candidates", int(args[3]) - int(args[2]))
