"""Instance, score, and scheme documents, plus the bundled toy instances.

Instance files are JSON with keys "events", "alice_signals", "bob_signals"
(label arrays), "prior" (nested [e][a][b] array), and "score".  Score
objects: {"kind": "quadratic" | "log" | "spherical"} or {"kind":
"piecewise", "pieces": [{"r": [...], "b": 0.0}, ...]}, with optional
{"holder": {"alpha": .., "beta": .., "c": ..}, "L": ..}.  Unknown keys are
rejected.  Reports serialize with fixed key order and 17-significant-digit
reals so identical runs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

from .core import JointPrior, OutcomeSpaces, SolveReport
from .errors import NonFiniteScore, ParseError, ValidationError
from .scoring import HolderParams, ScoreKind, ScoreSpec, piecewise_score

_FLOAT_MAX = sys.float_info.max


def xor_instance() -> tuple[OutcomeSpaces, JointPrior]:
    """Binary A, B uniform independent, E = A xor B."""
    p = np.zeros((2, 2, 2))
    for a in range(2):
        for b in range(2):
            p[a ^ b, a, b] = 0.25
    return (OutcomeSpaces(("0", "1"), ("0", "1"), ("0", "1")), JointPrior(p))


def copy_instance() -> tuple[OutcomeSpaces, JointPrior]:
    """E = A = B, uniform binary."""
    p = np.zeros((2, 2, 2))
    p[0, 0, 0] = 0.5
    p[1, 1, 1] = 0.5
    return (OutcomeSpaces(("0", "1"), ("0", "1"), ("0", "1")), JointPrior(p))


def independent_instance() -> tuple[OutcomeSpaces, JointPrior]:
    """Fully independent uniform binary E, A, B."""
    return (OutcomeSpaces(("0", "1"), ("0", "1"), ("0", "1")),
            JointPrior(np.full((2, 2, 2), 0.125)))


def _require_keys(obj: dict, allowed: set[str], required: set[str],
                  where: str) -> None:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ParseError(f"{where}: unknown key {sorted(unknown)[0]!r}")
    missing = required - set(obj)
    if missing:
        raise ParseError(f"{where}: missing key {sorted(missing)[0]!r}")


def _labels(obj, where: str) -> tuple[str, ...]:
    if not isinstance(obj, list) or not all(isinstance(s, str) for s in obj):
        raise ParseError(f"{where}: expected an array of strings")
    return tuple(obj)


def _finite(v) -> bool:
    """Whether ``v`` is a JSON number that a float holds finitely: strings,
    bools, JSON's Infinity and NaN and integers beyond a float's range are
    not."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and \
        abs(v) <= _FLOAT_MAX


def _number(v, where: str) -> float:
    if not _finite(v):
        raise ParseError(f"{where}: expected a finite number")
    return float(v)


def _numbers(obj, where: str) -> list:
    if not isinstance(obj, list):
        raise ParseError(f"{where}: expected an array of numbers")
    # the usual array, finite floats only, passes without a call per entry
    if set(map(type, obj)) <= {float} and all(map(math.isfinite, obj)):
        return obj
    for i, v in enumerate(obj):
        if not _finite(v):
            raise ParseError(f"{where}[{i}]: expected a finite number")
    return obj


def score_from_json(obj) -> ScoreSpec:
    _require_keys(obj, {"kind", "pieces", "holder", "L"}, {"kind"}, "score")
    kind = obj["kind"]
    holder = None
    if "holder" in obj:
        h = obj["holder"]
        _require_keys(h, {"alpha", "beta", "c"}, {"alpha", "beta"},
                      "score.holder")
        holder = HolderParams(_number(h["alpha"], "score.holder.alpha"),
                              _number(h["beta"], "score.holder.beta"),
                              _number(h.get("c", 0.5), "score.holder.c"))
    bound = _number(obj["L"], "score.L") if "L" in obj else None
    if kind == "piecewise":
        if "pieces" not in obj or not isinstance(obj["pieces"], list) \
                or not obj["pieces"]:
            raise ParseError("score: piecewise needs a nonempty pieces array")
        pieces = []
        for i, piece in enumerate(obj["pieces"]):
            _require_keys(piece, {"r", "b"}, {"r", "b"}, f"score.pieces[{i}]")
            pieces.append((_numbers(piece["r"], f"score.pieces[{i}].r"),
                           _number(piece["b"], f"score.pieces[{i}].b")))
        lengths = {len(p[0]) for p in pieces}
        if len(lengths) != 1:
            raise ParseError("score: pieces must share one r length")
        return piecewise_score(pieces, holder=holder, bound_L=bound)
    if kind in ("quadratic", "log", "spherical"):
        if "pieces" in obj:
            raise ParseError(f"score: {kind} does not take pieces")
        return ScoreSpec(ScoreKind(kind), holder=holder, bound_L=bound)
    raise ParseError(f"score: unknown kind {kind!r}")


def score_to_json(score: ScoreSpec) -> dict:
    out: dict = {"kind": score.kind.value}
    if score.kind is ScoreKind.PIECEWISE:
        out["pieces"] = [{"r": list(r), "b": float(b)}
                         for r, b in zip(score.pieces_r, score.pieces_b)]
    if score.holder is not None:
        out["holder"] = {"alpha": score.holder.alpha,
                         "beta": score.holder.beta,
                         "c": score.holder.locality_c}
    if score.bound_L is not None:
        out["L"] = score.bound_L
    return out


def parse_instance(path: str | Path
                   ) -> tuple[OutcomeSpaces, JointPrior, ScoreSpec]:
    """Read and structurally validate an instance document."""
    doc = _read_json(path)
    _require_keys(doc, {"events", "alice_signals", "bob_signals", "prior",
                        "score"},
                  {"events", "alice_signals", "bob_signals", "prior", "score"},
                  "instance")
    spaces = OutcomeSpaces(_labels(doc["events"], "events"),
                           _labels(doc["alice_signals"], "alice_signals"),
                           _labels(doc["bob_signals"], "bob_signals"))
    ne, na, nb = spaces.shape
    prior_rows = doc["prior"]
    if not isinstance(prior_rows, list) or len(prior_rows) != ne:
        raise ParseError(f"prior: expected {ne} event slices")
    for e, slab in enumerate(prior_rows):
        if not isinstance(slab, list) or len(slab) != na:
            raise ParseError(f"prior[{e}]: expected {na} rows")
        for a, row in enumerate(slab):
            if not isinstance(row, list) or len(row) != nb:
                raise ParseError(f"prior[{e}][{a}]: expected {nb} entries")
            _numbers(row, f"prior[{e}][{a}]")
    tensor = np.array(prior_rows, dtype=float).reshape(ne, na, nb)
    return spaces, JointPrior(tensor), score_from_json(doc["score"])


def instance_to_json(spaces: OutcomeSpaces, prior: JointPrior,
                     score: ScoreSpec) -> dict:
    return {
        "events": list(spaces.event_labels),
        "alice_signals": list(spaces.alice_labels),
        "bob_signals": list(spaces.bob_labels),
        "prior": [[list(row) for row in slab] for slab in prior.p],
        "score": score_to_json(score),
    }


def scheme_from_json(obj) -> tuple[tuple[str, ...], np.ndarray]:
    _require_keys(obj, {"signals", "pi"}, {"signals", "pi"}, "scheme")
    labels = _labels(obj["signals"], "scheme.signals")
    rows = obj["pi"]
    if not isinstance(rows, list) or len(rows) != len(labels):
        raise ParseError("scheme: need one pi row per signal")
    pi = [_numbers(row, f"scheme.pi[{s}]") for s, row in enumerate(rows)]
    if len({len(row) for row in pi}) > 1:
        raise ParseError("scheme.pi: rows must have equal length")
    return labels, np.asarray(pi, dtype=float)


def parse_scheme(path: str | Path) -> tuple[tuple[str, ...], np.ndarray]:
    return scheme_from_json(_read_json(path))


def _read_json(path: str | Path):
    """The JSON document at ``path``, or ParseError."""
    try:
        with open(path) as f:
            return json.loads(f.read())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc


def write_json(obj, path: str | Path | None) -> str:
    """Serialize ``obj`` and return the text; write it to ``path`` too
    unless that is None.

    Dicts keep their key order and go one key to a line, two spaces an
    indent level; a list of scalars goes on one line.  Floats are written
    with 17 significant digits, so they read back bit for bit, and a
    non-finite float raises NonFiniteScore rather than writing invalid
    JSON.  Strings are quoted as ``json.dumps`` quotes them (ASCII, with
    escapes).  A ``path`` that cannot be written raises ValidationError
    naming it, as ``_read_json`` raises ParseError for one that cannot be
    read."""
    text = _dumps(obj, 0) + "\n"
    if path is not None:
        try:
            Path(path).write_text(text)
        except OSError as exc:
            raise ValidationError(f"cannot write {path}: {exc}") from exc
    return text


_quote = json.encoder.encode_basestring_ascii  # json.dumps of a str
_SCALARS = (int, float, str, bool, type(None))


def _dumps(obj, indent: int) -> str:
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise NonFiniteScore(f"cannot write {float(obj)!r}: JSON has no "
                                 "non-finite numbers")
        return format(float(obj), ".17g")
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = "\n" + "  " * (indent + 1)
        items = [(_quote(k) if isinstance(k, str) else json.dumps(k)) + ": " +
                 _dumps(v, indent + 1) for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + "\n" + \
            "  " * indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_dumps(v, indent + 1) for v in obj]
        if all(isinstance(v, _SCALARS) for v in obj):
            return "[" + ", ".join(items) + "]"
        inner = "\n" + "  " * (indent + 1)
        return "[" + inner + ("," + inner).join(items) + "\n" + \
            "  " * indent + "]"
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def report_to_json(report: SolveReport) -> dict:
    diagnostics = {k: report.diagnostics[k] for k in sorted(report.diagnostics)}
    return {
        "method": report.method.value,
        "objective": report.sender_objective,
        "bob_utility": report.bob_utility,
        "V": report.total_value_V,
        "classification": report.classification.value,
        "scheme": {
            "signals": list(report.scheme.signal_labels),
            "pi": report.scheme.pi.tolist(),
        },
        "diagnostics": diagnostics,
    }


def emit_report(report: SolveReport, path: str | Path | None) -> str:
    """Write a report document; returns the serialized text."""
    return write_json(report_to_json(report), path)
