import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from abasolve import cli, exact, fptas, instances, oracle
from abasolve.errors import NonFiniteScore, NumericalFailure, ParseError, \
    ValidationError
from abasolve.instances import (emit_report, parse_instance, write_json,
                                instance_to_json)
from abasolve.lp import LPSolution, LPStatus
from abasolve.scoring import piecewise_score, quadratic_score

INSTANCE_DIR = Path(__file__).resolve().parent.parent / "instances"


@pytest.fixture
def xor_path(tmp_path):
    spaces, prior = instances.xor_instance()
    path = tmp_path / "xor.json"
    write_json(instance_to_json(spaces, prior, quadratic_score()), path)
    return path


@pytest.fixture
def scheme_paths(tmp_path):
    _, prior = instances.xor_instance()
    full = tmp_path / "full_reveal.json"
    write_json({"signals": ["a0", "a1"],
                "pi": [[0.5, 0.0], [0.0, 0.5]]}, full)
    noise = tmp_path / "noise.json"
    write_json({"signals": ["a0", "a1"],
                "pi": [[0.25, 0.25], [0.25, 0.25]]}, noise)
    return full, noise


def test_bundled_instances_parse():
    for name in ("xor", "copy", "independent"):
        spaces, prior, score = parse_instance(INSTANCE_DIR / f"{name}.json")
        assert spaces.shape == (2, 2, 2)
        assert abs(prior.p.sum() - 1.0) <= 1e-9


def test_parse_rejects_unknown_key(tmp_path, xor_path):
    doc = json.loads(xor_path.read_text())
    doc["scoree"] = doc.pop("score")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="unknown key"):
        parse_instance(bad)


def test_parse_rejects_wrong_row_length(tmp_path, xor_path):
    doc = json.loads(xor_path.read_text())
    doc["prior"][0][1] = [0.0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=r"prior\[0\]\[1\]"):
        parse_instance(bad)


@pytest.mark.parametrize("parse", (parse_instance, instances.parse_scheme))
def test_parsers_refuse_a_missing_file_and_malformed_json(tmp_path, parse):
    missing = tmp_path / "missing.json"
    with pytest.raises(ParseError,
                       match=f"^cannot read {re.escape(str(missing))}: "):
        parse(missing)
    bad = tmp_path / "bad.json"
    bad.write_text('{"signals": [')
    with pytest.raises(ParseError,
                       match=f"^{re.escape(str(bad))}: invalid JSON: "):
        parse(bad)


def test_cli_classify_golden(xor_path, tmp_path, capsys):
    out = tmp_path / "report.json"
    status = cli.main(["classify", str(xor_path), "--out", str(out)])
    assert status == 0
    doc = json.loads(out.read_text())
    assert doc["classification"] == "Complements"
    assert abs(doc["objective"]) <= 1e-7
    assert "Complements" in capsys.readouterr().out


def test_cli_value_independent(tmp_path, capsys):
    spaces, prior = instances.independent_instance()
    path = tmp_path / "ind.json"
    write_json(instance_to_json(spaces, prior, quadratic_score()), path)
    assert cli.main(["value", str(path)]) == 0
    assert "V = 0" in capsys.readouterr().out


def test_cli_prints_validation_warnings(tmp_path, capsys):
    spaces, prior = instances.xor_instance()
    score = piecewise_score([((1.0, 0.0), 0.0), ((0.0, 1.0), 0.0),
                             ((1.0, 0.0), 0.0), ((1.0, 0.0), 0.0)])
    path = tmp_path / "dupes.json"
    write_json(instance_to_json(spaces, prior, score), path)
    assert cli.main(["value", str(path)]) == 0
    assert capsys.readouterr().err == "".join(
        f"warning: score: pieces {i} and {j} are duplicates\n"
        for i, j in ((0, 2), (0, 3), (2, 3)))


def test_cli_deterministic_reports(xor_path, tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert cli.main(["solve", str(xor_path), "--method", "fptas-a",
                     "--delta", "0.5", "--out", str(out1)]) == 0
    assert cli.main(["solve", str(xor_path), "--method", "fptas-a",
                     "--delta", "0.5", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_validation_exit_codes(tmp_path, xor_path):
    doc = json.loads(xor_path.read_text())
    doc["prior"][0][0][0] = -0.1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["value", str(bad)]) == cli.EXIT_VALIDATION
    assert cli.main(["value", str(tmp_path / "missing.json")]) == \
        cli.EXIT_VALIDATION
    # fptas without delta is a config validation failure
    assert cli.main(["solve", str(xor_path), "--method", "fptas-a"]) == \
        cli.EXIT_VALIDATION


PIECE = {"r": [1.0, 0.0], "b": 0.0}


@pytest.mark.parametrize("score, pi", [
    ({"kind": "piecewise", "pieces": [{"r": ["x", 1], "b": 0.0}]}, None),
    ({"kind": "piecewise", "pieces": [{"r": [1.0, 0.0], "b": None}]}, None),
    ({"kind": "piecewise", "pieces": [{"r": [True, 0.0], "b": 0.0}]}, None),
    ({"kind": "piecewise", "pieces": [PIECE], "L": "2"}, None),
    ({"kind": "quadratic", "holder": {"alpha": "x", "beta": 1.0}}, None),
    ({"kind": "quadratic", "holder": {"alpha": True, "beta": 1.0}}, None),
    (None, [[0.5, 0.0], [0.0]]),
    (None, [[[0.5], [0.0]], [[0.0], [0.5]]]),
    (None, [[0.5, "0"], [0.0, 0.5]]),
    (None, [[float("nan"), 0.5], [0.5, 0.0]]),
    ({"kind": "quadratic", "L": float("inf")}, None),
    ({"kind": "quadratic", "L": 10 ** 400}, None),
    ({"kind": "quadratic", "holder": {"alpha": float("inf"), "beta": 1.0}},
     None),
], ids=["r-string", "b-null", "r-bool", "L-string", "alpha-string",
        "alpha-bool", "pi-ragged", "pi-3-deep", "pi-string", "pi-nan",
        "L-inf", "L-int-overflow", "alpha-inf"])
def test_cli_malformed_numbers_exit_validation(tmp_path, xor_path,
                                               scheme_paths, score, pi):
    """Malformed numbers in score and scheme documents exit 2, no
    traceback.  NaN and inf are written as JSON's NaN and Infinity
    tokens, which parse."""
    doc = json.loads(xor_path.read_text())
    if score is not None:
        doc["score"] = score
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    scheme = tmp_path / "scheme.json"
    scheme.write_text(json.dumps({"signals": ["a0", "a1"], "pi": pi}))
    full, _ = scheme_paths
    argv = ["value", str(path)] if pi is None else \
        ["simulate", str(path), "--belief", str(full), "--actual", str(scheme)]
    assert cli.main(argv) == cli.EXIT_VALIDATION


@pytest.mark.parametrize("argv, message", [
    (["solve", "--method", "oracle", "--step", "0"],
     "grid_step=0.0 must lie in (0, 1]"),
    (["solve", "--method", "oracle", "--step", "-0.5"],
     "grid_step=-0.5 must lie in (0, 1]"),
    (["solve", "--method", "oracle", "--max-signals", "0"],
     "max_signals=0 must be at least 1"),
    (["classify", "--tangent-k", "-3"], "tangent_k=-3 must be at least 1"),
    (["classify", "--tangent-k", "0"], "tangent_k=0 must be at least 1"),
    (["solve", "--method", "fptas-eb", "--delta", "0.1", "--eta", "-1"],
     "consistency_eta=-1.0 must be finite and positive"),
    (["solve", "--method", "fptas-a", "--delta", "inf"],
     "a finite --delta > 0 is required for FPTAS methods"),
    (["solve", "--method", "fptas-eb", "--delta", "nan"],
     "a finite --delta > 0 is required for FPTAS methods"),
    (["solve", "--method", "fptas-a", "--delta", "0.5", "--cap-grid-points",
      "-5"], "cap_grid_points=-5 must be at least 1"),
    (["solve", "--method", "fptas-eb", "--delta", "0.5", "--cap-grid-points",
      "0"], "cap_grid_points=0 must be at least 1"),
    (["classify", "--cap-lp-vars", "0"], "cap_lp_vars=0 must be at least 1"),
    (["value", "--seed", "-1"], "rng_seed=-1 must be at least 0"),
], ids=["step-0", "step-negative", "max-signals-0", "tangent-k-negative",
        "tangent-k-0", "eta-negative", "delta-inf", "delta-nan",
        "cap-grid-points-negative", "cap-grid-points-0", "cap-lp-vars-0",
        "seed-negative"])
def test_cli_out_of_range_argument_exits_validation(xor_path, capsys, argv,
                                                    message):
    """An out-of-range solver argument exits 2 with a message that names
    it, not with a traceback or a solver failure."""
    status = cli.main([argv[0], str(xor_path)] + argv[1:])
    assert status == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {message}\n"


# each solver's integer size argument, called at a given value
COUNT_CALLS = {
    "grid_k-a": lambda prior, k: fptas.fptas_a_const(
        prior, quadratic_score(), 0.5, grid_k=k),
    "grid_k-eb": lambda prior, k: fptas.fptas_eb_const(
        prior, quadratic_score(), 0.5, grid_k=k),
    "max_signals": lambda prior, k: oracle.oracle_optimal(
        prior, quadratic_score(), 0.05, max_signals=k),
    "tangent_k": lambda prior, k: exact.classify_substitutes(
        prior, quadratic_score(), tangent_k=k),
}


# each solver's size cap, called at a given value
CAP_CALLS = {
    "cap_grid_points-a": lambda prior, k: fptas.fptas_a_const(
        prior, quadratic_score(), 0.5, cap_grid_points=k),
    "cap_grid_points-eb": lambda prior, k: fptas.fptas_eb_const(
        prior, quadratic_score(), 0.5, cap_grid_points=k),
    "cap_lp_vars": lambda prior, k: exact.classify_substitutes(
        prior, quadratic_score(), cap_lp_vars=k),
}
INTEGER_CALLS = {**COUNT_CALLS, **CAP_CALLS}


@pytest.mark.parametrize("value", (2.5, 2.0, np.float64(3.0), True, "3"),
                         ids=["2.5", "2.0", "float64", "True", "str"])
@pytest.mark.parametrize("name", INTEGER_CALLS)
def test_non_integer_count_is_a_validation_error(name, value):
    # a float, a bool or a string is refused before any array is sized
    # by it: a float used to raise a bare TypeError, True ran as K = 1
    # and tangent_k = 2.5 linearized at points summing to 0.8; a cap of
    # True raised SizeCapExceeded, a solver failure, and 30.5 ran
    _, prior = instances.xor_instance()
    field = name.split("-")[0]
    with pytest.raises(ValidationError, match=re.escape(
            f"{field}={value!r} must be an integer")):
        INTEGER_CALLS[name](prior, value)


@pytest.mark.parametrize("name", COUNT_CALLS)
def test_numpy_integer_count_is_accepted(name):
    _, prior = instances.xor_instance()
    call = COUNT_CALLS[name]
    assert emit_report(call(prior, np.int64(3)), None) == \
        emit_report(call(prior, 3), None)


@pytest.mark.parametrize("command, method, field", (
    ("solve", "oracle", "max_signals"), ("classify", "exact", "tangent_k")))
def test_cli_run_refuses_a_non_integer_count(xor_path, capsys, command,
                                             method, field):
    config = cli.RunConfig(command=command, instance_path=str(xor_path),
                           method=method, **{field: 2.5})
    assert cli.run(config) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {field}=2.5 must be an " \
        "integer\n"


IGNORED_OPTIONS = {
    "value": ("--delta", "--eta", "--tangent-k", "--cap-lp-vars",
              "--cap-grid-points"),
    "simulate": ("--delta", "--eta", "--tangent-k", "--cap-lp-vars",
                 "--cap-grid-points"),
    "oracle": ("--delta", "--eta", "--tangent-k", "--cap-lp-vars",
               "--cap-grid-points"),
    "classify": ("--delta", "--eta", "--cap-grid-points"),
}


@pytest.mark.parametrize("command, option", [
    (command, option) for command, options in IGNORED_OPTIONS.items()
    for option in options])
def test_cli_option_a_command_does_not_read_is_a_usage_error(
        xor_path, scheme_paths, capsys, command, option):
    """A command refuses an option it would not read (argparse exits 2)
    instead of accepting and ignoring it."""
    full, _ = scheme_paths
    argv = [command, str(xor_path), option, "0.1"]
    if command == "simulate":
        argv += ["--belief", str(full), "--actual", str(full)]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_VALIDATION
    assert f"unrecognized arguments: {option} 0.1" in capsys.readouterr().err


def test_cli_solver_failure_exit_code(xor_path):
    status = cli.main(["solve", str(xor_path), "--method", "oracle",
                       "--step", "0.001"])
    assert status == cli.EXIT_SOLVER


def _infeasible(*args, **kwargs):
    return LPSolution(LPStatus.INFEASIBLE, None, None, None, None, 0)


@pytest.mark.parametrize("module, lp_routine, method, solve, message", [
    (fptas, "solve_envelope", "exact", lambda prior: exact.solve_exact(
        prior, piecewise_score([([0.0, 0.0], 0.0), ([1.0, -1.0], 0.0)])),
     "vertex LP reported Infeasible"),
    (fptas, "solve_envelope", "fptas-a", lambda prior: fptas.fptas_a_const(
        prior, quadratic_score(), 0.5, grid_k=4),
     "grid LP reported Infeasible"),
    (fptas, "solve_lp", "fptas-eb", lambda prior: fptas.fptas_eb_const(
        prior, quadratic_score(), 0.5, grid_k=2),
     "achievability LP stayed Infeasible after 4 eta doublings"),
], ids=["exact", "fptas-a", "fptas-eb"])
def test_cli_impossible_lp_outcome_is_solver_failure(
        xor_path, monkeypatch, capsys, module, lp_routine, method, solve,
        message):
    # each LP always has a feasible point, so Infeasible is a solver fault
    monkeypatch.setattr(module, lp_routine, _infeasible)
    _, prior = instances.xor_instance()
    with pytest.raises(NumericalFailure, match=message):
        solve(prior)
    status = cli.main(["solve", str(xor_path), "--method", method,
                       "--delta", "0.5"])
    assert status == cli.EXIT_SOLVER
    assert f"solver failure: {message}" in capsys.readouterr().err


def test_cli_simulate_deviation_chain(xor_path, scheme_paths, tmp_path,
                                      capsys):
    full, noise = scheme_paths
    out = tmp_path / "sim.json"
    status = cli.main(["simulate", str(xor_path), "--belief", str(full),
                       "--actual", str(noise), "--out", str(out)])
    assert status == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert doc["chain"]["u_b_cross"] == pytest.approx(-0.5, abs=1e-9)
    assert doc["chain"]["u_b_star"] == pytest.approx(0.0, abs=1e-9)
    assert doc["chain"]["u_b_own"] == pytest.approx(0.5, abs=1e-9)
    assert doc["bob_utility_cross"] == pytest.approx(-0.5, abs=1e-9)


def test_cli_oracle_command(xor_path, tmp_path):
    out = tmp_path / "oracle.json"
    assert cli.main(["oracle", str(xor_path), "--step", "0.1",
                     "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["method"] == "Oracle"
    assert abs(doc["objective"]) <= 1e-9


def test_report_roundtrip_and_pruning(tmp_path):
    _, prior = instances.xor_instance()
    from abasolve.exact import solve_exact
    from helpers import random_piecewise
    report = solve_exact(prior, random_piecewise(np.random.default_rng(5),
                                                 ne=2, k=3))
    path = tmp_path / "report.json"
    emit_report(report, path)
    doc = json.loads(path.read_text())
    assert list(doc) == ["method", "objective", "bob_utility", "V",
                         "classification", "scheme", "diagnostics"]
    assert doc["objective"] == report.sender_objective  # 17g round-trips
    assert doc["V"] == report.total_value_V
    masses = [sum(row) for row in doc["scheme"]["pi"]]
    assert all(m > 1e-10 for m in masses)


def test_cli_exact_with_piecewise_score(tmp_path):
    spaces, prior = instances.xor_instance()
    from abasolve.scoring import piecewise_score
    score = piecewise_score([((1.0, -1.0), 0.0), ((-1.0, 1.0), 0.0)])
    path = tmp_path / "xor_pw.json"
    write_json(instance_to_json(spaces, prior, score), path)
    out = tmp_path / "report.json"
    assert cli.main(["solve", str(path), "--method", "exact",
                     "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert abs(doc["objective"]) <= 1e-7
    assert doc["classification"] == "Complements"
    assert "linearized" not in doc["diagnostics"]


def test_write_json_float_format(tmp_path):
    path = tmp_path / "x.json"
    text = write_json({"a": 1 / 3, "b": [1.0, 2], "c": "s", "d": True}, path)
    assert '"a": 0.33333333333333331' in text
    assert json.loads(path.read_text())["a"] == 1 / 3
    assert json.loads(write_json({"f": np.bool_(True), "g": np.float64(0.5),
                                  "h": np.int64(3)}, None)) == \
        {"f": True, "g": 0.5, "h": 3}


@pytest.mark.parametrize("value", (math.inf, -math.inf, math.nan))
def test_write_json_refuses_non_finite_numbers(tmp_path, value):
    # JSON has no inf or nan; json.loads rejects a document holding them
    path = tmp_path / "x.json"
    for doc in ({"a": value}, {"a": [1.0, np.float64(value)]},
                {"a": {"b": value}}):
        with pytest.raises(NonFiniteScore, match="JSON has no non-finite"):
            write_json(doc, path)
        assert not path.exists()


def test_cli_simulate_non_finite_payoff_is_solver_failure(
        xor_path, scheme_paths, tmp_path, capsys):
    # under the log score Bob's cross-belief payoff is -inf here: he
    # reports probability 0 for outcomes that occur
    doc = json.loads(xor_path.read_text())
    doc["score"] = {"kind": "log"}
    path = tmp_path / "xor_log.json"
    path.write_text(json.dumps(doc))
    full, noise = scheme_paths
    out = tmp_path / "sim.json"
    status = cli.main(["simulate", str(path), "--belief", str(full),
                       "--actual", str(noise), "--out", str(out)])
    assert status == cli.EXIT_SOLVER
    assert "cannot write -inf" in capsys.readouterr().err
    assert not out.exists()


def test_cli_cap_flow_through(xor_path, tmp_path):
    out = tmp_path / "capped.json"
    status = cli.main(["solve", str(xor_path), "--method", "fptas-a",
                       "--delta", "0.05", "--cap-grid-points", "101",
                       "--out", str(out)])
    assert status == 0
    doc = json.loads(out.read_text())
    assert doc["diagnostics"]["K"] == 100
    assert doc["diagnostics"]["grid_capped"] is True


def test_run_config_direct_use(xor_path, tmp_path):
    from abasolve.cli import RunConfig, run
    out = tmp_path / "direct.json"
    config = RunConfig(command="value", instance_path=str(xor_path),
                       output_path=str(out))
    assert run(config) == 0
    assert json.loads(out.read_text())["V"] == pytest.approx(0.5)
    from abasolve.errors import ValidationError
    with pytest.raises(ValidationError):
        RunConfig(command="solve", instance_path=str(xor_path),
                  method="fptas-a")  # delta missing
