import json
import os

import pytest
from click.testing import CliRunner

from liepairs.cli import main

PAIRS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "pairs")


def pair_path(name):
    return os.path.join(PAIRS_DIR, name + ".json")


def run_cli(args):
    return CliRunner().invoke(main, args)


def test_validate_suite_passes():
    res = run_cli(["check", "--pair", pair_path("abelian"),
                   "--suite", "validate"])
    assert res.exit_code == 0, res.output
    report = json.loads(res.stdout)
    assert report["schema"] == "v1"
    assert report["pair"] == "abelian"
    assert report["config"]["suite"] == "validate"
    names = [c["name"] for c in report["checks"]]
    assert "validate:pair-structure" in names
    assert "validate:connection-torsion-free" in names
    assert all(c["status"] == "pass" for c in report["checks"])
    assert report["artifacts"]["pair"]["complement-closed"] is True


def test_report_check_fields():
    res = run_cli(["check", "--pair", pair_path("abelian"),
                   "--suite", "transfer-t"])
    assert res.exit_code == 0, res.output
    report = json.loads(res.stdout)
    for c in report["checks"]:
        assert set(c) >= {"name", "status", "count", "exhaustive"}
        if not c["exhaustive"]:
            assert "seed" in c


def test_strided_checks_report_their_stride():
    res = run_cli(["check", "--pair", pair_path("abelian"),
                   "--trunc", "4", "--arity", "2"])
    assert res.exit_code == 0, res.output
    checks = {c["name"]: c for c in json.loads(res.stdout)["checks"]}
    strides = {
        "contraction:t:perturbed-homotopy": 3,
        "contraction:d:perturbed-homotopy": 3,
        "contraction:t:perturbed-projection-chain-map": 3,
        "contraction:d:perturbed-projection-chain-map": 3,
        "transfer-d:jacobi-arity-1": 2,
        "matched:binary-bracket-equals-direct-gerstenhaber": 2,
    }
    for name, stride in strides.items():
        assert checks[name]["exhaustive"] is False
        assert checks[name]["stride"] == stride
    for c in checks.values():
        assert c["exhaustive"] == ("seed" not in c and "stride" not in c)


def test_trunc_too_small_is_config_error():
    res = run_cli(["check", "--pair", pair_path("abelian"),
                   "--trunc", "4", "--arity", "3"])
    assert res.exit_code == 2


@pytest.mark.parametrize("trunc, arity", [
    # the trunc bound alone let these run every suite and report all
    # checks passed
    ("1", "-1"), ("2", "0"),
    # this one ended in a traceback inside the resolution
    ("0", "-2")])
def test_arity_below_one_is_config_error(trunc, arity):
    res = run_cli(["check", "--pair", pair_path("sl2_borel"),
                   "--trunc", trunc, "--arity", arity])
    assert res.exit_code == 2
    assert "error: arity must be at least 1" in res.stderr
    assert res.stdout == ""


def test_malformed_json_is_config_error(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    res = run_cli(["check", "--pair", str(bad)])
    assert res.exit_code == 2


def test_unwritable_report_path_is_config_error(tmp_path):
    # used to run every suite first and then end in a FileNotFoundError
    # traceback with exit code 1
    out = tmp_path / "missing" / "r.json"
    res = run_cli(["check", "--pair", pair_path("sl2_h"), "--out", str(out)])
    assert res.exit_code == 2
    assert "error: cannot write report:" in res.stderr
    assert "checks passed" not in res.stderr
    assert res.stdout == ""
    assert not out.parent.exists()


def test_jacobi_violation_reported_with_witness(tmp_path):
    spec = {
        "name": "bad",
        "dimL": 3,
        "basis": ["x", "y", "z"],
        "aIndices": [2],
        "brackets": [
            {"i": 0, "j": 1, "coeffs": {"2": "1"}},
            {"i": 0, "j": 2, "coeffs": {"0": "1"}},
            {"i": 1, "j": 2, "coeffs": {"1": "1"}},
        ],
    }
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(spec))
    res = run_cli(["check", "--pair", str(bad), "--suite", "validate"])
    assert res.exit_code == 1
    report = json.loads(res.stdout)
    failed = [c for c in report["checks"] if c["status"] == "fail"]
    assert failed and failed[0]["name"] == "validate:pair-structure"
    assert "witness" in failed[0]


def test_subalgebra_violation_is_failure(tmp_path):
    spec = {
        "name": "not_a_subalgebra",
        "dimL": 3,
        "basis": ["x", "y", "z"],
        "aIndices": [0, 1],
        "brackets": [{"i": 0, "j": 1, "coeffs": {"2": "1"}}],
    }
    bad = tmp_path / "bad2.json"
    bad.write_text(json.dumps(spec))
    res = run_cli(["check", "--pair", str(bad), "--suite", "validate"])
    assert res.exit_code == 1


def test_fedosov_correction_vanishes_for_default_connection():
    # the canonical connection of this pair is flat along the complement
    # and the recursive correction is exactly zero
    res = run_cli(["check", "--pair", pair_path("heisenberg_center"),
                   "--suite", "fedosov"])
    assert res.exit_code == 0, res.output
    report = json.loads(res.stdout)
    assert all(series == [] for series in
               report["artifacts"]["fedosov"]["correction"])


def test_report_is_deterministic(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    for out in (out1, out2):
        res = run_cli(["check", "--pair", pair_path("abelian"),
                       "--suite", "transfer-t", "--seed", "7",
                       "--out", str(out)])
        assert res.exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_matched_not_applicable_branch():
    res = run_cli(["check", "--pair", pair_path("heisenberg_center"),
                   "--suite", "matched"])
    assert res.exit_code == 0, res.output
    report = json.loads(res.stdout)
    assert report["artifacts"]["matched"]["complement-closed"] is False
    names = [c["name"] for c in report["checks"]]
    assert "matched:not-applicable" in names


def write_spec(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


def test_out_of_range_bracket_index_is_failure(tmp_path):
    spec = {"name": "oob", "dimL": 2, "aIndices": [0],
            "brackets": [{"i": 0, "j": 5, "coeffs": {"1": "1"}}]}
    res = run_cli(["check", "--pair", write_spec(tmp_path, spec),
                   "--suite", "validate"])
    assert res.exit_code == 1
    report = json.loads(res.stdout)
    failed = [c for c in report["checks"] if c["status"] == "fail"]
    assert [c["name"] for c in failed] == ["validate:pair-structure"]
    assert "out of range" in failed[0]["witness"]["input"]


def check_malformed(tmp_path, spec, message):
    res = run_cli(["check", "--pair", write_spec(tmp_path, spec),
                   "--suite", "validate"])
    assert res.exit_code == 2
    assert "error: malformed pair spec: " + message in res.stderr


def test_malformed_coefficient_is_config_error(tmp_path):
    for coef in ("x/0", "1/0"):
        spec = {"dimL": 2, "aIndices": [0],
                "brackets": [{"i": 0, "j": 1, "coeffs": {"1": coef}}]}
        check_malformed(tmp_path, spec, "%r is not a rational number" % coef)


def test_missing_dim_is_config_error(tmp_path):
    check_malformed(tmp_path, {"aIndices": [0], "brackets": []},
                    "missing key 'dimL'")
    check_malformed(tmp_path, {"dimL": -1, "aIndices": []},
                    "dimL must not be negative")


def test_top_level_array_is_config_error(tmp_path):
    check_malformed(tmp_path, [1, 2, 3], "expected a JSON object")
    check_malformed(tmp_path, {"dimL": 1, "aIndices": [], "basis": 5},
                    "'basis' must be a JSON array")


def test_float_dim_is_config_error(tmp_path):
    check_malformed(tmp_path, {"dimL": 3.7, "aIndices": [0]},
                    "3.7 is not an integer")


def test_float_coefficient_is_config_error(tmp_path):
    # a float has no exact reading: 0.1 would be its binary value, not 1/10
    for coef, shown in ((0.1, "0.1"), (True, "True")):
        spec = {"dimL": 2, "aIndices": [0],
                "brackets": [{"i": 0, "j": 1, "coeffs": {"1": coef}}]}
        check_malformed(tmp_path, spec, shown + " is not a rational number")
    # a JSON integer and a rational string are read exactly
    for coef in (1, "1/2"):
        spec = {"dimL": 2, "aIndices": [0],
                "brackets": [{"i": 0, "j": 1, "coeffs": {"1": coef}}]}
        res = run_cli(["check", "--pair", write_spec(tmp_path, spec),
                       "--suite", "validate"])
        assert res.exit_code == 0, res.output


def test_basis_of_wrong_length_is_config_error(tmp_path):
    check_malformed(tmp_path, {"dimL": 3, "aIndices": [0],
                               "basis": ["x", "y"]},
                    "basis has 2 labels but dimL is 3")


SL2 = [{"i": 0, "j": 1, "coeffs": {"1": "2"}},
       {"i": 0, "j": 2, "coeffs": {"2": "-2"}},
       {"i": 1, "j": 2, "coeffs": {"0": "1"}}]


def check_all_suites_pass(tmp_path, spec):
    res = run_cli(["check", "--pair", write_spec(tmp_path, spec),
                   "--suite", "all", "--trunc", "4", "--arity", "2"])
    assert res.exit_code == 0, res.output
    report = json.loads(res.stdout)
    assert all(c["status"] == "pass" for c in report["checks"])
    return [c["name"] for c in report["checks"]]


def test_subalgebra_equal_to_whole_algebra(tmp_path):
    # A = L: no complement, so nothing to choose between in uniqueness
    names = check_all_suites_pass(tmp_path, {
        "name": "sl2_all", "dimL": 3, "aIndices": [0, 1, 2],
        "brackets": SL2})
    assert "contraction:d:perturbed-homotopy" in names
    assert "uniqueness:not-applicable" in names


def test_zero_subalgebra(tmp_path):
    names = check_all_suites_pass(tmp_path, {
        "name": "aff1_zero", "dimL": 2, "aIndices": [],
        "brackets": [{"i": 0, "j": 1, "coeffs": {"1": "1"}}]})
    assert "uniqueness:composition-is-identity" in names
