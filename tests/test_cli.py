import json
import math
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

from liepairs.cli import (
    Runner, run_contraction, run_fedosov, run_matched, run_validate,
)
from liepairs.cohomology import d_complex_keys
from liepairs.core import Vec, mi_unit
from liepairs.liepair import Connection
from liepairs.matched import MatchedD, is_matched
from liepairs.weyl import Weyl

from helpers import FIXTURES, PAIRS_DIR, load, pipeline, run_cli

# a fresh interpreter that imports the sources under test
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [os.path.join(os.path.dirname(__file__), os.pardir, "src")]
    + os.environ.get("PYTHONPATH", "").split(os.pathsep)))


def pair_path(name):
    return os.path.join(PAIRS_DIR, name + ".json")


def test_all_suites_build_one_resolution_per_choice(monkeypatch):
    # one Weyl for the pair's own choice, shared by every suite, and one
    # for the second connection of the uniqueness suite; each is solved
    # once
    built, solved = [], []
    init, solve = Weyl.__init__, Weyl.solve

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def counting_solve(self):
        if self.x_vert is None:
            solved.append(self)
        return solve(self)

    monkeypatch.setattr(Weyl, "__init__", counting_init)
    monkeypatch.setattr(Weyl, "solve", counting_solve)
    res = run_cli(["check", "--pair", pair_path("sl2_h"), "--suite", "all"])
    assert res.exit_code == 0, res.output
    assert len(built) == 2
    assert solved == built


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
    # a sampled check records its seed, a strided one its stride, and an
    # exhaustive one neither; this run has checks of all three kinds
    res = run_cli(["check", "--pair", pair_path("abelian"),
                   "--suite", "all", "--trunc", "4", "--arity", "2"])
    assert res.exit_code == 0, res.output
    report = json.loads(res.stdout)
    for c in report["checks"]:
        assert set(c) >= {"name", "status", "count", "exhaustive"}
        assert c["exhaustive"] == ("seed" not in c and "stride" not in c)
    assert any("seed" in c for c in report["checks"])
    assert any("stride" in c for c in report["checks"])


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
        "matched:binary-bracket-equals-direct-gerstenhaber": 4,
    }
    for name, stride in strides.items():
        assert checks[name]["exhaustive"] is False
        assert checks[name]["stride"] == stride
    for c in checks.values():
        assert c["exhaustive"] == ("seed" not in c and "stride" not in c)
    # d_small' costs one pass of rho, so this one runs over every key
    assert checks["transfer-d:jacobi-arity-1"]["exhaustive"] is True


def strided_totals(p):
    """The length of the input list of each strided check, from the
    pipeline's own word and key lists."""
    t_words = len(list(p.T.alg.words(max_weight=1)))
    d_words = len(list(p.D.W.alg.words(max_weight=1)))
    totals = {
        "contraction:t:perturbed-homotopy": t_words,
        "contraction:d:perturbed-homotopy": 2 * d_words,
        "contraction:t:perturbed-projection-chain-map": t_words,
        "contraction:d:perturbed-projection-chain-map": d_words,
    }
    if is_matched(p.sp):
        totals["matched:binary-bracket-equals-direct-gerstenhaber"] = \
            len(d_complex_keys(p.sp)) ** 2
    return totals


@pytest.mark.parametrize("name", sorted(
    f[:-len(".json")] for f in os.listdir(PAIRS_DIR)))
def test_strided_checks_take_every_nth_input(name, monkeypatch):
    # a check with stride N takes every N-th item of its whole input list,
    # so it examines ceil(total / N) items.  The count depends only on the
    # lists, so the two brackets of the d-side matched comparison (11 s
    # of sl3_borel's matched suite) are replaced by zero
    p = pipeline(name, 4)
    p.td = SimpleNamespace(lam_keys=lambda keys: Vec())
    monkeypatch.setattr(MatchedD, "gerst", lambda self, u, v: Vec())
    run = Runner()
    run_contraction(run, p)
    run_matched(run, p, 0)
    assert run.ok()
    strided = {c["name"]: c for c in run.checks if "stride" in c}
    totals = strided_totals(p)
    assert set(strided) == set(totals)
    for check, total in totals.items():
        c = strided[check]
        assert c["count"] == math.ceil(total / c["stride"]), (check, total)


def test_t_side_arity_3_runs_over_every_key_triple():
    res = run_cli(["check", "--pair", pair_path("sl2_h"),
                   "--suite", "transfer-t", "--trunc", "5", "--arity", "3"])
    assert res.exit_code == 0, res.output
    checks = {c["name"]: c for c in json.loads(res.stdout)["checks"]}
    n_keys = checks["transfer-t:jacobi-arity-1"]["count"]
    arity3 = checks["transfer-t:jacobi-arity-3"]
    assert arity3["exhaustive"] is True
    assert arity3["count"] == n_keys ** 3
    assert "seed" not in arity3


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


@pytest.mark.parametrize("content", [
    b'{"dimL": 1, "aIndices": [], "basis": ["\xff"]}',
    b"[" * 100000,
    # a repeated key, which json.load would resolve to its last value
    b'{"dimL": 1, "dimL": 2, "aIndices": []}',
], ids=["not-utf-8", "nested-past-the-recursion-limit", "repeated-key"])
def test_unreadable_pair_spec_is_config_error(tmp_path, content):
    # both used to end in a traceback with exit code 1, "a check failed"
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    res = run_cli(["check", "--pair", str(bad)])
    assert res.exit_code == 2
    assert "error: cannot read pair spec: " in res.stderr
    assert "Traceback" not in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("args, message", [
    (["--pair", "{sl2_h}", "--suite", "every"],
     "argument --suite: invalid choice: 'every'"),
    (["--pair", "{sl2_h}", "--trunc", "five"],
     "argument --trunc: invalid int value: 'five'"),
    (["--suite", "validate"], "the following arguments are required: --pair"),
    (["--pair", "{tmp}/absent.json"], "error: cannot read pair spec: "),
    (["--pair", "{tmp}"], "error: cannot read pair spec: "),
    (["--pair", "{sl2_h}", "--out", "{tmp}"], "error: cannot write report: "),
])
def test_unusable_arguments_are_usage_errors(tmp_path, args, message):
    res = run_cli(["check"] + [a.format(sl2_h=pair_path("sl2_h"),
                                        tmp=tmp_path) for a in args])
    assert res.exit_code == 2
    assert message in res.stderr
    assert "Traceback" not in res.stderr
    assert "checks passed" not in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("args, shown", [
    (["--help"], ["check"]),
    (["check", "--help"], [
        "--pair PATH", "--trunc TRUNC", "(default: 5)", "--arity ARITY",
        "(default: 3)", "--suite SUITE", "(default: all)", "--seed SEED",
        "(default: 0)", "--out PATH", "(default: stdout)"]),
])
def test_help_lists_commands_options_and_defaults(args, shown):
    res = run_cli(args)
    assert res.exit_code == 0
    text = " ".join(res.stdout.split())
    for s in shown:
        assert s in text


def test_cli_imports_only_the_standard_library():
    # every (pair, suite) check is its own process, so each import of the
    # command is paid once per check: click alone took about 18 ms
    code = ("import json, sys; before = set(sys.modules); "
            "import liepairs.cli; "
            "print(json.dumps([sorted(sys.modules), "
            "sorted(set(sys.modules) - before)]))")
    res = subprocess.run([sys.executable, "-c", code], env=ENV,
                         capture_output=True, text=True, check=True)
    loaded, imported = json.loads(res.stdout)
    assert "click" not in loaded
    assert [m for m in imported if m.split(".")[0] != "liepairs"
            and m.split(".")[0] not in sys.stdlib_module_names] == []


def test_closed_stdout_exits_1_without_traceback():
    # `liepairs check ... | head`: the reader is gone before the report
    # is written; with stdout buffered, as it is by default, the write
    # fails only when the buffer is flushed
    env = {k: v for k, v in ENV.items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        res = subprocess.run(
            [sys.executable, "-m", "liepairs.cli", "check", "--pair",
             pair_path("sl2_h"), "--suite", "validate"],
            env=env, stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert res.returncode == 1
    assert "Traceback" not in res.stderr
    assert "Exception ignored" not in res.stderr


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
    [check] = json.loads(res.stdout)["checks"]
    assert (check["name"], check["status"], check["count"]) == (
        "validate:pair-structure", "fail", 1)
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
    [check] = json.loads(res.stdout)["checks"]
    assert (check["name"], check["status"], check["count"]) == (
        "validate:pair-structure", "fail", 1)


def test_fedosov_correction_vanishes_for_default_connection():
    # the canonical connection of this pair is flat along the complement
    # and the recursive correction is exactly zero
    res = run_cli(["check", "--pair", pair_path("heisenberg_center"),
                   "--suite", "fedosov"])
    assert res.exit_code == 0, res.output
    report = json.loads(res.stdout)
    assert all(series == [] for series in
               report["artifacts"]["fedosov"]["correction"])


def test_correction_weight_check_keeps_each_component_apart():
    # X_0 = chi^(e_0) and X_1 = -chi^(e_0): each has a weight-1 word, so
    # the check fails, though the two words would cancel in one sum
    p = pipeline("sl2_h")
    w = p.W.alg.even_word(mi_unit(p.sp.r, 0))
    p.W.x_vert = {0: Vec({w: 1}), 1: Vec({w: -1})}
    run = Runner()
    run_fedosov(run, p)
    check = next(c for c in run.checks
                 if c["name"] == "fedosov:correction-weight-at-least-two")
    assert check["status"] == "fail"
    assert check["witness"]["defect"] == [(repr((0, w)), "1"),
                                          (repr((1, w)), "-1")]


def counting_checks(monkeypatch, plant_at=None):
    """Wrap the defect of every check that Runner.check runs so that it
    counts its calls; with plant_at n, the n-th call of each check
    returns a nonzero defect.  Returns {check name: the inputs its
    defect was called on}."""
    seen = {}
    check = Runner.check

    def counting(self, name, inputs, defect, stride=None, seed=None):
        calls = seen[name] = []

        def counted(x):
            calls.append(x)
            if len(calls) == plant_at:
                return Vec({"planted": 1})
            return defect(x)
        check(self, name, inputs, counted, stride, seed)

    monkeypatch.setattr(Runner, "check", counting)
    return seen


@pytest.mark.parametrize("name", FIXTURES)
def test_each_count_is_the_number_of_defects_evaluated(name, monkeypatch):
    seen = counting_checks(monkeypatch)
    res = run_cli(["check", "--pair", pair_path(name), "--suite", "all"])
    assert res.exit_code == 0, res.output
    checks = json.loads(res.stdout)["checks"]
    counted = {c["name"]: c["count"] for c in checks
               if c["name"] != "validate:pair-structure"
               and not c["name"].endswith(":not-applicable")}
    assert counted == {check: len(xs) for check, xs in seen.items()}
    # the strided and the sampled checks are among them
    assert any("stride" in c for c in checks)
    assert any("seed" in c for c in checks)


def test_a_failure_counts_the_inputs_up_to_it(monkeypatch):
    # a nonzero defect on the third input of every check: each check with
    # three inputs or more fails there, and names that input
    seen = counting_checks(monkeypatch, plant_at=3)
    res = run_cli(["check", "--pair", pair_path("sl2_borel"),
                   "--trunc", "4", "--arity", "2"])
    assert res.exit_code == 1
    checks = {c["name"]: c for c in json.loads(res.stdout)["checks"]}
    failed = [name for name, xs in seen.items() if len(xs) == 3]
    assert "contraction:d:perturbed-homotopy" in failed
    for name in failed:
        c = checks[name]
        assert (c["status"], c["count"]) == ("fail", 3), name
        assert c["witness"] == {"input": repr(seen[name][2]),
                                "defect": [["'planted'", "1"]]}
    for name, xs in seen.items():
        assert len(xs) <= 3
        if len(xs) < 3:
            assert checks[name]["status"] == "pass", name


def test_connection_checks_count_the_cases_examined():
    # every (A-direction, B-index) and every basis pair u < v when they
    # pass; up to and including the first failing pair when one fails
    pair, sp, conn = load("heis5_lag")
    run = Runner()
    run_validate(run, pair, sp, conn)
    assert [(c["status"], c["count"]) for c in run.checks] == [
        ("pass", 2 * 3), ("pass", 5 * 4 // 2)]
    pair, sp, conn = load("heisenberg_center")
    gamma = [[list(row) for row in plane] for plane in conn.gamma]
    gamma[pair.dim_a + 0][1][0] += 1   # torsion at (E_1, E_2) only
    run = Runner()
    run_validate(run, pair, sp, Connection(sp, gamma))
    assert [(c["status"], c["count"]) for c in run.checks] == [
        ("pass", 1 * 2), ("fail", 3)]
    assert run.checks[1]["witness"]["input"] == repr((1, 2))
    # off the canonical A-action at (E_0, d_1), the second case
    gamma = [[list(row) for row in plane] for plane in conn.gamma]
    gamma[0][1][0] += 1
    bad = Connection(sp, gamma)
    assert bad.extends_bott() == (False, (0, 1))
    run = Runner()
    run_validate(run, pair, sp, bad)
    assert [(c["status"], c["count"]) for c in run.checks][0] == ("fail", 2)


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


def test_name_that_is_not_a_string_is_config_error(tmp_path):
    check_malformed(tmp_path, {"name": ["x"], "dimL": 1, "aIndices": [0]},
                    "'name' must be a JSON string")
    # a null name counts as missing, also when the pair is refused: the
    # report names the pair by its path
    path = write_spec(tmp_path, {
        "name": None, "dimL": 2, "aIndices": [0],
        "brackets": [{"i": 0, "j": 5, "coeffs": {"1": "1"}}]})
    res = run_cli(["check", "--pair", path, "--suite", "validate"])
    assert res.exit_code == 1
    assert json.loads(res.stdout)["pair"] == path


def test_basis_label_that_is_not_a_string_is_config_error(tmp_path):
    check_malformed(tmp_path, {"dimL": 2, "aIndices": [0],
                               "basis": ["x", 7]},
                    "'basis' labels must be JSON strings")


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
    # A = L: no complement, so nothing to choose between in uniqueness;
    # L = 0 is the case where A = L = 0
    for spec in ({"name": "sl2_all", "dimL": 3, "aIndices": [0, 1, 2],
                  "brackets": SL2},
                 {"name": "zero", "dimL": 0, "aIndices": []}):
        names = check_all_suites_pass(tmp_path, spec)
        assert "contraction:d:perturbed-homotopy" in names
        assert "uniqueness:not-applicable" in names


def test_zero_subalgebra(tmp_path):
    names = check_all_suites_pass(tmp_path, {
        "name": "aff1_zero", "dimL": 2, "aIndices": [],
        "brackets": [{"i": 0, "j": 1, "coeffs": {"1": "1"}}]})
    assert "uniqueness:composition-is-identity" in names


def sl2_h_spec(brackets):
    return {"name": "sl2_h", "dimL": 3, "basis": ["h", "e", "f"],
            "aIndices": [0], "brackets": brackets}


@pytest.mark.parametrize("brackets, message", [
    # [h, e] given as e and then as 2e: the last entry used to win, and
    # the pair passed validation
    ([{"i": 0, "j": 1, "coeffs": {"1": "1"}}] + SL2,
     "bracket (0, 1) is given twice"),
    # "1" and "01" name the same basis element
    ([{"i": 0, "j": 1, "coeffs": {"01": "1", "1": "2"}}] + SL2[1:],
     "coefficient 1 of bracket (0, 1) is given twice"),
])
def test_repeated_bracket_entry_is_config_error(tmp_path, brackets,
                                                message):
    check_malformed(tmp_path, sl2_h_spec(brackets), message)


@pytest.mark.parametrize("coeffs, code", [
    # [e, h] = -2e agrees with [h, e] = 2e
    ({"1": "-2", "2": "0"}, 0),
    # these two used to be merged with [h, e] = 2e into [h, e] = 2e - 5f,
    # and the pair passed validation
    ({"2": "5"}, 1), ({"1": "-2", "2": "5"}, 1)])
def test_bracket_given_in_both_orders_must_agree(tmp_path, coeffs, code):
    spec = sl2_h_spec(SL2 + [{"i": 1, "j": 0, "coeffs": coeffs}])
    res = run_cli(["check", "--pair", write_spec(tmp_path, spec),
                   "--suite", "validate"])
    assert res.exit_code == code, res.output
    failed = [c for c in json.loads(res.stdout)["checks"]
              if c["status"] == "fail"]
    assert [c["name"] for c in failed] == \
        ["validate:pair-structure"] * code
    if code:
        assert "[x0, x1] and [x1, x0] disagree" \
            in failed[0]["witness"]["input"]
