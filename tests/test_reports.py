"""Golden reports: `check --suite all` on every shipped pair must write
exactly the bytes recorded below.  Every value is exact, so a refactor
or a speed-up that keeps the behaviour keeps the whole report, check
names, counts and flags included.  A change that is meant to alter a
report must update its digest here and say why."""

import hashlib
import os

import pytest

from helpers import PAIRS_DIR, run_cli

# sha256 of the report file at --trunc 4 --arity 2 --seed 0.  Re-recorded
# when the six strided checks began to report `exhaustive: false` and
# their `stride`, and again when `transfer-d:jacobi-arity-1` began to run
# over every key (its `count` doubled, `exhaustive: true`, no `stride`),
# and again when `contraction:t:side-conditions` began to check hh and
# h tau (its `count` changed), and again when the two
# `validate:connection-*` checks began to count the cases they examine
# (their `count` went from 0 to m r and d(d-1)/2), and again when every
# strided check began to take every N-th item of its whole input list
# (`matched:binary-bracket-equals-direct-gerstenhaber` reports `stride:
# 4`, and sl2_borel's `contraction:d:perturbed-homotopy` counts 11, not
# 12); nothing else in the reports changed.
GOLDEN = {
    "abelian":
        "e540e34ed305339a4b4853abf820485e0797f87d94cb9bdba40ea773f7be05f8",
    "heisenberg_center":
        "307769093005aaf50e98461212b6fa697cc675d5ae11fddac7ca4b60d66af886",
    "heisenberg_x":
        "b05989b8a523d94ebb0df633f9433f916bcf5f54492e5dd75c5845528922ffe8",
    "sl2_borel":
        "c6685215a5a686aad523c7cf0f756bddfe0010b0866ddb6b80dab464f143899a",
    "sl2_h":
        "26414fd90ef73c9970c33a8a7e6e462cb03adcc345b004a6a57583eb583d62c7",
}


# sha256 of the report file at the defaults (--trunc 5 --arity 3) and
# --seed 0: the only reports that run the arity-3 Jacobi checks.
# Re-recorded with GOLDEN when the `validate:connection-*` counts changed,
# and again with GOLDEN for the strided checks.
DEFAULTS = {
    "abelian":
        "8802dea0809569438f6d3dabd63df8099b14510212161933f74a5406bc0761e8",
    "heisenberg_center":
        "af9a5b332580012b57d5e530a2904f89a7867ffea6cb9d3c13d3bc448ec681d7",
    "heisenberg_x":
        "11dae58dee53a5cf61c01750b80d7507b296fa639f4646b08c376aa7c237170b",
    "sl2_borel":
        "c60b1e5b53c5e66088ab36b15519b4e9e7775a091a35f9edd598d08b166b9f7d",
    "sl2_h":
        "306bf4a147fdbd8a2ef93540d1952a50451faea0a40011172d5b31587eaedc03",
}


# sha256 of the sl3_borel (rank 3) fedosov report at --trunc 3 --arity 1
# --seed 0: the q^2 check on 2560 words, all word-algebra arithmetic
RANK3_FEDOSOV = \
    "85ae5c3ea6a0e51a9672769e8aa34cb061e3a49b65ba0452967aa17b376db4d2"


# sha256 of the sl3_borel (rank 3) cohomology report at --trunc 3
# --arity 1 --seed 0, recorded while the elimination was still dense and
# the d-window still built every degree (218 s and 2.3 GB then)
RANK3_COHOMOLOGY = \
    "6eb91a21a5cf61f5038ce5184fbde3ba1b6bcee6eb2c950e26a287eb83efdf3b"


# sha256 of the heis5_lag (dim 5, r = 3) reports at --trunc 4 --arity 2
# --seed 0: the wide small complexes of the contraction and cohomology
# suites, where the perturbed tau/d_small, the PBW inverse and the exact
# reduction do the work.  The contraction digest was re-recorded when
# `contraction:t:side-conditions` changed its `count`, as above.
WIDE = {
    "contraction":
        "91ede840250f1c4329c896c2ad43ef439afa4670c5fc21bcdd9762b45dc4c6a8",
    "cohomology":
        "5ee63d10e629b1f2a59f182dcd11e655418a31b7c70e94a8b06880ea335168e7",
}


def report_digest(tmp_path, name, suite, trunc, arity):
    out = tmp_path / "report.json"
    res = run_cli([
        "check", "--pair", os.path.join(PAIRS_DIR, name + ".json"),
        "--suite", suite, "--trunc", str(trunc), "--arity", str(arity),
        "--seed", "0", "--out", str(out)])
    assert res.exit_code == 0, res.output
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_bytes_unchanged(name, tmp_path):
    assert report_digest(tmp_path, name, "all", 4, 2) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(DEFAULTS))
def test_default_report_bytes_unchanged(name, tmp_path):
    assert report_digest(tmp_path, name, "all", 5, 3) == DEFAULTS[name]


def test_rank3_fedosov_report_bytes_unchanged(tmp_path):
    assert report_digest(tmp_path, "sl3_borel", "fedosov", 3, 1) \
        == RANK3_FEDOSOV


def test_rank3_cohomology_report_bytes_unchanged(tmp_path):
    assert report_digest(tmp_path, "sl3_borel", "cohomology", 3, 1) \
        == RANK3_COHOMOLOGY


@pytest.mark.parametrize("suite", sorted(WIDE))
def test_wide_report_bytes_unchanged(suite, tmp_path):
    assert report_digest(tmp_path, "heis5_lag", suite, 4, 2) == WIDE[suite]
