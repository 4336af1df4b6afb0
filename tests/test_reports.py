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
# over every key (its `count` doubled, `exhaustive: true`, no `stride`);
# nothing else in the reports changed.
GOLDEN = {
    "abelian":
        "cc0f970dc65aff569e42a40b76dcbeb6a265194655b2bbb67d87ed652242d586",
    "heisenberg_center":
        "551753498b44379df51da3554b6ba3ca8df685ebf6eec115669779534c77633f",
    "heisenberg_x":
        "2b342fdfa18aaad6ac7a7d018162c5e5909eb8f43e655a42cd65c98288b814ee",
    "sl2_borel":
        "cdb455f374f8b8b4c4d4db177c0fc4151b86a737407e3d83e14f3e97a0f9a471",
    "sl2_h":
        "da2e8be1b54c4044992f98f4171acd1873a9ecdbce944c04e756321c4bb6897b",
}


# sha256 of the report file at the defaults (--trunc 5 --arity 3) and
# --seed 0: the only reports that run the arity-3 Jacobi checks
DEFAULTS = {
    "abelian":
        "f832b9d6d454b463b676a3b7fbbfdd70c7a496731bff9bd2cee46d49c09f17f6",
    "heisenberg_center":
        "08485cc472b6aebcc7e8a38aee3021eed63338e29fa9336c815e47dd43ee3d58",
    "heisenberg_x":
        "95389c48d083d7909fdba90c4bcf4a360ac6cd74765ac092e4a8f79f8832704b",
    "sl2_borel":
        "73416ea0b278b1abeabf9fe7923166feff027b396179dcc89adf09e7ae38d43b",
    "sl2_h":
        "80f7235a857a181f340131bf4bac52d47a449f671cb53a165665394dc5a1bdaf",
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
# reduction do the work
WIDE = {
    "contraction":
        "23b04bd723f6144a2357bc84aef1d9c9c9e1c90412948304542b1a85df8aa0fe",
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
