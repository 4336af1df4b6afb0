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
# (their `count` went from 0 to m r and d(d-1)/2); nothing else in the
# reports changed.
GOLDEN = {
    "abelian":
        "d814b2bf5d73543b7c6721a30800356a1ffd3a4e37468e01040f20a7c737ec79",
    "heisenberg_center":
        "307769093005aaf50e98461212b6fa697cc675d5ae11fddac7ca4b60d66af886",
    "heisenberg_x":
        "96cc42b391c990aa95d80f3cc4e9d978ea2b1c222570271d0365dbe81cf12d63",
    "sl2_borel":
        "dc38a0abcad705335354c498d780b4cc488ef725ca725846ebd661c71750a0d9",
    "sl2_h":
        "26414fd90ef73c9970c33a8a7e6e462cb03adcc345b004a6a57583eb583d62c7",
}


# sha256 of the report file at the defaults (--trunc 5 --arity 3) and
# --seed 0: the only reports that run the arity-3 Jacobi checks.
# Re-recorded with GOLDEN when the `validate:connection-*` counts changed.
DEFAULTS = {
    "abelian":
        "8c3a10330f2769bb5d83dd84428d0f75421384cc7666b5eed3b3ea95af475941",
    "heisenberg_center":
        "af9a5b332580012b57d5e530a2904f89a7867ffea6cb9d3c13d3bc448ec681d7",
    "heisenberg_x":
        "be264b142861e95cb9290c9b5c3597b2314b1e75439bf434e56085c6c362e9d9",
    "sl2_borel":
        "3caffd7091abaf9e75a0c4b79fa1d42dfe58976b6fa630a49ecaecd68d1696cd",
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
