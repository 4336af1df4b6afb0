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
# h tau (its `count` changed); nothing else in the reports changed.
GOLDEN = {
    "abelian":
        "152db76aa7f3fd16d402602138ec9081339629c881992dc5ad72757457e686f4",
    "heisenberg_center":
        "b6b34ee41946d7126691e450a82d67f517d76f19b38f350f4a4b05875e0ab266",
    "heisenberg_x":
        "357788519f850a04c894d8d84cbe6d80858841152c6844973d872595e3ceae05",
    "sl2_borel":
        "a29ba4e5e371346fe54a36306bec48186a96652f79a428303b6f0b0f25b904e2",
    "sl2_h":
        "e7a1beaef2c968bfbf80dd6374fc3b4850c4953b789719b8efa71e001fbcd008",
}


# sha256 of the report file at the defaults (--trunc 5 --arity 3) and
# --seed 0: the only reports that run the arity-3 Jacobi checks
DEFAULTS = {
    "abelian":
        "50177a7a10dfb0c01307b930e6121f8943b956d5576cf68c66515b30c090a673",
    "heisenberg_center":
        "adfe8caf15564dadff7eccc9eb2f1d5711f7faeb3d03618cd446f72e1d8de88a",
    "heisenberg_x":
        "336de17d6d385f9954419ab1e610054d5de6eee1daf357b68723fb0f67bc29c2",
    "sl2_borel":
        "5d921bc625f1d503c30fc66b0b755373f387f31da8fb23e9b4844d190b7b1a58",
    "sl2_h":
        "be7d2b5398e270b5af6f67ba8110f25a6fa360764f349cacd522b61b683a104e",
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
