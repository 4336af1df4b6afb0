"""Golden reports: `check --suite all` on every shipped pair must write
exactly the bytes recorded below.  Every value is exact, so a refactor
or a speed-up that keeps the behaviour keeps the whole report, check
names, counts and flags included.  A change that is meant to alter a
report must update its digest here and say why."""

import hashlib
import os

import pytest
from click.testing import CliRunner

from liepairs.cli import main

PAIRS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "pairs")

# sha256 of the report file at --trunc 4 --arity 2 --seed 0
GOLDEN = {
    "abelian":
        "819f233b6c075358dc1b2390458391419e04b382d541e27448ae4f393dd158d5",
    "heisenberg_center":
        "b4aa4f6b3aa041b2d2f675c637180c86528700358400dcd0ce2023abbaa36a6d",
    "heisenberg_x":
        "710ff6f0f986359701876835f55b77559e1e8f2654f095a7ed3613c453f9d387",
    "sl2_borel":
        "592ce34c25137d4401627e664bbd88c2ebe91c8d32595815287d83cf528b1ade",
    "sl2_h":
        "90db89c3c4c781fc6a43ef40dd3642bc4fa61f985a213c57e00d433d0f38329c",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_bytes_unchanged(name, tmp_path):
    out = tmp_path / "report.json"
    res = CliRunner().invoke(main, [
        "check", "--pair", os.path.join(PAIRS_DIR, name + ".json"),
        "--suite", "all", "--trunc", "4", "--arity", "2", "--seed", "0",
        "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[name]
