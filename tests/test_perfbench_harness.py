"""The benchmark harness in perfbench/ against the current code: its own
self-tests pass, and one traced invocation still finds and spans the
entry points it wraps.  A refactor that renames a traced function fails
here rather than when the benchmark runs."""

from collections import Counter
import importlib.util
import os
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
PERFBENCH = os.path.join(ROOT, "perfbench")


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(PERFBENCH, "tracer.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_selftest_passes():
    res = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stdout + res.stderr


def test_traced_invocation_spans_every_layer(tmp_path):
    prefix = str(tmp_path / "trace")
    res = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "tracer.py"),
         os.path.join(ROOT, "src"), prefix, "0", "check",
         "--pair", os.path.join(ROOT, "pairs", "abelian.json"),
         "--suite", "all", "--trunc", "4", "--arity", "2",
         "--out", str(tmp_path / "report.json")],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stdout + res.stderr
    meta, cols = load_tracer().read_spans(prefix)
    spans = Counter(meta["names"][i] for i in cols[0])
    # the two brackets are spanned for their per-layer calls and self
    # time (68 and 142 spans on this invocation), and so are the total
    # differential of the q^2 check and the exact row reduction; the
    # resolution's solve, the inverse PBW map, the uniqueness set-up and
    # the CE differential are reached through the shared pipeline
    for name in ("contraction.d_small", "transfer.lam_keys.arity2",
                 "tpoly.schouten", "dpoly.star", "weyl.q_op", "core.rref",
                 "weyl.solve", "pbw.pbw_inv", "uniqueness.init",
                 "liepair.ce_differential"):
        assert spans[name] > 0, (name, sorted(spans))
    # Weyl.h is counted, not spanned: the homotopy of the Fedosov step
    # and of the contractions still reaches the patched method
    assert meta["counts"]["weyl.h.calls"] > 0, meta["counts"]
