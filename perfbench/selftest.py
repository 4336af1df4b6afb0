"""Self-tests of the benchmark's own arithmetic and inputs.

    python3 perfbench/selftest.py

Stdlib unittest only; no liepairs process is started.  One test starts
the spawner helper and a bare Python process.
"""

from fractions import Fraction
import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import pairs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def columns(spans):
    """Tracer columns from (name id, start, end, parent, tag) rows."""
    from array import array
    cols = [array(code) for code in ("i", "d", "d", "i", "q")]
    for row in spans:
        for col, v in zip(cols, row):
            col.append(v)
    return cols


class SelfTime(unittest.TestCase):

    def test_nested_synthetic_spans(self):
        # A [0,10] holds B [1,4] (which holds C [2,3]) and D [5,9].
        meta = {"names": ["A", "B", "C", "D"], "counts": {},
                "t0": -1.0, "t1": 11.0}
        stats = layers.SpanStats()
        stats.add(meta, columns([(0, 0.0, 10.0, -1, 0),
                                 (1, 1.0, 4.0, 0, 0),
                                 (2, 2.0, 3.0, 1, 0),
                                 (3, 5.0, 9.0, 0, 0)]))
        self.assertEqual(stats.self_s["A"], 3.0)
        self.assertEqual(stats.self_s["B"], 2.0)
        self.assertEqual(stats.self_s["C"], 1.0)
        self.assertEqual(stats.self_s["D"], 4.0)
        self.assertEqual(stats.total_s["B"], 3.0)
        self.assertEqual(stats.coverage, [10.0 / 12.0])
        stats.add({"names": ["A"], "counts": {}, "t0": 0.0, "t1": 4.0},
                  columns([(0, 1.0, 2.0, -1, 0)]))
        self.assertEqual(stats.value("cli.covered_frac"), 0.25)

    def test_recorder_nesting_and_round_trip(self):
        ticks = iter([0.0, 1.0, 4.0, 5.0, 6.0, 10.0])
        rec = tracer.Recorder(clock=lambda: next(ticks))
        inner = rec.span(lambda x: x + 1, "inner")
        outer = rec.span(lambda x: inner(inner(x)), "outer")
        self.assertEqual(outer(1), 3)
        with tempfile.TemporaryDirectory() as d:
            prefix = os.path.join(d, "t")
            rec.write(prefix, "inv", -1.0, 11.0)
            meta, cols = tracer.read_spans(prefix)
        self.assertEqual(meta["invocation"], "inv")
        self.assertEqual(list(cols[3]), [-1, 0, 0])
        stats = layers.SpanStats()
        stats.add(meta, cols)
        self.assertEqual(stats.calls["inner"], 2)
        self.assertEqual(stats.self_s["inner"], 4.0)
        self.assertEqual(stats.self_s["outer"], 6.0)


class Ratios(unittest.TestCase):

    def test_repeat_ratio(self):
        stats = layers.SpanStats()
        meta = {"names": ["contraction.tau"], "counts": {},
                "t0": 0.0, "t1": 1.0}
        # inputs 7, 7, 8, 7 in one invocation, then 7, 9 in another:
        # distinct inputs are counted per invocation, 2 + 2 of 6 calls.
        stats.add(meta, columns([(0, 0.0, 0.1, -1, t)
                                 for t in (7, 7, 8, 7)]))
        stats.add(meta, columns([(0, 0.0, 0.1, -1, t) for t in (7, 9)]))
        self.assertAlmostEqual(stats.value("contraction.tau.repeat_ratio"),
                               1 - 4 / 6)
        self.assertEqual(layers.SpanStats().repeat_ratio("none"), 0.0)

    def test_hit_ratio_spans_all_arities(self):
        stats = layers.SpanStats()
        meta = {"names": ["transfer.lam_keys.arity2",
                          "transfer.lam_keys.arity3"],
                "counts": {}, "t0": 0.0, "t1": 1.0}
        stats.add(meta, columns([(0, 0.0, 0.1, -1, 1),
                                 (0, 0.1, 0.2, -1, 0),
                                 (1, 0.2, 0.5, -1, 1),
                                 (1, 0.5, 0.6, -1, 1)]))
        self.assertEqual(stats.value("transfer.lam_keys.calls"), 4)
        self.assertEqual(stats.value("transfer.lam_keys.hit_ratio"), 0.75)
        self.assertAlmostEqual(stats.value("transfer.lam_keys.arity3.s"),
                               0.4)


def matmul(x, y):
    n = len(x)
    return [[sum((x[a][k] * y[k][b] for k in range(n)), Fraction(0))
             for b in range(n)] for a in range(n)]


def combo(coeffs, mats):
    n = len(mats[0])
    out = [[Fraction(0)] * n for _ in range(n)]
    for k, c in coeffs.items():
        for a in range(n):
            for b in range(n):
                out[a][b] += c * mats[k][a][b]
    return out


class GeneratedPairs(unittest.TestCase):
    """The JSON structure constants against commutators recomputed here
    with plain matrix products, and against the Lie algebra axioms."""

    CASES = {"heis5_lag": pairs.heis5_matrices,
             "sl3_borel": pairs.sl3_matrices}

    def table(self, spec):
        dim = spec["dimL"]
        c = [[{} for _ in range(dim)] for _ in range(dim)]
        for e in spec["brackets"]:
            i, j = e["i"], e["j"]
            self.assertLess(i, j)
            coeffs = {int(k): Fraction(v) for k, v in e["coeffs"].items()}
            c[i][j] = coeffs
            c[j][i] = {k: -v for k, v in coeffs.items()}
        return c

    def test_constants_reproduce_commutators(self):
        for name, make in self.CASES.items():
            spec = pairs.GENERATED[name]()
            labels, mats = make()
            self.assertEqual(spec["basis"], labels)
            c = self.table(spec)
            for i in range(len(mats)):
                for j in range(len(mats)):
                    mats_i = [list(r) for r in mats[i]]
                    mats_j = [list(r) for r in mats[j]]
                    xy, yx = matmul(mats_i, mats_j), matmul(mats_j, mats_i)
                    comm = [[p - q for p, q in zip(r1, r2)]
                            for r1, r2 in zip(xy, yx)]
                    self.assertEqual(combo(c[i][j], mats), comm,
                                     (name, i, j))

    def test_antisymmetry_and_jacobi(self):
        for name in self.CASES:
            c = self.table(pairs.GENERATED[name]())
            dim = len(c)

            def br(x, j):
                """[x, e_j] for x a {index: coef} vector."""
                out = {}
                for i, a in x.items():
                    for k, v in c[i][j].items():
                        out[k] = out.get(k, 0) + a * v
                return out
            for i in range(dim):
                self.assertEqual(c[i][i], {})
                for j in range(dim):
                    self.assertEqual(c[i][j],
                                     {k: -v for k, v in c[j][i].items()})
                    for k in range(dim):
                        total = {}
                        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
                            for t, v in br(c[x][y], z).items():
                                total[t] = total.get(t, 0) + v
                        self.assertTrue(all(v == 0 for v in total.values()),
                                        (name, i, j, k))

    def test_subalgebra_closed_and_shapes(self):
        expect = {"heis5_lag": (5, 2), "sl3_borel": (8, 5)}
        for name, (dim, m) in expect.items():
            spec = pairs.GENERATED[name]()
            self.assertEqual((spec["dimL"], len(spec["aIndices"])), (dim, m))
            a = set(spec["aIndices"])
            c = self.table(spec)
            for i in a:
                for j in a:
                    self.assertLessEqual(set(c[i][j]), a)

    def test_bytes_are_deterministic_and_referenced(self):
        with open(run.REFERENCE) as f:
            ref = json.load(f)
        for name, make in pairs.GENERATED.items():
            data = pairs.spec_bytes(make())
            self.assertEqual(data, pairs.spec_bytes(make()))
            self.assertEqual(run.sha256(data), ref["pairs"][name])


class Judge(unittest.TestCase):

    REPORT = json.dumps({"checks": [{"name": "a", "status": "pass"}],
                         "artifacts": {"x": [1, 2]}}).encode()

    def test_reference_digest_passes(self):
        digest = run.artifacts_digest(json.loads(self.REPORT))
        self.assertTrue(run.judge(0, self.REPORT, digest)[0])

    def test_wrong_digest_is_a_failure(self):
        self.assertFalse(run.judge(0, self.REPORT, run.sha256(b"x"))[0])

    def test_exit_code_and_failed_check_are_failures(self):
        digest = run.artifacts_digest(json.loads(self.REPORT))
        self.assertFalse(run.judge(1, self.REPORT, digest)[0])
        self.assertFalse(run.judge(None, self.REPORT, digest)[0])
        bad = json.dumps({"checks": [{"name": "a", "status": "fail"}],
                          "artifacts": {"x": [1, 2]}}).encode()
        self.assertFalse(run.judge(0, bad, digest)[0])
        self.assertFalse(run.judge(0, b"", digest)[0])
        self.assertFalse(run.judge(0, b"[]", digest)[0])
        self.assertFalse(run.judge(0, b'{"checks": []}', digest)[0])


class SpawnerRss(unittest.TestCase):

    def test_max_rss_is_the_commands_own(self):
        ballast = bytearray(64 * 1024 * 1024)
        for i in range(0, len(ballast), 4096):
            ballast[i] = 1
        spawner = run.Spawner()
        try:
            wall, cpu, rss, code = spawner.run(
                [sys.executable, "-c", "pass"], dict(os.environ),
                os.devnull, os.devnull, 60)
        finally:
            spawner.close()
        self.assertEqual(code, 0)
        self.assertLess(rss, 48)
        self.assertGreater(wall, 0)
        del ballast


class Declaration(unittest.TestCase):
    """BENCHMARK.json agrees with the workloads and metrics defined here."""

    def setUp(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            self.bench = json.load(f)

    def test_workloads(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         list(run.WORKLOADS))
        for w in self.bench["workloads"]:
            self.assertEqual(w["why"], run.WORKLOADS[w["name"]].why)

    def test_per_layer(self):
        self.assertEqual(self.bench["per_layer"],
                         [{k: m[k] for k in ("name", "unit", "better")}
                          for m in layers.PER_LAYER])

    def test_every_reference_invocation_is_a_workload_step(self):
        with open(run.REFERENCE) as f:
            ref = json.load(f)
        want = {"%s/%s/%s" % (w.name, p, s)
                for w in run.WORKLOADS.values() for p in w.pair_names
                for s in ("validate",) + w.suites}
        self.assertEqual(set(ref["invocations"]), want)


if __name__ == "__main__":
    unittest.main()
