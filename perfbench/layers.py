"""Per-layer metrics, derived from the spans of a traced pass.

Each metric names the end-to-end metric it should move and the
workloads on which it should move it.  A layer is a liepairs module;
`self_s` is a span's duration minus the time its child spans cover, so
time in counted-only kernels stays with the enclosing span.
`cli.<suite>.s` is the total time of that suite's top-level spans, and
`cli.covered_frac` the lowest share, over the traced invocations, of
the interval after import that top-level spans (the suites, the pair
parse and the report emission) cover.
"""

from collections import Counter, defaultdict

ALL = ("dim3-all", "wide-cohomology", "rank3-fedosov")
DIM3, WIDE, RANK3 = ALL

SUITES = ("validate", "fedosov", "contraction", "transfer-t", "transfer-d",
          "matched", "uniqueness", "cohomology")


def _m(name, unit, better, moves, on):
    return {"name": name, "unit": unit, "better": better, "moves": moves,
            "on": list(on)}


PER_LAYER = (
    [_m("cli.%s.s" % s, "s", "lower", "wall_s, cpu_s", ALL)
     for s in SUITES]
    + [
        _m("cli.covered_frac", "ratio", "higher", "wall_s", ALL),
        _m("weyl.init.calls", "count", "lower", "cpu_s", (RANK3,)),
        _m("weyl.solve.self_s", "s", "lower", "cpu_s", (RANK3,)),
        _m("weyl.q_op.calls", "count", "lower", "cpu_s", (RANK3,)),
        _m("weyl.q_op.self_s", "s", "lower", "cpu_s", (RANK3,)),
        _m("weyl.h.calls", "count", "lower", "cpu_s", (RANK3,)),
        _m("core.derive.calls", "count", "lower", "cpu_s", (RANK3, DIM3)),
        _m("core.mul.calls", "count", "lower", "cpu_s", (RANK3, DIM3)),
        _m("core.mul_words.calls", "count", "lower", "cpu_s",
           (RANK3, DIM3)),
        _m("core.vec.created", "count", "lower", "cpu_s", (RANK3, DIM3)),
        _m("core.rref.calls", "count", "lower", "cpu_s", (WIDE,)),
        _m("core.rref.self_s", "s", "lower", "cpu_s", (WIDE,)),
        _m("pbw.init.calls", "count", "lower", "cpu_s", (WIDE, DIM3)),
        _m("pbw.init.self_s", "s", "lower", "cpu_s", (WIDE, DIM3)),
        _m("pbw.pbw_inv.calls", "count", "lower", "cpu_s", (WIDE, DIM3)),
        _m("pbw.pbw_inv.self_s", "s", "lower", "cpu_s", (WIDE, DIM3)),
        _m("pbw.u_reduce.calls", "count", "lower", "cpu_s", (WIDE, DIM3)),
        _m("tpoly.init.calls", "count", "lower", "cpu_s", (DIM3,)),
        _m("tpoly.init.self_s", "s", "lower", "cpu_s", (DIM3,)),
        _m("tpoly.schouten.calls", "count", "lower", "cpu_s", (DIM3,)),
        _m("tpoly.schouten.self_s", "s", "lower", "cpu_s", (DIM3,)),
        _m("dpoly.init.calls", "count", "lower", "cpu_s", (DIM3,)),
        _m("dpoly.init.self_s", "s", "lower", "cpu_s", (DIM3,)),
        _m("dpoly.star.calls", "count", "lower", "cpu_s", (DIM3,)),
        _m("dpoly.star.self_s", "s", "lower", "cpu_s", (DIM3,)),
        _m("dpoly.rho.self_s", "s", "lower", "cpu_s", (WIDE, DIM3)),
        _m("dpoly.d_h.self_s", "s", "lower", "cpu_s", (WIDE, DIM3)),
        _m("contraction.perturb.calls", "count", "lower", "cpu_s",
           (WIDE,)),
        _m("contraction.tau.calls", "count", "lower", "cpu_s", (WIDE,)),
        _m("contraction.tau.self_s", "s", "lower", "cpu_s", (WIDE,)),
        _m("contraction.tau.repeat_ratio", "ratio", "lower",
           "cpu_s, peak_rss_mb", (WIDE,)),
        _m("contraction.d_small.calls", "count", "lower", "cpu_s",
           (WIDE,)),
        _m("contraction.d_small.self_s", "s", "lower", "cpu_s",
           (WIDE, DIM3)),
        _m("contraction.d_small.repeat_ratio", "ratio", "lower",
           "cpu_s, peak_rss_mb", (WIDE,)),
        _m("contraction.h.self_s", "s", "lower", "cpu_s", (WIDE,)),
        _m("transfer.lam_keys.calls", "count", "lower", "cpu_s", (DIM3,)),
        _m("transfer.lam_keys.hit_ratio", "ratio", "higher", "cpu_s",
           (DIM3,)),
        _m("transfer.lam_keys.arity2.s", "s", "lower", "cpu_s", (DIM3,)),
        _m("transfer.lam_keys.arity3.s", "s", "lower", "cpu_s", (DIM3,)),
        _m("transfer.jacobi_defect.calls", "count", "lower", "cpu_s",
           (DIM3,)),
        _m("transfer.jacobi_defect.self_s", "s", "lower", "cpu_s",
           (DIM3,)),
        _m("cohomology.init.calls", "count", "lower", "cpu_s",
           (WIDE, DIM3)),
        _m("cohomology.init.self_s", "s", "lower", "cpu_s", (WIDE, DIM3)),
        _m("cohomology.keys", "count", "lower", "cpu_s", (WIDE, DIM3)),
        _m("cohomology.induced_table.self_s", "s", "lower", "cpu_s",
           (WIDE, DIM3)),
        _m("liepair.parse_pair_spec.self_s", "s", "lower", "setup_s",
           ALL),
        _m("liepair.ce_differential.calls", "count", "lower", "cpu_s",
           (WIDE,)),
        _m("liepair.ce_differential.self_s", "s", "lower", "cpu_s",
           (WIDE,)),
        _m("matched.bracket.self_s", "s", "lower", "none (oracle)",
           (DIM3,)),
        _m("matched.gerst.self_s", "s", "lower", "none (oracle)", (DIM3,)),
        _m("uniqueness.init.self_s", "s", "lower", "cpu_s", (DIM3,)),
        _m("uniqueness.composition.self_s", "s", "lower", "cpu_s",
           (DIM3,)),
        _m("uniqueness.scalar_chain_defect.self_s", "s", "lower", "cpu_s",
           (DIM3,)),
        _m("trace.overhead", "ratio", "lower", "none (tracing cost)",
           ALL),
    ])


class SpanStats:
    """Calls, total and self time, and tags per span name, accumulated
    over the invocations of one traced pass."""

    def __init__(self):
        self.calls = Counter()
        self.total_s = Counter()
        self.self_s = Counter()
        self.tag_sum = Counter()
        self.distinct_tags = Counter()
        self.counts = Counter()
        self.coverage = []

    def add(self, meta, cols):
        """Add one invocation: meta and columns as tracer.read_spans
        returns them."""
        name_col, start, end, parent, tag = cols
        names = meta["names"]
        child = [0.0] * len(start)
        for i, p in enumerate(parent):
            if p >= 0:
                child[p] += end[i] - start[i]
        tags = defaultdict(set)
        covered = 0.0
        for i, nid in enumerate(name_col):
            name = names[nid]
            dur = end[i] - start[i]
            self.calls[name] += 1
            self.total_s[name] += dur
            self.self_s[name] += dur - child[i]
            self.tag_sum[name] += tag[i]
            tags[name].add(tag[i])
            if parent[i] < 0:
                covered += dur
        for name, seen in tags.items():
            self.distinct_tags[name] += len(seen)
        self.counts.update(meta["counts"])
        self.coverage.append(covered / (meta["t1"] - meta["t0"]))

    def repeat_ratio(self, name):
        """1 - distinct inputs / calls; inputs are distinct within one
        invocation."""
        calls = self.calls[name]
        return 1 - self.distinct_tags[name] / calls if calls else 0.0

    def lam_keys(self):
        return [n for n in self.calls if n.startswith("transfer.lam_keys.")]

    def value(self, metric):
        """The value of one PER_LAYER metric other than trace.overhead."""
        if metric in self.counts:
            return self.counts[metric]
        if metric == "cli.covered_frac":
            return min(self.coverage, default=0.0)
        if metric == "cohomology.keys":
            return self.tag_sum["cohomology.init"]
        if metric == "transfer.lam_keys.calls":
            return sum(self.calls[n] for n in self.lam_keys())
        if metric == "transfer.lam_keys.hit_ratio":
            calls = sum(self.calls[n] for n in self.lam_keys())
            hits = sum(self.tag_sum[n] for n in self.lam_keys())
            return hits / calls if calls else 0.0
        base, _, field = metric.rpartition(".")
        if field == "calls":
            return self.calls[base]
        if field == "self_s":
            return self.self_s[base]
        if field == "s":
            return self.total_s[base]
        if field == "repeat_ratio":
            return self.repeat_ratio(base)
        raise KeyError(metric)
