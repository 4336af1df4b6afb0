"""Run one `liepairs check` invocation with spans around each layer.

    python3 perfbench/tracer.py SRC_DIR OUT_PREFIX INVOCATION_ID check ...

The liepairs package is imported from SRC_DIR, its public entry points
are wrapped (class methods on the class, module functions in every
liepairs module that imported them by name), and the CLI runs with the
remaining arguments.  Spans are kept in memory as (name, start, end,
parent) columns, plus one integer tag per span, and written out when
the invocation ends: OUT_PREFIX.json holds the name table, the counts,
the invocation id and its traced interval; OUT_PREFIX.bin holds the
columns.  The invocation id is the same for every span of the file.

A tag is a fingerprint of the input for spans whose repeat ratio is
measured, the cache-hit flag for `transfer.lam_keys`, the number of
complex keys for `cohomology.init`, and 0 otherwise.
Hot kernels (Vec construction, word multiplication, derivations, PBW
reduction, the Weyl homotopy) are counted, not spanned: their time
stays in the self time of the enclosing span.
"""

from array import array
import importlib
import json
import sys
import time

# (module, attribute, span name); "Class.method" patches the class.
SPANS = [
    ("cli", "run_validate", "cli.validate"),
    ("cli", "run_fedosov", "cli.fedosov"),
    ("cli", "run_contraction", "cli.contraction"),
    ("cli", "run_transfer_t", "cli.transfer-t"),
    ("cli", "run_transfer_d", "cli.transfer-d"),
    ("cli", "run_matched", "cli.matched"),
    ("cli", "run_uniqueness", "cli.uniqueness"),
    ("cli", "run_cohomology", "cli.cohomology"),
    ("cli", "_emit", "cli.emit"),
    ("weyl", "Weyl.__init__", "weyl.init"),
    ("weyl", "Weyl.solve", "weyl.solve"),
    ("weyl", "Weyl.q_op", "weyl.q_op"),
    ("core", "rref", "core.rref"),
    ("pbw", "Pbw.__init__", "pbw.init"),
    ("pbw", "Pbw.pbw_inv", "pbw.pbw_inv"),
    ("tpoly", "TPoly.__init__", "tpoly.init"),
    ("tpoly", "TPoly.schouten", "tpoly.schouten"),
    ("dpoly", "DPoly.__init__", "dpoly.init"),
    ("dpoly", "DPoly.star", "dpoly.star"),
    ("dpoly", "DPoly.rho", "dpoly.rho"),
    ("dpoly", "DPoly.d_h", "dpoly.d_h"),
    ("transfer", "Transfer.jacobi_defect", "transfer.jacobi_defect"),
    ("cohomology", "induced_table", "cohomology.induced_table"),
    ("liepair", "parse_pair_spec", "liepair.parse_pair_spec"),
    ("liepair", "ce_differential", "liepair.ce_differential"),
    ("matched", "MatchedT.bracket", "matched.bracket"),
    ("matched", "MatchedD.gerst", "matched.gerst"),
    ("uniqueness", "Uniqueness.__init__", "uniqueness.init"),
    ("uniqueness", "Uniqueness.composition", "uniqueness.composition"),
    ("uniqueness", "Uniqueness.scalar_chain_defect",
     "uniqueness.scalar_chain_defect"),
]

COUNTS = [
    ("core", "Vec.__init__", "core.vec.created"),
    ("core", "WordAlgebra.derive", "core.derive.calls"),
    ("core", "WordAlgebra.mul", "core.mul.calls"),
    ("core", "WordAlgebra.mul_words", "core.mul_words.calls"),
    ("pbw", "Pbw.u_reduce", "pbw.u_reduce.calls"),
    ("weyl", "Weyl.h", "weyl.h.calls"),
]


def vec_fingerprint(x):
    return hash(frozenset(x.items()))


class Recorder:
    """Span columns and counters for one traced invocation."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._ids = {}
        self.name_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.parent_col = array("i")
        self.tag_col = array("q")
        self.stack = [-1]
        self.counts = {}

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, fn, name=None, name_of=None, tag_of=None, after=None):
        """Wrap fn so each call records a span.  name_of(args) picks the
        span name per call; tag_of(args) gives its tag; after(args,
        result) may rewrite the result."""
        fixed = None if name is None else self.name_id(name)
        clock = self.clock
        name_col, start_col = self.name_col, self.start_col
        end_col, parent_col = self.end_col, self.parent_col
        tag_col, stack = self.tag_col, self.stack

        def wrapper(*args, **kwargs):
            i = len(start_col)
            name_col.append(fixed if name_of is None
                            else self.name_id(name_of(args)))
            parent_col.append(stack[-1])
            tag_col.append(0 if tag_of is None else tag_of(args))
            end_col.append(0.0)
            stack.append(i)
            start_col.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end_col[i] = clock()
                stack.pop()
            return out if after is None else after(args, out)
        return wrapper

    def count(self, fn, name):
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def write(self, prefix, invocation, t0, t1):
        with open(prefix + ".bin", "wb") as f:
            for col in (self.name_col, self.start_col, self.end_col,
                        self.parent_col, self.tag_col):
                col.tofile(f)
        meta = {"invocation": invocation, "t0": t0, "t1": t1,
                "names": self.names, "n": len(self.start_col),
                "counts": {k: v[0] for k, v in sorted(self.counts.items())}}
        with open(prefix + ".json", "w") as f:
            json.dump(meta, f)


def read_spans(prefix):
    """(meta, columns) as written by Recorder.write."""
    with open(prefix + ".json") as f:
        meta = json.load(f)
    n = meta["n"]
    cols = []
    with open(prefix + ".bin", "rb") as f:
        for code in ("i", "d", "d", "i", "q"):
            col = array(code)
            col.fromfile(f, n)
            cols.append(col)
    return meta, cols


def replace_everywhere(package, orig, new):
    """Rebind every module-level name in the package that is orig."""
    for modname, mod in list(sys.modules.items()):
        if modname == package or modname.startswith(package + "."):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, new)


def patch(package, modname, attr, make):
    mod = importlib.import_module(package + "." + modname)
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name)
        setattr(cls, meth, make(cls.__dict__[meth]))
    else:
        orig = getattr(mod, attr)
        replace_everywhere(package, orig, make(orig))


def install(rec, package="liepairs"):
    """Wrap the listed entry points of an imported liepairs package."""
    importlib.import_module(package + ".cli")
    for modname, attr, name in SPANS:
        patch(package, modname, attr,
              lambda fn, name=name: rec.span(fn, name))
    for modname, attr, name in COUNTS:
        patch(package, modname, attr,
              lambda fn, name=name: rec.count(fn, name))

    coh = importlib.import_module(package + ".cohomology")
    coh.Cohomology.__init__ = rec.span(coh.Cohomology.__init__,
                                       "cohomology.init",
                                       tag_of=lambda a: len(a[1]))

    tr = importlib.import_module(package + ".transfer")
    tr.Transfer.lam_keys = rec.span(
        tr.Transfer.lam_keys,
        name_of=lambda a: "transfer.lam_keys.arity%d" % len(a[1]),
        tag_of=lambda a: int(a[1] in a[0]._lam_cache))

    con = importlib.import_module(package + ".contraction")

    def trace_perturbed(args, out):
        out.tau = rec.span(out.tau, "contraction.tau",
                           tag_of=lambda a: vec_fingerprint(a[0]))
        out.d_small = rec.span(out.d_small, "contraction.d_small",
                               tag_of=lambda a: vec_fingerprint(a[0]))
        out.h = rec.span(out.h, "contraction.h")
        return out
    con.Contraction.perturb = rec.span(
        con.Contraction.perturb, "contraction.perturb",
        after=trace_perturbed)


def main(argv):
    src, prefix, invocation = argv[1:4]
    sys.path.insert(0, src)
    rec = Recorder()
    install(rec)
    cli = importlib.import_module("liepairs.cli")
    t0 = rec.clock()
    try:
        cli.main.main(args=argv[4:], prog_name="liepairs")
    finally:
        rec.write(prefix, invocation, t0, rec.clock())


if __name__ == "__main__":
    main(sys.argv)
