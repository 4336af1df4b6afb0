"""Pipeline driver: parse a Lie-pair spec, run verification suites, and
emit a machine-readable report plus a short text summary.

Every check records whether it was exhaustive at the declared depth
bounds or not: a random sample records its seed, and a check on every
N-th item of its input list records `stride: N`.  Failures carry a
witness.  Exit code 0 means every selected check passed, 1 means at
least one check failed, 2 means the configuration or input file was
unusable.
"""

import argparse
from fractions import Fraction
from functools import cache, cached_property
import itertools
import json
import os
import random
import sys

from .cohomology import (
    d_cohomology, d_complex_keys, induced_table, t_cohomology,
    t_complex_keys, t_cup,
)
from .contraction import contraction, perturbed
from .core import Vec, mi_unit, mi_weight, mi_zero, susp_sign
from .dpoly import DPoly
from .liepair import (
    Connection, PairError, SpecError, a_form_algebra, d_a_bott,
    parse_pair_spec,
)
from .matched import MatchedD, MatchedT, is_matched
from .pbw import d_a_u
from .tpoly import TPoly
from .transfer import Transfer, small_sdeg
from .uniqueness import Uniqueness
from .weyl import Weyl

SUITES = ["validate", "fedosov", "contraction", "transfer-t",
          "transfer-d", "matched", "uniqueness", "cohomology", "all"]


def frac_str(c):
    return str(Fraction(c))


def vec_json(v):
    return sorted((repr(k), frac_str(c)) for k, c in v.items())


class Runner:

    def __init__(self):
        self.checks = []
        self.artifacts = {}

    def add(self, name, ok, witness=None, count=0, seed=None, stride=None):
        """A check is exhaustive exactly when it has neither a sampling
        seed nor a stride."""
        entry = {"name": name, "status": "pass" if ok else "fail",
                 "count": count,
                 "exhaustive": seed is None and stride is None}
        if seed is not None:
            entry["seed"] = seed
        if stride is not None:
            entry["stride"] = stride
        if witness is not None:
            entry["witness"] = witness
        self.checks.append(entry)

    def all_zero(self, name, pairs, seed=None, stride=None):
        """pairs: iterable of (label, defect Vec); pass iff all zero."""
        count = 0
        for label, defect in pairs:
            count += 1
            if not defect.is_zero():
                self.add(name, False,
                         witness={"input": repr(label),
                                  "defect": vec_json(defect)},
                         count=count, seed=seed, stride=stride)
                return False
        self.add(name, True, count=count, seed=seed, stride=stride)
        return True

    def ok(self):
        return all(c["status"] == "pass" for c in self.checks)


class Pipeline:
    """The resolution objects the suites share for one pair: one Weyl,
    solved once, under both sides.  Each is built at most once, when a
    suite first asks for it."""

    def __init__(self, sp, conn, trunc):
        self.sp, self.conn, self.trunc = sp, conn, trunc

    @cached_property
    def W(self):
        return Weyl(self.sp, self.conn, self.trunc)

    @cached_property
    def T(self):
        return TPoly(self.W)

    @cached_property
    def D(self):
        return DPoly(self.W)

    @cached_property
    def pt(self):
        return perturbed(self.T)

    @cached_property
    def pd(self):
        return perturbed(self.D)

    @cached_property
    def tr(self):
        return Transfer(self.pt, self.T.schouten)

    @cached_property
    def td(self):
        return Transfer(self.pd, self.D.gerst)


def run_validate(run, pair, sp, conn):
    run.all_zero("validate:connection-extends-canonical-action",
                 conn.bott_defects())
    run.all_zero("validate:connection-torsion-free", conn.torsions())
    run.artifacts["pair"] = {"name": pair.name, "dimL": pair.dim,
                             "dimA": pair.dim_a,
                             "complement-closed": is_matched(sp)}


def run_fedosov(run, p):
    sp, trunc, W = p.sp, p.trunc, p.W
    X = W.solve()
    run.all_zero("fedosov:homotopy-normalization",
                 ((k, W.h(X[k])) for k in range(sp.r)))
    low = Vec((((k, w), c) for k in range(sp.r)
               for w, c in X[k].items() if mi_weight(w[-1]) < 2))
    run.all_zero("fedosov:correction-weight-at-least-two", [("X", low)])
    words = list(W.alg.words(max_weight=trunc - 1))
    run.all_zero(
        "fedosov:differential-squares-to-zero",
        ((w, W.q_op(W.q_op(Vec({w: 1})), trunc - 1)) for w in words))
    run.artifacts["fedosov"] = {
        "correction": [vec_json(X[k]) for k in range(sp.r)]}


def run_contraction(run, p):
    sp, trunc, T, D, pt, pd = p.sp, p.trunc, p.T, p.D, p.pt, p.pd
    ct, cd = contraction(T), contraction(D)
    zero = mi_zero(sp.r)
    # with A = L (r = 0) the only slot multi-index is the empty one
    e0 = mi_unit(sp.r, 0) if sp.r else zero
    tkeys, dkeys = t_complex_keys(sp), d_complex_keys(sp)
    # raw contraction identities, exhaustive at the depth bounds
    for side, c, keys in (("t", ct, tkeys), ("d", cd, dkeys)):
        run.all_zero("contraction:%s:projection" % side,
                     ((k, c.defect_projection(Vec({k: 1}))) for k in keys))
    run.all_zero("contraction:t:homotopy",
                 ((w, ct.defect_homotopy(Vec({w: 1})))
                  for w in T.alg.words(max_weight=trunc - 1)))
    # hh: h raises the weight by one, so over trunc - 2 the cap empties it
    run.all_zero("contraction:t:side-conditions", itertools.chain(
        ((w, ct.defect_side_hh(Vec({w: 1})))
         for w in T.alg.words(max_weight=trunc - 2)),
        ((k, ct.defect_side_ht(Vec({k: 1}))) for k in tkeys)))
    # perturbed contraction identities, exact within the weight window
    for side, c, keys in (("t", pt, tkeys), ("d", pd, dkeys)):
        run.all_zero("contraction:%s:perturbed-projection" % side,
                     ((k, c.defect_projection(Vec({k: 1}))) for k in keys))
    run.all_zero(
        "contraction:t:perturbed-homotopy",
        ((w, T.restrict_weight(pt.defect_homotopy(Vec({w: 1}), trunc - 3),
                               trunc - 3))
         for w in list(T.alg.words(max_weight=1))[::3]), stride=3)
    run.all_zero(
        "contraction:d:perturbed-homotopy",
        (((w, slots), D.restrict_weight(
            pd.defect_homotopy(Vec({(w, slots): 1}), trunc - 3), trunc - 3))
         for w, slots in list(itertools.product(
             D.W.alg.words(max_weight=1), ((zero,), (e0, zero))))[::3]),
        stride=3)
    run.all_zero(
        "contraction:t:perturbed-inclusion-chain-map",
        ((k, T.restrict_weight(pt.defect_chain_tau(Vec({k: 1})),
                               trunc - 2))
         for k in tkeys))
    run.all_zero(
        "contraction:d:perturbed-inclusion-chain-map",
        ((k, D.restrict_weight(pd.defect_chain_tau(Vec({k: 1})),
                               trunc - 2))
         for k in d_complex_keys(sp, max_arity=1)))
    run.all_zero(
        "contraction:t:perturbed-projection-chain-map",
        ((w, pt.defect_chain_sigma(Vec({w: 1})))
         for w in list(T.alg.words(max_weight=1))[::3]), stride=3)
    run.all_zero(
        "contraction:d:perturbed-projection-chain-map",
        ((w, pd.defect_chain_sigma(Vec({(w, (e0,)): 1})))
         for w in list(D.W.alg.words(max_weight=1))[::3]), stride=3)
    # transferred small differentials agree with the direct ones, exactly
    run.all_zero(
        "contraction:t:small-differential-is-flat-one",
        ((k, pt.d_small(Vec({k: 1})) - d_a_bott(sp, Vec({k: 1})))
         for k in tkeys))
    run.all_zero(
        "contraction:d:small-differential-is-flat-one",
        ((k, pd.d_small(Vec({k: 1}))
          - d_a_u(D.P, Vec({k: 1})) - D.d_h(Vec({k: 1})))
         for k in dkeys))


def run_transfer_t(run, p, arity, seed):
    sp, tr = p.sp, p.tr
    keys = t_complex_keys(sp)
    run.all_zero("transfer-t:unary-bracket-is-differential",
                 ((k, tr.lam_keys((k,)) - d_a_bott(sp, Vec({k: 1})))
                  for k in keys))
    for n in range(1, min(arity, 3) + 1):
        run.all_zero(
            "transfer-t:jacobi-arity-%d" % n,
            ((tup, tr.jacobi_defect(tup))
             for tup in itertools.product(keys, repeat=n)))
    rng = random.Random(seed)
    for n in range(4, arity + 1):
        sample = [tuple(keys[rng.randrange(len(keys))] for _ in range(n))
                  for _ in range(40)]
        run.all_zero("transfer-t:jacobi-arity-%d" % n,
                     ((tup, tr.jacobi_defect(tup)) for tup in sample),
                     seed=seed)
    table = {}
    for k1 in keys:
        for k2 in keys:
            val = tr.lam_keys((k1, k2))
            if not val.is_zero():
                table[repr((k1, k2))] = vec_json(val)
    run.artifacts["transfer-t"] = {"binary-table-nonzero": table}


def run_transfer_d(run, p, arity, seed):
    td = p.td
    keys = d_complex_keys(p.sp)
    run.all_zero("transfer-d:jacobi-arity-1",
                 (((k,), td.jacobi_defect((k,))) for k in keys))
    rng = random.Random(seed)
    for n in range(2, min(arity, 3) + 1):
        sample = [tuple(keys[rng.randrange(len(keys))] for _ in range(n))
                  for _ in range(20)]
        run.all_zero("transfer-d:jacobi-arity-%d" % n,
                     ((tup, td.jacobi_defect(tup)) for tup in sample),
                     seed=seed)


def run_matched(run, p, seed):
    sp = p.sp
    matched = is_matched(sp)
    run.artifacts["matched"] = {"complement-closed": matched}
    if not matched:
        run.add("matched:not-applicable", True, count=0)
        return
    T, pt, tr, td = p.T, p.pt, p.tr, p.td
    mt = MatchedT(sp)
    md = MatchedD(p.D.P)
    tkeys = t_complex_keys(sp)
    dkeys = d_complex_keys(sp)

    # the transferred bracket is the suspended one: the direct bracket
    # with k1 signed by its shifted degree
    run.all_zero(
        "matched:binary-bracket-equals-direct-schouten",
        (((k1, k2), tr.lam_keys((k1, k2))
          - mt.bracket(susp_sign(Vec({k1: 1}), small_sdeg), Vec({k2: 1})))
         for k1 in tkeys for k2 in tkeys))
    run.all_zero(
        "matched:binary-bracket-equals-direct-gerstenhaber",
        (((k1, k2), td.lam_keys((k1, k2))
          - md.gerst(susp_sign(Vec({k1: 1}), small_sdeg), Vec({k2: 1})))
         for k1, k2 in list(itertools.product(dkeys, repeat=2))[::4]),
        stride=4)
    rng = random.Random(seed)
    sample = [tuple(tkeys[rng.randrange(len(tkeys))] for _ in range(3))
              for _ in range(40)]
    run.all_zero("matched:ternary-bracket-vanishes",
                 ((tup, tr.lam_keys(tup)) for tup in sample),
                 seed=seed)
    fa = a_form_algebra(sp.pair)
    fws = list(fa.words(max_weight=0))
    defects = []
    for fw1 in fws:
        for fw2 in fws:
            prod = fa.mul(Vec({fw1: 1}), Vec({fw2: 1}))
            for b in range(sp.r):
                lhs = pt.tau(Vec(((fw3, (b,)), c)
                                 for fw3, c in prod.items()))
                rhs = T.alg.mul(pt.tau(Vec({(fw1, ()): 1})),
                                pt.tau(Vec({(fw2, (b,)): 1})))
                defects.append(((fw1, fw2, b), lhs - rhs))
    run.all_zero("matched:inclusion-multiplicative", defects)


def second_choice(sp, conn):
    """A second admissible connection: perturb a diagonal B-direction
    coefficient, which keeps torsion-freeness and the canonical A-part."""
    gamma = [[list(row) for row in bl] for bl in conn.gamma]
    gamma[sp.m + 0][0][0] += 1
    return Connection(sp, gamma)


def run_uniqueness(run, p):
    sp, trunc = p.sp, p.trunc
    if not sp.r:
        # with A = L there is no complement to choose: one admissible choice
        run.add("uniqueness:not-applicable", True, count=0)
        return
    p2 = Pipeline(sp, second_choice(sp, p.conn), trunc)
    uni = Uniqueness(p.D, p2.D)
    run.all_zero(
        "uniqueness:composition-is-identity",
        ((k, uni.composition(p.pd, p2.pd, Vec({k: 1}))
          - uni.small_relabel(Vec({k: 1})))
         for k in d_complex_keys(sp)))
    run.all_zero(
        "uniqueness:transport-intertwines-differentials",
        ((w, uni.W2.restrict_weight(uni.scalar_chain_defect(Vec({w: 1})),
                                    trunc - 1))
         for w in uni.W1.alg.words(max_weight=2)))


def run_cohomology(run, p):
    sp, T, pt, tr = p.sp, p.T, p.pt, p.tr
    coh = t_cohomology(sp)
    run.artifacts["cohomology"] = {
        "polyvector-dims": {str(n): d for n, d in coh.dims().items()}}
    lam2 = lambda x, y: tr.lam((x, y))
    cup = t_cup(T, pt)
    cup_table = cache(lambda a, b: induced_table(coh, cup, a, b, a + b + 1))
    tables = {}
    defects = []
    for n1 in coh.degrees:
        for n2 in coh.degrees:
            if n1 + n2 in coh.degrees:
                tab = induced_table(coh, lam2, n1, n2, n1 + n2)
                for (i, j), v in tab.items():
                    if any(v):
                        tables["bracket(%d,%d,%d,%d)" % (n1, i, n2, j)] \
                            = [frac_str(c) for c in v]
            if n1 + n2 + 1 in coh.degrees:
                tab, back = cup_table(n1, n2), cup_table(n2, n1)
                s = -1 if ((n1 + 1) * (n2 + 1)) % 2 else 1
                for (i, j), v in tab.items():
                    if any(v):
                        tables["cup(%d,%d,%d,%d)" % (n1, i, n2, j)] \
                            = [frac_str(c) for c in v]
                    diff = [a - s * b for a, b in zip(v, back[(j, i)])]
                    defects.append((((n1, i), (n2, j)),
                                    Vec({t: c for t, c in
                                         enumerate(diff) if c})))
    run.all_zero("cohomology:cup-graded-commutative", defects)
    run.artifacts["cohomology"]["tables-nonzero"] = tables
    dcoh = d_cohomology(sp, p.pd.d_small, max_weight=2)
    run.artifacts["cohomology"]["polydifferential-window-dims"] = {
        str(n): d for n, d in dcoh.dims().items()}


def _parser(prog):
    parser = argparse.ArgumentParser(
        prog=prog, description="Exact verification pipelines for "
        "finite-dimensional Lie pairs.")
    commands = parser.add_subparsers(dest="command", required=True,
                                     metavar="COMMAND")
    cmd = commands.add_parser(
        "check", help="run verification suites on one Lie-pair spec file",
        description="Run verification suites on one Lie-pair spec file.")
    cmd.add_argument("--pair", dest="pair_path", required=True,
                     metavar="PATH", help="the pair spec (JSON); required")
    cmd.add_argument("--trunc", type=int, default=5,
                     help="series truncation weight (default: %(default)s)")
    cmd.add_argument("--arity", type=int, default=3,
                     help="maximal bracket arity checked "
                     "(default: %(default)s)")
    cmd.add_argument("--suite", default="all", choices=SUITES,
                     metavar="SUITE", help="one of " + ", ".join(SUITES)
                     + " (default: %(default)s)")
    cmd.add_argument("--seed", type=int, default=0,
                     help="seed for sampled (non-exhaustive) checks "
                     "(default: %(default)s)")
    cmd.add_argument("--out", dest="out_path", metavar="PATH",
                     help="write the report here (default: stdout)")
    return parser


def main(args=None, prog_name="liepairs"):
    """The `liepairs` command line; argument errors exit 2, as argparse
    does, like the configuration errors of `check`."""
    opts = _parser(prog_name).parse_args(args)
    try:
        check(opts.pair_path, opts.trunc, opts.arity, opts.suite,
              opts.seed, opts.out_path)
    except BrokenPipeError:
        # the report's reader went away (`liepairs check ... | head`):
        # exit 1 without a traceback, and send the flush at exit to
        # /dev/null so that it cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)


# perfbench/tracer.py calls main.main(args=..., prog_name=...)
main.main = main


def _refuse(message):
    print("error: " + message, file=sys.stderr)
    sys.exit(2)


def _unique_keys(items):
    """A JSON object as a dict; a key given twice is an error, where
    json.load would keep the last value."""
    obj = {}
    for k, v in items:
        if k in obj:
            raise ValueError("key %r is given twice in one object" % k)
        obj[k] = v
    return obj


def check(pair_path, trunc, arity, suite, seed, out_path):
    """Run verification suites on one Lie-pair spec file."""
    if arity < 1:
        _refuse("arity must be at least 1")
    if trunc < arity + 2:
        _refuse("trunc must be at least arity + 2")
    try:
        with open(pair_path, encoding="utf-8") as f:
            spec = json.load(f, object_pairs_hook=_unique_keys)
    except (OSError, ValueError, RecursionError) as e:
        # OSError covers a missing file and a directory; ValueError,
        # malformed JSON and a file that is not UTF-8; RecursionError,
        # JSON nested past the recursion limit
        _refuse("cannot read pair spec: %s" % e)
    if out_path:
        # fail before the suites run, not after; appending creates the
        # file if need be and leaves an existing one as it is
        try:
            with open(out_path, "a"):
                pass
        except OSError as e:
            _refuse("cannot write report: %s" % e)

    run = Runner()
    try:
        pair, sp, conn = parse_pair_spec(spec)
    except SpecError as e:
        _refuse("malformed pair spec: %s" % e)
    except PairError as e:
        run.add("validate:pair-structure", False,
                witness={"input": str(e)})
        _emit(run, spec.get("name") or pair_path, trunc, arity, suite,
              seed, out_path)
        sys.exit(1)
    run.add("validate:pair-structure", True, count=1)

    wanted = SUITES[:-1] if suite == "all" else [suite]
    p = Pipeline(sp, conn, trunc)
    if "validate" in wanted:
        run_validate(run, pair, sp, conn)
    if "fedosov" in wanted:
        run_fedosov(run, p)
    if "contraction" in wanted:
        run_contraction(run, p)
    if "transfer-t" in wanted:
        run_transfer_t(run, p, arity, seed)
    if "transfer-d" in wanted:
        run_transfer_d(run, p, arity, seed)
    if "matched" in wanted:
        run_matched(run, p, seed)
    if "uniqueness" in wanted:
        run_uniqueness(run, p)
    if "cohomology" in wanted:
        run_cohomology(run, p)

    _emit(run, pair.name or pair_path, trunc, arity, suite, seed,
          out_path)
    sys.exit(0 if run.ok() else 1)


def _emit(run, name, trunc, arity, suite, seed, out_path):
    report = {
        "schema": "v1",
        "pair": name,
        "config": {"trunc": trunc, "arity": arity, "suite": suite,
                   "seed": seed},
        "checks": run.checks,
        "artifacts": run.artifacts,
    }
    text = json.dumps(report, indent=2)
    if out_path:
        with open(out_path, "w") as f:
            f.write(text + "\n")
    else:
        # flushed here, so that a closed stdout fails inside main's handler
        print(text, flush=True)
    passed = sum(1 for c in run.checks if c["status"] == "pass")
    print("%s: %d/%d checks passed" % (name, passed, len(run.checks)),
          file=sys.stderr)
    for c in run.checks:
        if c["status"] != "pass":
            print("FAIL %s witness=%s" % (c["name"], c.get("witness")),
                  file=sys.stderr)


if __name__ == "__main__":
    main()
