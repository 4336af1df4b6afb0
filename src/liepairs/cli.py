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
from types import SimpleNamespace

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


# How far below the truncation each windowed check looks: its defects
# are kept up to weight trunc - n, or for the raw homotopy checks its
# input words are, so that h (or hh) of each stays under the cap.
WINDOWS = {
    "fedosov:differential-squares-to-zero": 1,
    "contraction:t:homotopy": 1,
    "contraction:t:side-conditions": 2,
    "contraction:t:perturbed-homotopy": 3,
    "contraction:d:perturbed-homotopy": 3,
    "contraction:t:perturbed-inclusion-chain-map": 2,
    "contraction:d:perturbed-inclusion-chain-map": 2,
    "uniqueness:transport-intertwines-differentials": 1,
}


class Runner:

    def __init__(self):
        self.checks = []
        self.artifacts = {}

    def add(self, name, ok, count, witness=None, seed=None, stride=None):
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

    def check(self, name, inputs, defect, stride=None, seed=None):
        """Evaluate defect (a Vec) on every stride-th item of the iterable
        inputs, on every item with no stride, and stop at the first
        nonzero one; the check passes when there is none.  Its count is
        the number of defects evaluated, and a failure's witness is the
        input that failed, with its defect."""
        count = 0
        for x in itertools.islice(inputs, 0, None, stride):
            count += 1
            d = defect(x)
            if not d.is_zero():
                self.add(name, False, count,
                         witness={"input": repr(x), "defect": vec_json(d)},
                         seed=seed, stride=stride)
                return
        self.add(name, True, count, seed=seed, stride=stride)

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


def on_basis(op):
    """The defect of a check whose input is a basis key: op on it."""
    return lambda key: op(Vec({key: 1}))


def sample(rng, keys, n, size):
    """size tuples of n keys each, drawn with rng one key at a time."""
    return [tuple(keys[rng.randrange(len(keys))] for _ in range(n))
            for _ in range(size)]


def run_validate(run, pair, sp, conn):
    run.check("validate:connection-extends-canonical-action",
              conn.bott_keys(), conn.bott_defect)
    run.check("validate:connection-torsion-free", conn.torsion_keys(),
              lambda uv: conn.torsion(*uv))
    run.artifacts["pair"] = {"name": pair.name, "dimL": pair.dim,
                             "dimA": pair.dim_a,
                             "complement-closed": is_matched(sp)}


def run_fedosov(run, p):
    sp, W = p.sp, p.W
    X = W.solve()
    run.check("fedosov:homotopy-normalization", range(sp.r),
              lambda k: W.h(X[k]))
    run.check("fedosov:correction-weight-at-least-two", ["X"],
              lambda _: Vec((((k, w), c) for k in range(sp.r)
                             for w, c in X[k].items()
                             if mi_weight(w[-1]) < 2)))
    name = "fedosov:differential-squares-to-zero"
    top = p.trunc - WINDOWS[name]
    run.check(name, W.alg.words(max_weight=top),
              on_basis(lambda x: W.q_op(W.q_op(x), top)))
    run.artifacts["fedosov"] = {
        "correction": [vec_json(X[k]) for k in range(sp.r)]}


def run_contraction(run, p):
    """The raw and the perturbed contraction identities.  A check that
    both sides have runs on the t-side and then on the d-side."""
    sp, T, D = p.sp, p.T, p.D
    zero = mi_zero(sp.r)
    # with A = L (r = 0) the only slot multi-index is the empty one
    e0 = mi_unit(sp.r, 0) if sp.r else zero
    t_low = list(T.alg.words(max_weight=1))
    d_low = list(D.W.alg.words(max_weight=1))
    tkeys = t_complex_keys(sp)
    # per side: the big complex, its raw and perturbed contractions, its
    # small keys (all, and of arity one), its words of weight <= 1 as big
    # keys (d-side: with one slot class, and with one or two for h) and
    # the direct small differential
    t = SimpleNamespace(big=T, raw=contraction(T), pc=p.pt, keys=tkeys,
                        keys1=tkeys, low=t_low, low_slots=t_low,
                        flat=lambda x: d_a_bott(sp, x))
    d = SimpleNamespace(
        big=D, raw=contraction(D), pc=p.pd, keys=d_complex_keys(sp),
        keys1=d_complex_keys(sp, max_arity=1),
        low=[(w, (e0,)) for w in d_low],
        low_slots=[(w, slots) for w in d_low
                   for slots in ((zero,), (e0, zero))],
        flat=lambda x: d_a_u(D.P, x) + D.d_h(x))
    sides = (("t", t), ("d", d))
    # raw contraction identities, exhaustive at the depth bounds
    for s, side in sides:
        run.check("contraction:%s:projection" % s, side.keys,
                  on_basis(side.raw.defect_projection))
    name = "contraction:t:homotopy"
    run.check(name, T.alg.words(max_weight=p.trunc - WINDOWS[name]),
              on_basis(t.raw.defect_homotopy))
    # hh on the words, h tau on the small keys
    name = "contraction:t:side-conditions"
    words = T.alg.words(max_weight=p.trunc - WINDOWS[name])
    small = set(tkeys)
    run.check(name, itertools.chain(words, tkeys),
              lambda x: (t.raw.defect_side_ht if x in small
                         else t.raw.defect_side_hh)(Vec({x: 1})))
    # perturbed contraction identities, exact within the weight window
    for s, side in sides:
        run.check("contraction:%s:perturbed-projection" % s, side.keys,
                  on_basis(side.pc.defect_projection))
    for s, side in sides:
        name = "contraction:%s:perturbed-homotopy" % s
        top = p.trunc - WINDOWS[name]
        run.check(name, side.low_slots, on_basis(
            lambda x: side.big.restrict_weight(
                side.pc.defect_homotopy(x, top), top)), stride=3)
    for s, side in sides:
        name = "contraction:%s:perturbed-inclusion-chain-map" % s
        top = p.trunc - WINDOWS[name]
        run.check(name, side.keys1, on_basis(
            lambda x: side.big.restrict_weight(side.pc.defect_chain_tau(x),
                                               top)))
    for s, side in sides:
        run.check("contraction:%s:perturbed-projection-chain-map" % s,
                  side.low, on_basis(side.pc.defect_chain_sigma), stride=3)
    # transferred small differentials agree with the direct ones, exactly
    for s, side in sides:
        run.check("contraction:%s:small-differential-is-flat-one" % s,
                  side.keys,
                  on_basis(lambda x: side.pc.d_small(x) - side.flat(x)))


def run_transfer_t(run, p, arity, seed):
    sp, tr = p.sp, p.tr
    keys = t_complex_keys(sp)
    run.check("transfer-t:unary-bracket-is-differential", keys,
              lambda k: tr.lam_keys((k,)) - d_a_bott(sp, Vec({k: 1})))
    for n in range(1, min(arity, 3) + 1):
        run.check("transfer-t:jacobi-arity-%d" % n,
                  itertools.product(keys, repeat=n), tr.jacobi_defect)
    rng = random.Random(seed)
    for n in range(4, arity + 1):
        run.check("transfer-t:jacobi-arity-%d" % n, sample(rng, keys, n, 40),
                  tr.jacobi_defect, seed=seed)
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
    run.check("transfer-d:jacobi-arity-1", [(k,) for k in keys],
              td.jacobi_defect)
    rng = random.Random(seed)
    for n in range(2, min(arity, 3) + 1):
        run.check("transfer-d:jacobi-arity-%d" % n, sample(rng, keys, n, 20),
                  td.jacobi_defect, seed=seed)


def run_matched(run, p, seed):
    sp = p.sp
    matched = is_matched(sp)
    run.artifacts["matched"] = {"complement-closed": matched}
    if not matched:
        run.add("matched:not-applicable", True, 0)
        return
    T, pt, tr = p.T, p.pt, p.tr
    tkeys = t_complex_keys(sp)

    # the transferred bracket is the suspended one: the direct bracket
    # with k1 signed by its shifted degree
    for name, transfer, keys, direct, stride in (
            ("schouten", tr, tkeys, MatchedT(sp).bracket, None),
            ("gerstenhaber", p.td, d_complex_keys(sp),
             MatchedD(p.D.P).gerst, 4)):
        run.check(
            "matched:binary-bracket-equals-direct-" + name,
            itertools.product(keys, repeat=2),
            lambda k12: transfer.lam_keys(k12) - direct(
                susp_sign(Vec({k12[0]: 1}), small_sdeg), Vec({k12[1]: 1})),
            stride=stride)
    rng = random.Random(seed)
    run.check("matched:ternary-bracket-vanishes", sample(rng, tkeys, 3, 40),
              tr.lam_keys, seed=seed)
    fa = a_form_algebra(sp.pair)
    fws = list(fa.words(max_weight=0))
    prod = cache(lambda fw1, fw2: fa.mul(Vec({fw1: 1}), Vec({fw2: 1})))

    def multiplicative(case):
        fw1, fw2, b = case
        lhs = pt.tau(Vec(((fw3, (b,)), c)
                         for fw3, c in prod(fw1, fw2).items()))
        return lhs - T.alg.mul(pt.tau(Vec({(fw1, ()): 1})),
                               pt.tau(Vec({(fw2, (b,)): 1})))
    run.check("matched:inclusion-multiplicative",
              itertools.product(fws, fws, range(sp.r)), multiplicative)


def second_choice(sp, conn):
    """A second admissible connection: perturb a diagonal B-direction
    coefficient, which keeps torsion-freeness and the canonical A-part."""
    gamma = [[list(row) for row in bl] for bl in conn.gamma]
    gamma[sp.m + 0][0][0] += 1
    return Connection(sp, gamma)


def run_uniqueness(run, p):
    sp = p.sp
    if not sp.r:
        # with A = L there is no complement to choose: one admissible choice
        run.add("uniqueness:not-applicable", True, 0)
        return
    p2 = Pipeline(sp, second_choice(sp, p.conn), p.trunc)
    uni = Uniqueness(p.D, p2.D)
    run.check("uniqueness:composition-is-identity", d_complex_keys(sp),
              on_basis(lambda x: uni.composition(p.pd, p2.pd, x)
                       - uni.small_relabel(x)))
    name = "uniqueness:transport-intertwines-differentials"
    top = p.trunc - WINDOWS[name]
    run.check(name, uni.W1.alg.words(max_weight=2), on_basis(
        lambda x: uni.W2.restrict_weight(uni.scalar_chain_defect(x), top)))


def run_cohomology(run, p):
    sp, T, pt, tr = p.sp, p.T, p.pt, p.tr
    coh = t_cohomology(sp)
    run.artifacts["cohomology"] = {
        "polyvector-dims": {str(n): d for n, d in coh.dims().items()}}
    lam2 = lambda x, y: tr.lam((x, y))
    cup = t_cup(T, pt)
    cup_table = cache(lambda a, b: induced_table(coh, cup, a, b, a + b + 1))
    tables = {}
    cup_pairs = []
    for n1 in coh.degrees:
        for n2 in coh.degrees:
            if n1 + n2 in coh.degrees:
                tab = induced_table(coh, lam2, n1, n2, n1 + n2)
                for (i, j), v in tab.items():
                    if any(v):
                        tables["bracket(%d,%d,%d,%d)" % (n1, i, n2, j)] \
                            = [frac_str(c) for c in v]
            if n1 + n2 + 1 in coh.degrees:
                for (i, j), v in cup_table(n1, n2).items():
                    if any(v):
                        tables["cup(%d,%d,%d,%d)" % (n1, i, n2, j)] \
                            = [frac_str(c) for c in v]
                    cup_pairs.append(((n1, i), (n2, j)))

    def graded_commutator(case):
        (n1, i), (n2, j) = case
        s = -1 if ((n1 + 1) * (n2 + 1)) % 2 else 1
        return Vec(enumerate(a - s * b for a, b in zip(
            cup_table(n1, n2)[(i, j)], cup_table(n2, n1)[(j, i)])))
    run.check("cohomology:cup-graded-commutative", cup_pairs,
              graded_commutator)
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
        run.add("validate:pair-structure", False, 1,
                witness={"input": str(e)})
        _emit(run, spec.get("name") or pair_path, trunc, arity, suite,
              seed, out_path)
        sys.exit(1)
    run.add("validate:pair-structure", True, 1)

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
