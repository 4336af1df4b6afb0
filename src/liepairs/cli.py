"""Pipeline driver: parse a Lie-pair spec, run verification suites, and
emit a machine-readable report plus a short text summary.

Every check records whether it was exhaustive at the declared depth
bounds or not: a random sample records its seed, and a check on every
N-th input records `stride: N`.  Failures carry a witness.  Exit code 0
means every selected check passed, 1 means at least one check failed, 2
means the configuration or input file was unusable.
"""

from fractions import Fraction
from functools import cached_property
import itertools
import json
import random
import sys

import click

from .cohomology import (
    d_cohomology, d_complex_keys, induced_table, t_cohomology,
    t_complex_keys, t_cup,
)
from .contraction import (
    d_contraction, d_perturbation, t_contraction, t_perturbation,
)
from .core import Vec, mi_unit, mi_weight, mi_zero
from .dpoly import DPoly
from .liepair import (
    Connection, PairError, SpecError, a_form_algebra, d_a_bott,
    parse_pair_spec,
)
from .matched import MatchedD, MatchedT, is_matched
from .pbw import d_a_u
from .tpoly import TPoly
from .transfer import d_transfer, t_transfer
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

    def add(self, name, ok, witness=None, count=0, exhaustive=True,
            seed=None, stride=None):
        entry = {"name": name, "status": "pass" if ok else "fail",
                 "count": count, "exhaustive": exhaustive}
        if seed is not None:
            entry["seed"] = seed
        if stride is not None:
            entry["stride"] = stride
        if witness is not None:
            entry["witness"] = witness
        self.checks.append(entry)

    def all_zero(self, name, pairs, exhaustive=True, seed=None,
                 stride=None):
        """pairs: iterable of (label, defect Vec); pass iff all zero.
        A check that takes every stride-th input is not exhaustive."""
        if stride is not None:
            exhaustive = False
        count = 0
        for label, defect in pairs:
            count += 1
            if not defect.is_zero():
                self.add(name, False,
                         witness={"input": repr(label),
                                  "defect": vec_json(defect)},
                         count=count, exhaustive=exhaustive, seed=seed,
                         stride=stride)
                return False
        self.add(name, True, count=count, exhaustive=exhaustive,
                 seed=seed, stride=stride)
        return True

    def ok(self):
        return all(c["status"] == "pass" for c in self.checks)


class Pipeline:
    """The resolution objects the suites share for one pair.  Each is
    built at most once, when a suite first asks for it."""

    def __init__(self, sp, conn, trunc):
        self.sp, self.conn, self.trunc = sp, conn, trunc

    @cached_property
    def T(self):
        return TPoly(self.sp, self.conn, self.trunc)

    @cached_property
    def D(self):
        return DPoly(self.sp, self.conn, self.trunc)

    @cached_property
    def pt(self):
        return t_contraction(self.T).perturb(t_perturbation(self.T))

    @cached_property
    def pd(self):
        return d_contraction(self.D).perturb(d_perturbation(self.D))

    @cached_property
    def tr(self):
        return t_transfer(self.T, self.pt)

    @cached_property
    def td(self):
        return d_transfer(self.D, self.pd)


def run_validate(run, pair, sp, conn):
    ok, witness = conn.extends_bott()
    run.add("validate:connection-extends-canonical-action", ok,
            witness=None if ok else {"input": repr(witness)})
    ok, witness = conn.is_torsion_free()
    run.add("validate:connection-torsion-free", ok,
            witness=None if ok else {"input": repr(witness)})
    run.artifacts["pair"] = {"name": pair.name, "dimL": pair.dim,
                             "dimA": pair.dim_a,
                             "complement-closed": is_matched(sp)}


def run_fedosov(run, sp, conn, trunc):
    W = Weyl(sp, conn, trunc)
    X = W.solve()
    run.all_zero("fedosov:homotopy-normalization",
                 ((k, W.h(X[k])) for k in range(sp.r)))
    low = Vec(((w, c) for k in range(sp.r)
               for w, c in X[k].items() if mi_weight(w[-1]) < 2))
    run.all_zero("fedosov:correction-weight-at-least-two", [("X", low)])
    words = list(W.alg.words(max_weight=trunc - 1))
    run.all_zero(
        "fedosov:differential-squares-to-zero",
        ((w, W.restrict_weight(W.q_op(W.q_op(Vec({w: 1}))), trunc - 1))
         for w in words))
    run.artifacts["fedosov"] = {
        "correction": [vec_json(X[k]) for k in range(sp.r)]}


def run_contraction(run, p):
    sp, trunc, T, D, pt, pd = p.sp, p.trunc, p.T, p.D, p.pt, p.pd
    ct, cd = t_contraction(T), d_contraction(D)
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
    run.all_zero("contraction:t:side-conditions",
                 ((w, ct.defect_side_sh(Vec({w: 1})))
                  for w in T.alg.words(max_weight=trunc - 1)))
    # perturbed contraction identities, exact within the weight window
    for side, c, keys in (("t", pt, tkeys), ("d", pd, dkeys)):
        run.all_zero("contraction:%s:perturbed-projection" % side,
                     ((k, c.defect_projection(Vec({k: 1}))) for k in keys))
    run.all_zero(
        "contraction:t:perturbed-homotopy",
        ((w, T.restrict_weight(pt.defect_homotopy(Vec({w: 1})),
                               trunc - 3))
         for w in list(T.alg.words(max_weight=1))[::3]), stride=3)
    run.all_zero(
        "contraction:d:perturbed-homotopy",
        (((w, slots), D.restrict_weight(
            pd.defect_homotopy(Vec({(w, slots): 1})), trunc - 3))
         for w in list(D.W.alg.words(max_weight=1))[::3]
         for slots in ((zero,), (e0, zero))), stride=3)
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
          - d_a_u(D.P, Vec({k: 1})) - D.dh_small(Vec({k: 1})))
         for k in dkeys))


def run_transfer_t(run, p, arity, seed):
    sp, tr = p.sp, p.tr
    keys = t_complex_keys(sp)
    run.all_zero("transfer-t:unary-bracket-is-differential",
                 ((k, tr.lam_keys((k,)) - d_a_bott(sp, Vec({k: 1})))
                  for k in keys))
    for n in range(1, min(arity, 2) + 1):
        run.all_zero(
            "transfer-t:jacobi-arity-%d" % n,
            ((tup, tr.jacobi_defect(tup))
             for tup in itertools.product(keys, repeat=n)))
    rng = random.Random(seed)
    for n in range(3, arity + 1):
        sample = [tuple(keys[rng.randrange(len(keys))] for _ in range(n))
                  for _ in range(40)]
        run.all_zero("transfer-t:jacobi-arity-%d" % n,
                     ((tup, tr.jacobi_defect(tup)) for tup in sample),
                     exhaustive=False, seed=seed)
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
                 ((tup, td.jacobi_defect(tup))
                  for tup in itertools.product(keys[::2], repeat=1)),
                 stride=2)
    rng = random.Random(seed)
    for n in range(2, min(arity, 3) + 1):
        sample = [tuple(keys[rng.randrange(len(keys))] for _ in range(n))
                  for _ in range(20)]
        run.all_zero("transfer-d:jacobi-arity-%d" % n,
                     ((tup, td.jacobi_defect(tup)) for tup in sample),
                     exhaustive=False, seed=seed)


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

    def de_susp(sdeg, val):
        return -1 * val if sdeg % 2 else val

    run.all_zero(
        "matched:binary-bracket-equals-direct-schouten",
        (((k1, k2), de_susp(tr.small_sdeg(k1), tr.lam_keys((k1, k2)))
          - mt.bracket(Vec({k1: 1}), Vec({k2: 1})))
         for k1 in tkeys for k2 in tkeys))
    run.all_zero(
        "matched:binary-bracket-equals-direct-gerstenhaber",
        (((k1, k2), de_susp(td.small_sdeg(k1), td.lam_keys((k1, k2)))
          - md.gerst(Vec({k1: 1}), Vec({k2: 1})))
         for k1 in dkeys[::2] for k2 in dkeys[::2]), stride=2)
    rng = random.Random(seed)
    sample = [tuple(tkeys[rng.randrange(len(tkeys))] for _ in range(3))
              for _ in range(40)]
    run.all_zero("matched:ternary-bracket-vanishes",
                 ((tup, tr.lam_keys(tup)) for tup in sample),
                 exhaustive=False, seed=seed)
    fa = a_form_algebra(sp.pair)
    fws = list(fa.words(max_weight=0))
    defects = []
    for fw1 in fws:
        for fw2 in fws:
            for b in range(sp.r):
                prod = fa.mul(Vec({fw1: 1}), Vec({fw2: 1}))
                lhs = Vec()
                for fw3, c in prod.items():
                    lhs += c * pt.tau(Vec({(fw3, (b,)): 1}))
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


def run_uniqueness(run, sp, conn, trunc):
    if not sp.r:
        # with A = L there is no complement to choose: one admissible choice
        run.add("uniqueness:not-applicable", True, count=0)
        return
    conn2 = second_choice(sp, conn)
    uni = Uniqueness(sp, conn, sp, conn2, trunc)
    pd1 = d_contraction(uni.D1).perturb(d_perturbation(uni.D1))
    pd2 = d_contraction(uni.D2).perturb(d_perturbation(uni.D2))
    run.all_zero(
        "uniqueness:composition-is-identity",
        ((k, uni.composition(pd1, pd2, Vec({k: 1}))
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
                tab = induced_table(coh, cup, n1, n2, n1 + n2 + 1)
                back = induced_table(coh, cup, n2, n1, n1 + n2 + 1)
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
        str(n): d for n, d in dcoh.dims().items()
        if n in dcoh.valid_degrees}


@click.group()
def main():
    """Exact verification pipelines for finite-dimensional Lie pairs."""


@main.command()
@click.option("--pair", "pair_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--trunc", default=5, show_default=True,
              help="series truncation weight")
@click.option("--arity", default=3, show_default=True,
              help="maximal bracket arity checked")
@click.option("--suite", default="all", show_default=True,
              type=click.Choice(SUITES))
@click.option("--seed", default=0, show_default=True,
              help="seed for sampled (non-exhaustive) checks")
@click.option("--out", "out_path", default=None,
              type=click.Path(dir_okay=False))
def check(pair_path, trunc, arity, suite, seed, out_path):
    """Run verification suites on one Lie-pair spec file."""
    if arity < 1:
        click.echo("error: arity must be at least 1", err=True)
        sys.exit(2)
    if trunc < arity + 2:
        click.echo("error: trunc must be at least arity + 2", err=True)
        sys.exit(2)
    if out_path:
        # fail before the suites run, not after; appending creates the
        # file if need be and leaves an existing one as it is
        try:
            with open(out_path, "a"):
                pass
        except OSError as e:
            click.echo("error: cannot write report: %s" % e, err=True)
            sys.exit(2)
    try:
        with open(pair_path) as f:
            spec = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        click.echo("error: cannot read pair spec: %s" % e, err=True)
        sys.exit(2)

    run = Runner()
    try:
        pair, sp, conn = parse_pair_spec(spec)
    except SpecError as e:
        click.echo("error: malformed pair spec: %s" % e, err=True)
        sys.exit(2)
    except PairError as e:
        run.add("validate:pair-structure", False,
                witness={"input": str(e)})
        _emit(run, spec.get("name", pair_path), trunc, arity, suite,
              seed, out_path)
        sys.exit(1)
    run.add("validate:pair-structure", True, count=1)

    wanted = SUITES[:-1] if suite == "all" else [suite]
    p = Pipeline(sp, conn, trunc)
    if "validate" in wanted:
        run_validate(run, pair, sp, conn)
    if "fedosov" in wanted:
        run_fedosov(run, sp, conn, trunc)
    if "contraction" in wanted:
        run_contraction(run, p)
    if "transfer-t" in wanted:
        run_transfer_t(run, p, arity, seed)
    if "transfer-d" in wanted:
        run_transfer_d(run, p, arity, seed)
    if "matched" in wanted:
        run_matched(run, p, seed)
    if "uniqueness" in wanted:
        run_uniqueness(run, sp, conn, trunc)
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
        click.echo(text)
    passed = sum(1 for c in run.checks if c["status"] == "pass")
    click.echo("%s: %d/%d checks passed" % (name, passed,
                                            len(run.checks)), err=True)
    for c in run.checks:
        if c["status"] != "pass":
            click.echo("FAIL %s witness=%s" % (c["name"],
                                               c.get("witness")),
                       err=True)


if __name__ == "__main__":
    main()
