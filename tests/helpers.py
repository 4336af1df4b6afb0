"""What the test modules share: the shipped pairs, a new cli.Pipeline
per call, the polydifferential key window, and operators that only the
tests use.  Each operator states something about the pipeline's objects
from outside them, so it lives beside the tests."""

import contextlib
from fractions import Fraction
from functools import cache
import io
import itertools
import json
import os
from typing import NamedTuple

from liepairs.cli import Pipeline, main
from liepairs.core import (
    EVEN, Derivation, Vec, common_denominator, falling, linear, mi_fact,
    mi_sub, mi_unit, mi_upto, mi_weight, mi_zero, on_first, susp_sign,
    tensor_product,
)
from liepairs.liepair import a_form_algebra, ce_differential, parse_pair_spec
from liepairs.pbw import relabel
from liepairs.tpoly import TPoly

PAIRS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "pairs")
# the shipped dim-3 pairs, and those whose complement is bracket-closed
FIXTURES = ["heisenberg_center", "heisenberg_x", "sl2_borel", "sl2_h",
            "abelian"]
MATCHED = ["heisenberg_x", "sl2_borel", "abelian"]
N = 5


def load(name):
    """(pair, splitting, connection) of the shipped pair `name`."""
    with open(os.path.join(PAIRS_DIR, name + ".json")) as f:
        return parse_pair_spec(json.load(f))


def pipeline(name, trunc=N):
    """A new cli.Pipeline of the shipped pair `name` under its own
    choice; nothing is shared with an earlier call."""
    pair, sp, conn = load(name)
    return Pipeline(sp, conn, trunc)


def d_small_keys(sp, max_cls=2, with_pairs=True):
    """Polydifferential small keys, A-form word by A-form word: every
    one-slot class of weight at most max_cls, then (with_pairs) every
    two-slot class of weight at most one in each slot."""
    clsets = [(J,) for J in mi_upto(sp.r, max_cls)]
    if with_pairs:
        clsets += list(itertools.product(list(mi_upto(sp.r, 1)), repeat=2))
    return [(fw, cls) for fw in a_form_algebra(sp.pair).words(max_weight=0)
            for cls in clsets]


def mi_le(J, K):
    return all(a <= b for a, b in zip(J, K))


def pair_dual(K, J):
    """Dual pairing of the monomial chi^K against the operator d^J: K! if K=J."""
    return Fraction(mi_fact(K)) if K == J else Fraction(0)


def project_a(W, x):
    """sigma of a Weyl followed by rewriting into bare A-form words."""
    return Vec(((w[0], ()), c) for w, c in W.sigma(x).items())


def include_a(W, x):
    """Bare A-form words into the algebra of a Weyl."""
    zero = mi_zero(W.r)
    return Vec({(w[0], (), zero): c for w, c in x.items()})


def defect_side_sh(C, x):
    """sigma h of a Contraction on a big element; sigma reads weight 0
    only, so h is capped there, and the value is zero word by word."""
    return C.sigma(C.h(x, 0))


def evaluate(D, x, args):
    """Apply a DPoly element of arity v to v+1 power-series arguments
    (each a Vec over multi-indices); the value is a Vec of words."""
    out = Vec()
    for (w, slots), c in x.items():
        if len(slots) != len(args):
            continue
        acc = Vec({w: c})
        for J, arg in zip(slots, args):
            val = Vec()
            for K, ck in arg.items():
                low = mi_sub(K, J)
                if low is not None:
                    val.iadd_term(low, ck * falling(K, J))
            acc = D.alg.mul(acc, Vec(
                {D.alg.even_word(K): ck for K, ck in val.items()}))
        out += acc
    return out


def pbw(P, s):
    """The symmetrization map of the Pbw P on a Vec over
    multi-indices: the linear extension of its table."""
    return linear(P.table.__getitem__, s)


def nabla_flash(P, l, s):
    """pbw^{-1} of the left action of E_l on pbw(s), for the Pbw P;
    inputs of weight at most trunc (one unit of head room is built
    in)."""
    return P.pbw_inv(P.left_mult(l, pbw(P, s)))


def mult_element(D):
    """The multiplication element of a DPoly: the unit word with two
    empty slots."""
    z = mi_zero(D.r)
    return Vec({(D.alg.unit_word(), (z, z)): Fraction(1)})


def dual_nabla_chi(P, l, k):
    """Image of the degree-one generator chi_k under the dual of the
    flat connection of the Pbw table P along E_l: a Vec over multi-indices
    J meaning sum_J c_J chi^J, with <dual(chi), d> = -<chi, nabla_flash(d)>."""
    out = Vec()
    ek = mi_unit(P.r, k)
    for J in mi_upto(P.r, P.N):
        img = nabla_flash(P, l, Vec({J: Fraction(1)}))
        c = img[ek]
        if c:
            out.iadd_term(J, -c * Fraction(1, mi_fact(J)))
    return out


def apply_x(W, x):
    """The correction X of a solved Weyl, acting as the odd vertical
    derivation sum_k X_k d_k."""
    images = {(EVEN, k): c for k, c in W.x_vert.items() if c}
    return W.alg.derive(images, 1, x)


def delta(S, x):
    """The Koszul differential of a Weyl, TPoly or DPoly: -d_big."""
    return -S.d_big(x)


def d_l_nabla(W):
    """The covariant differential d of a Weyl alone, its table compiled
    as one derivation; the pipeline applies it only inside rho."""
    return Derivation(W.alg, W._d_images, 1)


def curvature(conn, u, v, b):
    """R(E_u, E_v) d_b of a Connection, in the B-frame."""
    out = conn.nabla_vec(u, conn.nabla(v, b))
    out -= conn.nabla_vec(v, conn.nabla(u, b))
    for w, c in conn.splitting.struct_const(u, v).items():
        out.iadd_scaled(-c, conn.nabla(w, b))
    return out


def d_a_scalar(splitting, x):
    """CE differential with trivial coefficients on Vec over A-form words."""
    wrapped = Vec({(w, ()): c for w, c in x.items()})
    res = ce_differential(splitting, lambda s, ck: Vec(), wrapped)
    return Vec({w: c for (w, _), c in res.items()})


def is_coboundary(coh, x, n):
    """Whether x, of degree n in the complex of the Cohomology coh, is a
    coboundary: its reduction modulo the image vanishes."""
    return not coh._reduce(coh._coords(x, n), coh._image[n])


def compare_on_cohomology(coh1, op1, coh2, op2, transport, n1, n2, n_out):
    """Transport the first representatives, project both operation
    values in the second cohomology, and collect disagreements."""
    witnesses = []
    for i in range(len(coh1.reps[n1][0])):
        for j in range(len(coh1.reps[n2][0])):
            r1 = coh1.rep(n1, i)
            r2 = coh1.rep(n2, j)
            lhs = coh2.project(transport(op1(r1, r2)), n_out)
            rhs = coh2.project(op2(transport(r1), transport(r2)), n_out)
            if lhs != rhs:
                witnesses.append(((n1, i), (n2, j), lhs, rhs))
    return witnesses


def d_chain_defect(uni, x):
    """The isomorphism of a Uniqueness after the first total differential
    (Q plus the insertion coboundary) minus the second one after it."""
    d1 = uni.D1.q_op(x) + uni.D1.d_h(x)
    img = uni.map_d(x)
    d2 = uni.D2.q_op(img) + uni.D2.d_h(img)
    return uni.map_d(d1) - d2


def restricted(v, cap):
    """The words of v of even weight at most cap, in v's order."""
    return Vec((w, c) for w, c in v.items() if sum(w[-1]) <= cap)


def is_normalised(v):
    """Every coefficient of v is an int or a Fraction with denominator
    greater than 1, as a Vec keeps them."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
               for c in v.values())


def assert_window_is_restriction(op, x, cap, restrict=restricted):
    """op(x, c) against restrict(op(x), c), for every output cap c from 0
    to cap: the same entries, in the same order, each normalised."""
    full = op(x)
    for c in range(cap + 1):
        got, want = op(x, c), restrict(full, c)
        assert got == want and list(got) == list(want), (c, x)
        assert is_normalised(got)


def plain(side, u, v, max_weight=None):
    """The bracket of a TPoly or a DPoly before the suspension: the
    suspended bracket of u with its terms of odd shifted degree negated
    (a polyvector's shifted degree is its form degree less one), keeping
    the words of weight at most max_weight, as the bracket does."""
    if isinstance(side, TPoly):
        return side.schouten(susp_sign(u, lambda w: side.deg(w) - 1), v,
                             max_weight)
    return side.gerst(susp_sign(u, side.deg), v, max_weight)


# ---------------------------------------------------------------------------
# the Leibniz rule term by term: flatten the odd generators, rebuild the
# prefix and the suffix of each letter, and take two products per letter


def odd_letters(A, w):
    """The odd letters of w as (colour, index) pairs, in order."""
    return [(c, i) for c in range(A.n_colours) for i in w[c]]


def word_of_letters(A, gens, J):
    """The word with odd letters gens (already in order) and exponents J."""
    parts = [[] for _ in A.odd_counts]
    for c, i in gens:
        parts[c].append(i)
    return tuple(tuple(p) for p in parts) + (tuple(J),)


def oracle_derive(A, images, parity, x):
    """The derivation of A with these generator images, applied to x as
    the sum over letters of pre * image * suf, each term of either
    product over the cap dropped."""
    zero = mi_zero(A.n_even)
    out = Vec()
    for w, coef in x.items():
        gens = odd_letters(A, w)
        J = w[-1]
        for t, g in enumerate(gens):
            img = images.get(g)
            if not img:
                continue
            sgn = -1 if parity % 2 and t % 2 else 1
            pre = word_of_letters(A, gens[:t], zero)
            suf = word_of_letters(A, gens[t + 1:], J)
            out += A.mul(A.mul(Vec({pre: coef * sgn}), img), Vec({suf: 1}))
        base = -1 if parity % 2 and len(gens) % 2 else 1
        for k in range(A.n_even):
            img = images.get((EVEN, k))
            if J[k] == 0 or not img:
                continue
            front = word_of_letters(A, gens, zero)
            rest = A.even_word(mi_sub(J, mi_unit(A.n_even, k)))
            out += A.mul(A.mul(Vec({front: coef * base * J[k]}), img),
                         Vec({rest: 1}))
    return out


# ---------------------------------------------------------------------------
# the exact elimination densely: a plain Gauss-Jordan pass over Fraction
# lists, every row kept


def oracle_rref(rows):
    rows = [list(map(Fraction, r)) for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0),
                   None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = Fraction(1) / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    return rows, pivots


def oracle_kernel_basis(rows, ncols):
    if not rows:
        return [[Fraction(int(i == j)) for j in range(ncols)]
                for i in range(ncols)]
    red, pivots = oracle_rref(rows)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# the per-term loops that the slotwise maps replaced, kept as their
# oracles: each takes the pipeline object the map belongs to


def typed_items(v):
    """The terms of v in order, each with its coefficient's type."""
    return [(k, type(c), c) for k, c in v.items()]


def loop_project_small(D, x):
    """DPoly.project_small of x."""
    out = Vec()
    for (w, slots), c in x.items():
        if w[1] or mi_weight(w[-1]) != 0:
            continue
        acc = tensor_product(c, [D.P.table[J] for J in slots])
        for cls, cc in acc.items():
            out.iadd_term(((w[0], ()), cls), cc)
    return out


def loop_include_small(D, x):
    """DPoly.include_small of x."""
    zero = mi_zero(D.r)
    out = Vec()
    for (fw, cls), c in x.items():
        acc = tensor_product(c, [D.P.inv_table[K] for K in cls])
        for slots, cc in acc.items():
            out.iadd_term(((fw[0], (), zero), slots), cc)
    return out


def loop_left_mult(P, l, cls):
    """Pbw.left_mult of the class cls."""
    out = Vec()
    for J, c in cls.items():
        out += P.u_reduce((l,) + P.y_mono(J)) * c
    return out


def loop_relabel(src, dst):
    """pbw.relabel(src, dst), with no shortcut for equal frames."""
    conv = [dst.sp.adapted_coords(col) for col in src.sp.adapted]

    def convert(cls):
        out = Vec()
        for J, c in cls.items():
            acc = tensor_product(c, [conv[letter] for letter in src.y_mono(J)])
            for mono, cm in acc.items():
                out += dst.u_reduce(mono) * cm
        return out
    return convert


def loop_small_relabel(uni, x):
    """Uniqueness.small_relabel of x."""
    to_second = relabel(uni.D1.P, uni.D2.P)
    out = Vec()
    for (fw, cls), c in x.items():
        acc = tensor_product(c, [to_second(Vec({K: Fraction(1)}))
                                 for K in cls])
        for cls2, cc in acc.items():
            out.iadd_term((fw, cls2), cc)
    return out


def loop_operator_on(uni, J, K):
    """Uniqueness._operator_on(J, K)."""
    f = uni.dual_inv[K]
    df = Vec()
    for I, c in f.items():
        low = mi_sub(I, J)
        if low is None:
            continue
        df.iadd_term(low, c * falling(I, J))
    return linear(uni.dual.get, df)


def loop_torsion(conn, u, v):
    """Connection.torsion(u, v)."""
    sp = conn.splitting
    out = conn.nabla_vec(u, sp.q_of_adapted(v))
    out -= conn.nabla_vec(v, sp.q_of_adapted(u))
    for w, c in sp.struct_const(u, v).items():
        out.iadd_scaled(-c, Vec(sp.q_of_adapted(w)))
    return out


def loop_ce_differential(sp, action, x):
    """liepair.ce_differential(sp, action, x)."""
    fa, d_a = sp.ce_base
    out = on_first(d_a, x)
    for (fw, ck), coef in x.items():
        for s in range(sp.m):
            acted = action(s, ck)
            if not acted:
                continue
            alpha = Vec({fa.odd_word(0, s): Fraction(1)})
            wedged = fa.mul(alpha, Vec({fw: coef}))
            for w2, c2 in wedged.items():
                for ck2, c3 in acted.items():
                    out.iadd_term((w2, ck2), c2 * c3)
    return out


# ---------------------------------------------------------------------------
# the closed-form integer loop that Weyl.h was before it applied the
# compiled kappa, kept as its oracle


@cache
def h_table(T, J):
    """h on the words alpha_S dchi_T ... chi^J: for each letter k_p of T,
    the chi_k-form letters and the multi-index of the output word (k_p
    taken out of T, J + e_(k_p)), with its sign (-1)^p."""
    return tuple((T[:p] + T[p + 1:], J[:k] + (J[k] + 1,) + J[k + 1:],
                  -1 if p % 2 else 1)
                 for p, k in enumerate(T))


def loop_h(X, x, max_weight=None, table=h_table):
    """Weyl.h of x on the word algebra of X (a Weyl or a TPoly): for
    v = |T| > 0,

        h(c w) = sum_p (-1)^(|S| + p) c / (v + |J|)
                       alpha_S dchi_(T minus k_p) ... chi^(J + e_(k_p)),

    the letters between T and J carried along, skipping the input words
    of weight max_weight (default: the cap) or more.  The int numerators
    are summed per output word, a sum that cancels deleted, and each
    divided once by d_x (v + |J|), d_x the lcm of the input's
    denominators."""
    top = X.alg.out_cap(max_weight) - 1
    dx = common_denominator(x)
    acc = {}
    for w, c in x.items():
        if sum(w[-1]) > top:
            continue
        c = c * dx if type(c) is int else c.numerator * (dx // c.denominator)
        if len(w[0]) % 2:
            c = -c
        S, mid = w[0], w[2:-1]
        for T, J, f in table(w[1], w[-1]):
            key = (S, T, *mid, J)
            new = acc.get(key, 0) + f * c
            if new:
                acc[key] = new
            else:
                del acc[key]
    out = Vec()
    for w, num in acc.items():
        den = dx * (len(w[1]) + sum(w[-1]))
        q, r = divmod(num, den)
        out[w] = Fraction(num, den) if r else q
    return out


class CliResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self):
        return self.stdout + self.stderr


def run_cli(args):
    """Run the `liepairs` command in this process on the argument list;
    what it writes to stdout and stderr is captured, not shown."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(args)
        except SystemExit as e:
            code = e.code or 0
    return CliResult(code, out.getvalue(), err.getvalue())
