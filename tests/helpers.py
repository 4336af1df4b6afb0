"""Operators that only the tests use.  Each states something about the
pipeline's objects from outside them, so it lives beside the tests."""

from fractions import Fraction

from liepairs.core import Vec, falling, mi_fact, mi_sub, mi_unit, mi_upto
from liepairs.liepair import ce_differential


def evaluate(D, x, args):
    """Apply a DPoly element of arity v to v+1 power-series arguments
    (each a Vec over multi-indices); the value is a Vec of words."""
    out = Vec(truncated=x.truncated)
    for (w, slots), c in x.items():
        if len(slots) != len(args):
            continue
        acc = Vec({w: c})
        for J, arg in zip(slots, args):
            val = Vec(truncated=arg.truncated)
            for K, ck in arg.items():
                low = mi_sub(K, J)
                if low is not None:
                    val.iadd_term(low, ck * falling(K, J))
            acc = D.alg.mul(acc, Vec(
                {D.alg.even_word(K): ck for K, ck in val.items()},
                truncated=val.truncated))
        out += acc
    return out


def dual_nabla_chi(P, l, k):
    """Image of the degree-one generator chi_k under the dual of the
    flat connection of the Pbw table P along E_l: a Vec over multi-indices
    J meaning sum_J c_J chi^J, with <dual(chi), d> = -<chi, nabla_flash(d)>."""
    out = Vec()
    ek = mi_unit(P.r, k)
    for J in mi_upto(P.r, P.N):
        img = P.nabla_flash(l, Vec({J: Fraction(1)}))
        c = img[ek]
        if c:
            out.iadd_term(J, -c * Fraction(1, mi_fact(J)))
    return out


def apply_x(W, x):
    """The correction X of a solved Weyl, acting as a vertical
    derivation."""
    return W.vertical(W.x_vert, x)


def curvature(conn, u, v, b):
    """R(E_u, E_v) d_b of a Connection, in the B-frame."""
    out = conn.nabla_vec(u, conn.nabla(v, b))
    out -= conn.nabla_vec(v, conn.nabla(u, b))
    for w, c in conn.splitting.struct_const(u, v).items():
        out.iadd_scaled(-c, conn.nabla(w, b))
    return out


def d_a_scalar(splitting, x):
    """CE differential with trivial coefficients on Vec over A-form words."""
    wrapped = Vec({(w, ()): c for w, c in x.items()}, truncated=x.truncated)
    res = ce_differential(splitting, lambda s, ck: Vec(), wrapped)
    return Vec({w: c for (w, _), c in res.items()}, truncated=res.truncated)


def d_chain_defect(uni, x):
    """The isomorphism of a Uniqueness after the first total differential
    (Q plus the insertion coboundary) minus the second one after it."""
    d1 = uni.D1.q_op(x) + uni.D1.d_h(x)
    img = uni.map_d(x)
    d2 = uni.D2.q_op(img) + uni.D2.d_h(img)
    return uni.map_d(d1) - d2
