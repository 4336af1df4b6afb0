import itertools
import json
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liepairs.core import (
    Vec, mat_inv, mi_unit, mi_upto, mi_weight, mi_zero, sym_comul,
)
from liepairs.liepair import Connection, parse_pair_spec
from liepairs.pbw import Pbw, d_a_u, dual_map, transition
from liepairs.weyl import Weyl

from helpers import dual_nabla_chi

PAIRS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "pairs")
FIXTURES = ["heisenberg_center", "heisenberg_x", "sl2_borel", "sl2_h",
            "abelian"]
N = 5


def load(name):
    with open(os.path.join(PAIRS_DIR, name + ".json")) as f:
        return parse_pair_spec(json.load(f))


@pytest.fixture(scope="module")
def built():
    out = {}
    for name in FIXTURES:
        pair, sp, conn = load(name)
        out[name] = (sp, conn, Pbw(sp, conn, trunc=N))
    return out


def perturbed_connection(sp, conn, entries):
    """Copy of conn with gamma[l][b][k] += v for (l, b, k, v) in entries."""
    gamma = [[list(row) for row in plane] for plane in conn.gamma]
    for l, b, k, v in entries:
        gamma[l][b][k] += v
    return Connection(sp, gamma)


# ---------------------------------------------------------------------------
# normal form / quotient classes


def test_u_reduce_examples(built):
    sp, conn, P = built["heisenberg_center"]
    # adapted letters: 0 = z (A), 1 = x, 2 = y
    assert P.u_reduce((1, 2)) == Vec({(1, 1): 1})
    # yx = xy - z and [z] dies in the quotient
    assert P.u_reduce((2, 1)) == Vec({(1, 1): 1})
    assert P.u_reduce((0,)).is_zero()
    assert P.u_reduce((1, 0)).is_zero()
    assert P.u_reduce(()) == Vec({(0, 0): 1})


def test_u_reduce_sl2(built):
    sp, conn, P = built["sl2_borel"]
    # letters: 0 = h, 1 = e (A), 2 = f; fh = hf + 2f, fe = ef - h
    assert P.u_reduce((0, 2)) == P.u_reduce((2, 0)) + Vec({(1,): -2})


def test_pbw_base_cases(built):
    for name, (sp, conn, P) in built.items():
        r = sp.r
        assert P.pbw(Vec({mi_zero(r): 1})) == Vec({mi_zero(r): 1})
        for k in range(r):
            unit = Vec({mi_unit(r, k): 1})
            assert P.pbw(unit) == unit


def test_pbw_symmetrization_heisenberg(built):
    sp, conn, P = built["heisenberg_center"]
    assert P.pbw(Vec({(1, 1): 1})) == Vec({(1, 1): 1})


def test_pbw_inverse(built):
    for name, (sp, conn, P) in built.items():
        for J in mi_upto(sp.r, P.cap):
            x = Vec({J: 1})
            assert P.pbw_inv(P.pbw(x)) == x, (name, J)
            assert P.pbw(P.pbw_inv(x)) == x, (name, J)


def test_pbw_coalgebra_morphism(built):
    # comultiplication commutes with the symmetrization map (weight <= 3)
    for name, (sp, conn, P) in built.items():
        for J in mi_upto(sp.r, 3):
            lhs = Vec()
            for Jc, c in P.pbw(Vec({J: 1})).items():
                for K, M, mult in P.class_comul(Jc):
                    lhs.iadd_term((K, M), c * mult)
            rhs = Vec()
            for K, M, mult in sym_comul(J):
                for K2, c2 in P.pbw(Vec({K: 1})).items():
                    for M2, c3 in P.pbw(Vec({M: 1})).items():
                        rhs.iadd_term((K2, M2), mult * c2 * c3)
            assert lhs == rhs, (name, J)


# ---------------------------------------------------------------------------
# the flat connection


def test_nabla_flash_examples(built):
    sp, conn, P = built["heisenberg_center"]
    assert P.nabla_flash(0, Vec({(1, 0): 1})).is_zero()   # along central z
    for name, (sp, conn, P) in built.items():
        for s in range(sp.m):
            assert P.nabla_flash(s, Vec({mi_zero(sp.r): 1})).is_zero(), name


def test_nabla_flash_weight_one_part_is_canonical_action(built):
    # along A the induced connection preserves linear terms and its linear
    # part is the canonical flat A-action
    for name, (sp, conn, P) in built.items():
        for s in range(sp.m):
            for jj in range(sp.r):
                got = P.nabla_flash(s, Vec({mi_unit(sp.r, jj): 1}))
                expect = Vec({mi_unit(sp.r, k): c
                              for k, c in sp.bott(s, jj).items()})
                assert got == expect, (name, s, jj)


def test_nabla_flash_flat(built):
    for name, (sp, conn, P) in built.items():
        dim = sp.pair.dim
        for u in range(dim):
            for v in range(u + 1, dim):
                for J in mi_upto(sp.r, N - 1):
                    x = Vec({J: 1})
                    got = P.nabla_flash(u, P.nabla_flash(v, x)) \
                        - P.nabla_flash(v, P.nabla_flash(u, x))
                    for w, c in sp.struct_const(u, v).items():
                        got -= c * P.nabla_flash(w, x)
                    assert got.is_zero(), (name, u, v, J)


def test_dual_vertical_field_leading_term(built):
    # the commutator of the dual connection along A with a constant
    # vertical direction has constant part the canonical flat A-action
    for name, (sp, conn, P) in built.items():
        for s in range(sp.m):
            coeffs = {k: dual_nabla_chi(P, s, k) for k in range(sp.r)}
            for jj in range(sp.r):
                got = {}
                for k in range(sp.r):
                    c = -coeffs[k][mi_unit(sp.r, jj)]
                    if c:
                        got[k] = c
                assert got == sp.bott(s, jj), (name, s, jj)


def test_q_equals_flat_covariant_differential(built):
    # independent construction of the total differential: the dual of the
    # flat connection, turned into a covariant CE differential, must agree
    # with -delta + d + X on every generator
    from liepairs.core import EVEN
    for name, (sp, conn, P) in built.items():
        W = Weyl(sp, conn, trunc=N)
        W.solve()
        r, dim = sp.r, sp.pair.dim
        for k in range(r):
            gen = Vec({W.alg.even_word(mi_unit(r, k)): 1})
            q_img = W.q_op(gen)
            flat_img = Vec()
            for l in range(dim):
                lam = Vec({W.alg.odd_word(*W._form_gen(l)): Fraction(1)})
                coeff = Vec({W.alg.even_word(J): c
                             for J, c in dual_nabla_chi(P, l, k).items()})
                flat_img += W.alg.mul(lam, coeff)
            assert q_img == flat_img, (name, k)


# ---------------------------------------------------------------------------
# transition between two choices


def second_choice(name, sp, conn):
    """A different torsion-free extension (and the same splitting)."""
    r, m = sp.r, sp.m
    entries = [(m + 0, 0, 0, Fraction(1))]
    if r > 1:
        entries.append((m + 0, 1, 1, Fraction(1)))
        entries.append((m + 1, 0, 1, Fraction(1)))
    return perturbed_connection(sp, conn, entries)


def test_transition_identity(built):
    for name, (sp, conn, P) in built.items():
        psi = transition(P, P)
        for J in mi_upto(sp.r, N):
            assert psi[J] == Vec({J: 1}), (name, J)


def test_transition_two_connections(built):
    sp, conn, P = built["heisenberg_center"]
    conn2 = second_choice("heisenberg_center", sp, conn)
    assert conn2.is_torsion_free()[0]
    assert conn2.extends_bott()[0]
    P2 = Pbw(sp, conn2, trunc=N)
    psi = transition(P, P2)
    # filtered automorphism with identity leading term
    for J in mi_upto(sp.r, N):
        diff = psi[J] - Vec({J: 1})
        assert all(mi_weight(K) < mi_weight(J) for K in diff), J
    # the two choices genuinely differ
    assert any((psi[J] - Vec({J: 1})) for J in mi_upto(sp.r, N))
    # coalgebra automorphism
    for J in mi_upto(sp.r, 3):
        lhs = Vec()
        for Jc, c in psi[J].items():
            for K, M, mult in sym_comul(Jc):
                lhs.iadd_term((K, M), c * mult)
        rhs = Vec()
        for K, M, mult in sym_comul(J):
            for K2, c2 in psi[K].items():
                for M2, c3 in psi[M].items():
                    rhs.iadd_term((K2, M2), mult * c2 * c3)
        assert lhs == rhs, J


def test_dual_map_is_algebra_morphism(built):
    sp, conn, P = built["heisenberg_center"]
    P2 = Pbw(sp, second_choice("heisenberg_center", sp, conn), trunc=N)
    dual = dual_map(transition(P, P2), sp.r, N)
    for K1 in mi_upto(sp.r, 2):
        for K2 in mi_upto(sp.r, 2):
            lhs = dual[tuple(a + b for a, b in zip(K1, K2))]
            rhs = Vec()
            for J1, c1 in dual[K1].items():
                for J2, c2 in dual[K2].items():
                    rhs.iadd_term(tuple(a + b for a, b in zip(J1, J2)),
                                  c1 * c2)
            # compare only up to the cap
            lhs = Vec((J, c) for J, c in lhs.items() if mi_weight(J) <= N)
            rhs = Vec((J, c) for J, c in rhs.items() if mi_weight(J) <= N)
            assert lhs == rhs, (K1, K2)


# ---------------------------------------------------------------------------
# the CE differential with class coefficients


def test_d_a_u_examples(built):
    sp, conn, P = built["heisenberg_center"]
    x = Vec({(((), ()), ((1, 0),)): 1})      # 1 (x) [x]
    assert d_a_u(P, x).is_zero()

    sp, conn, P = built["sl2_borel"]
    x = Vec({(((), ()), ((1,),)): 1})        # 1 (x) [f]
    got = d_a_u(P, x)
    # h . [f] = -2 [f], e . [f] = 0
    assert got == Vec({(((0,), ()), ((1,),)): Fraction(-2)})


def test_d_a_u_squares_to_zero(built):
    for name, (sp, conn, P) in built.items():
        fwords = [((), ())] + [((s,), ()) for s in range(sp.m)]
        cks = [(J,) for J in mi_upto(sp.r, 2)]
        cks += [(J1, J2) for J1 in mi_upto(sp.r, 1)
                for J2 in mi_upto(sp.r, 1)]
        for fw in fwords:
            for ck in cks:
                x = Vec({(fw, ck): 1})
                assert d_a_u(P, d_a_u(P, x)).is_zero(), (name, fw, ck)


# ---------------------------------------------------------------------------
# the sparse inverse against the dense column product it replaced


def dense_pbw_inv(P, inv, cls):
    out = Vec(truncated=cls.truncated)
    for J, c in cls.items():
        col = P._index[J]
        for row, Jr in enumerate(P._basis):
            out.iadd_term(Jr, c * inv[row][col])
    return out


@pytest.fixture(scope="module")
def dense_inverses(built):
    out = {}
    for name, (sp, conn, P) in built.items():
        n = len(P._basis)
        out[name] = mat_inv([[P._table[P._basis[col]][P._basis[row]]
                              for col in range(n)] for row in range(n)])
    return out


def assert_same_inv(P, inv, cls):
    got, want = P.pbw_inv(cls), dense_pbw_inv(P, inv, cls)
    assert got == want
    assert got.truncated == want.truncated
    assert all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
               for c in got.values())


def test_sparse_pbw_inv_matches_dense_exhaustive(built, dense_inverses):
    for name, (sp, conn, P) in built.items():
        inv = dense_inverses[name]
        for J in P._basis:
            for c in (1, -2, Fraction(3, 4)):
                assert_same_inv(P, inv, Vec({J: c}))
        assert_same_inv(P, inv, Vec({J: i - 3 for i, J in
                                     enumerate(P._basis)}, truncated=True))


@settings(deadline=None)
@given(st.data())
def test_sparse_pbw_inv_matches_dense(built, dense_inverses, data):
    name = data.draw(st.sampled_from(FIXTURES))
    sp, conn, P = built[name]
    inv = dense_inverses[name]
    cls = data.draw(st.builds(
        Vec, st.dictionaries(
            st.sampled_from(P._basis),
            st.one_of(st.integers(-5, 5),
                      st.fractions(-3, 3, max_denominator=6)),
            max_size=6),
        truncated=st.booleans()))
    assert_same_inv(P, inv, cls)
