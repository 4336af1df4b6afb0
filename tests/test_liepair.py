import itertools
import json
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liepairs import liepair
from liepairs.cohomology import t_complex_keys
from liepairs.core import Vec, mat_inv, mi_upto, tensor_product
from liepairs.liepair import (
    Connection, LiePair, PairError, Splitting, a_form_algebra,
    bott_action_on_lambda_b, d_a_bott, default_connection, parse_pair_spec,
)
from liepairs.pbw import Pbw, relabel

from helpers import FIXTURES, PAIRS_DIR, curvature, d_a_scalar, load


@pytest.fixture(scope="module")
def pipelines():
    return {name: load(name) for name in FIXTURES}


# ---------------------------------------------------------------------------
# validation


def test_all_fixtures_validate(pipelines):
    for name, (pair, sp, conn) in pipelines.items():
        assert pair.dim == 3
        assert pair.dim_a + pair.rank == 3


def test_heisenberg_center_shape(pipelines):
    pair, sp, conn = pipelines["heisenberg_center"]
    assert pair.a_indices == (2,)
    assert pair.comp == (0, 1)
    # A is central: canonical A-action vanishes
    for k in range(pair.rank):
        assert sp.bott(0, k) == {}


def test_sl2_borel_bott(pipelines):
    pair, sp, conn = pipelines["sl2_borel"]
    # adapted basis: (h, e, f); B-frame: class of f
    assert sp.bott(0, 0) == {0: Fraction(-2)}   # [h, f] = -2f
    assert sp.bott(1, 0) == {}                  # q[e, f] = q(h) = 0


def test_jacobi_failure_rejected():
    # [x,[y,z]] + [y,[z,x]] + [z,[x,y]] = [x,y] = z for this table
    brackets = {(0, 1): {2: 1}, (0, 2): {0: 1}, (1, 2): {0: 1}}
    with pytest.raises(PairError):
        LiePair(3, [0], brackets)


class DenseJacobiPair(LiePair):
    """A LiePair validated by the Jacobi check as first written: dense
    Fraction vectors over all d^3 basis triples, and no subalgebra
    check (the tables below have A = 0)."""

    def bracket(self, x, y):
        """Bracket of coordinate vectors (length-dim sequences)."""
        out = [Fraction(0)] * self.dim
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            for j, yj in enumerate(y):
                if yj == 0:
                    continue
                for k, c in self.bracket_basis(i, j).items():
                    out[k] += xi * yj * c
        return out

    def _validate(self):
        d = self.dim
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    acc = [Fraction(0)] * d
                    for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                        inner = self.bracket_basis(b, c)
                        ei = [Fraction(int(t == a)) for t in range(d)]
                        term = self.bracket(ei, [inner.get(t, Fraction(0))
                                                 for t in range(d)])
                        for t in range(d):
                            acc[t] += term[t]
                    if any(v != 0 for v in acc):
                        raise PairError(
                            "Jacobi identity fails on basis triple (%d,%d,%d)"
                            % (i, j, k))


# Lie algebras of dim 3 on x0, x1, x2: sl2 (h, e, f), so3, Heisenberg
LIE_TABLES = [
    {},
    {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}},
    {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}},
    {(0, 1): {2: 1}},
]


@st.composite
def bracket_tables(draw):
    """A Lie table (or none) in dim 3 to 5, with up to three entries
    set at random on top: both Lie algebras and tables that fail Jacobi
    on some triple."""
    d = draw(st.integers(3, 5))
    table = {ij: dict(c) for ij, c in draw(st.sampled_from(LIE_TABLES))
             .items()}
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.sampled_from(list(itertools.combinations(range(d),
                                                                 2))))
        k = draw(st.integers(0, d - 1))
        table.setdefault((i, j), {})[k] = draw(
            st.fractions(-2, 2, max_denominator=2))
    return d, table


def validation_outcome(cls, d, table):
    try:
        cls(d, (), table)
    except PairError as e:
        return str(e)
    return "valid"


@settings(max_examples=300, deadline=None)
@given(bracket_tables())
def test_jacobi_check_matches_dense_check(case):
    # same accept/reject and the same first failing triple in the message
    d, table = case
    assert validation_outcome(LiePair, d, table) \
        == validation_outcome(DenseJacobiPair, d, table)


def test_non_subalgebra_rejected():
    brackets = {(0, 1): {2: 1}}
    with pytest.raises(PairError):
        LiePair(3, [0, 1], brackets)  # [x,y]=z not in span(x,y)


def test_bad_splitting_rejected(pipelines):
    pair = pipelines["heisenberg_center"][0]
    # j(d_0) = z has q-image 0, violating q(j(b)) = b
    j = [[0, 0], [0, 1], [1, 0]]
    with pytest.raises(PairError):
        Splitting(pair, j)


def test_valid_nontrivial_splitting():
    pair, _, _ = load("sl2_borel")
    # j(fbar) = f + h still projects to fbar
    j2 = [[1], [0], [1]]
    sp2 = Splitting(pair, j2)
    assert sp2.adapted[2] == {0: 1, 2: 1}
    # its canonical A-action is unchanged (it only sees the quotient class)
    sp1 = Splitting(pair)
    assert sp2.bott(0, 0) == sp1.bott(0, 0)


# ---------------------------------------------------------------------------
# the frame change against the dense formula it replaced: dense adapted
# columns, the inverse of the matrix they form, and the dense bracket


def mat_vec(a, v):
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a]


def reference_j(pair):
    """The default splitting's matrix: j(d_k) is the k-th complement
    basis vector."""
    return [[int(i == c) for c in pair.comp] for i in range(pair.dim)]


def dense_frame(pair, jmatrix):
    """(adapted columns, original -> adapted matrix, structure constants)
    of the splitting jmatrix, all dense."""
    d = pair.dim
    adapted = [[Fraction(int(i == a)) for i in range(d)]
               for a in pair.a_indices]
    adapted += [[Fraction(jmatrix[i][k]) for i in range(d)]
                for k in range(pair.rank)]
    to_adapted = mat_inv([[adapted[u][i] for u in range(d)]
                          for i in range(d)])
    struct = {}
    for u, v in itertools.combinations(range(d), 2):
        coords = mat_vec(to_adapted, DenseJacobiPair.bracket(
            pair, adapted[u], adapted[v]))
        if any(coords):
            struct[(u, v)] = {w: c for w, c in enumerate(coords) if c}
    return adapted, to_adapted, struct


def assert_frame_matches_dense(pair, jmatrix):
    sp = Splitting(pair, jmatrix)
    adapted, _, struct = dense_frame(pair, jmatrix)
    assert sp.adapted == [{i: c for i, c in enumerate(col) if c}
                          for col in adapted]
    for u, col in enumerate(sp.adapted):
        assert sp.adapted_coords(col) == {u: 1}, u
    assert sp.struct == struct


def pbw_of(pair, jmatrix, trunc=2):
    sp = Splitting(pair, jmatrix)
    return Pbw(sp, default_connection(sp), trunc)


def assert_relabel_matches_dense(pair, j1, j2):
    # each y-letter of the first normal form expanded over the second
    # adapted frame by the dense conversion matrix, then reduced there
    P1, P2 = pbw_of(pair, j1), pbw_of(pair, j2)
    to_adapted2 = dense_frame(pair, j2)[1]
    conv = [dict(enumerate(mat_vec(to_adapted2, col)))
            for col in dense_frame(pair, j1)[0]]
    to_second = relabel(P1, P2)
    for J in mi_upto(pair.rank, P1.N):
        want = Vec()
        for mono, c in tensor_product(Fraction(3, 2), [
                conv[letter] for letter in P1.y_mono(J)]).items():
            want.iadd_scaled(c, P2.u_reduce(mono))
        assert to_second(Vec({J: Fraction(3, 2)})) == want, J
    # back and forth is the identity on the classes
    back = relabel(P2, P1)
    for J in mi_upto(pair.rank, P1.N):
        x = Vec({J: 1})
        assert back(to_second(x)) == x, J


SHIPPED = sorted(f[:-len(".json")] for f in os.listdir(PAIRS_DIR)
                 if f.endswith(".json"))
# j(fbar) = f + h on sl2_borel (h, e, f; A = <h, e>)
BOREL_J = [[1], [0], [1]]


@pytest.mark.parametrize("name", SHIPPED)
def test_frame_change_matches_dense_formula(name):
    pair = load(name)[0]
    assert_frame_matches_dense(pair, reference_j(pair))
    P = pbw_of(pair, reference_j(pair))
    x = Vec({J: 1 for J in mi_upto(pair.rank, P.N)})
    # one frame: relabel is the identity map itself
    assert relabel(P, P)(x) is x


def test_frame_change_matches_dense_formula_borel_complement():
    pair = load("sl2_borel")[0]
    assert_frame_matches_dense(pair, BOREL_J)
    assert_relabel_matches_dense(pair, reference_j(pair), BOREL_J)
    assert_relabel_matches_dense(pair, BOREL_J, reference_j(pair))


@st.composite
def complements(draw):
    """A shipped pair and two splittings of it: each
    column j(d_k) is d_k's reference vector plus rational A-components."""
    pair = load(draw(st.sampled_from(SHIPPED)))[0]
    entries = st.fractions(-2, 2, max_denominator=3)

    def j():
        out = reference_j(pair)
        for a in pair.a_indices:
            out[a] = [draw(entries) for _ in range(pair.rank)]
        return out
    return pair, j(), j()


@settings(max_examples=40, deadline=None)
@given(complements())
def test_frame_change_matches_dense_formula_random(case):
    pair, j1, j2 = case
    assert_frame_matches_dense(pair, j1)
    assert_relabel_matches_dense(pair, j1, j2)


def test_transposed_inverse_fails_frame_checks(monkeypatch):
    # negative control: with the transpose of the inverse in place of the
    # inverse, the adapted columns no longer read as unit vectors
    pair = load("sl2_borel")[0]
    monkeypatch.setattr(liepair, "mat_inv", lambda a: [
        list(col) for col in zip(*mat_inv(a))])
    with pytest.raises(AssertionError):
        assert_frame_matches_dense(pair, BOREL_J)
    sp = Splitting(pair, BOREL_J)
    assert sp.adapted_coords(sp.adapted[2]) != {2: 1}
    assert sp.struct != dense_frame(pair, BOREL_J)[2]


# ---------------------------------------------------------------------------
# connections


def test_default_connection_extends_and_torsion_free(pipelines):
    for name, (pair, sp, conn) in pipelines.items():
        ok, w = conn.extends_bott()
        assert ok, (name, w)
        ok, w = conn.is_torsion_free()
        assert ok, (name, w)


def test_default_connection_values(pipelines):
    pair, sp, conn = pipelines["heisenberg_center"]
    assert all(all(all(v == 0 for v in row) for row in plane)
               for plane in conn.gamma)
    pair, sp, conn = pipelines["abelian"]
    assert all(all(all(v == 0 for v in row) for row in plane)
               for plane in conn.gamma)
    pair, sp, conn = pipelines["sl2_borel"]
    assert conn.nabla(0, 0) == {0: Fraction(-2)}   # along h
    assert conn.nabla(2, 0) == {}                  # along j(fbar): q[f,f]/2


def test_curvature_flat_cases(pipelines):
    for name in ("heisenberg_center", "abelian"):
        pair, sp, conn = pipelines[name]
        for u in range(pair.dim):
            for v in range(pair.dim):
                for b in range(pair.rank):
                    assert curvature(conn, u, v, b) == {}


def test_torsionful_connection_detected(pipelines):
    pair, sp, conn = pipelines["heisenberg_center"]
    gamma = [[[Fraction(v) for v in row] for row in plane]
             for plane in conn.gamma]
    # antisymmetric perturbation in two B-directions creates torsion
    gamma[pair.dim_a + 0][1][0] += 1
    bad = Connection(sp, gamma)
    ok, witness = bad.is_torsion_free()
    assert not ok
    assert witness is not None


# ---------------------------------------------------------------------------
# CE differentials


def test_d_a_bott_squares_to_zero(pipelines):
    for name, (pair, sp, conn) in pipelines.items():
        for key in t_complex_keys(sp):
            x = Vec({key: 1})
            assert d_a_bott(sp, d_a_bott(sp, x)).is_zero(), (name, key)


def test_d_a_bott_heisenberg_center_vanishes(pipelines):
    pair, sp, conn = pipelines["heisenberg_center"]
    for key in t_complex_keys(sp):
        assert d_a_bott(sp, Vec({key: 1})).is_zero()


def test_d_a_bott_sl2_borel_value(pipelines):
    pair, sp, conn = pipelines["sl2_borel"]
    fa = a_form_algebra(pair)
    one_f = Vec({(fa.unit_word(), (0,)): 1})
    got = d_a_bott(sp, one_f)
    alpha_h = fa.odd_word(0, 0)
    assert got == Vec({(alpha_h, (0,)): Fraction(-2)})


def test_d_a_scalar_restriction(pipelines):
    # with scalar coefficients the differential is the plain CE one; for a
    # 1-dim or abelian A it vanishes on generators of degree 0
    pair, sp, conn = pipelines["heisenberg_center"]
    fa = a_form_algebra(pair)
    assert d_a_scalar(sp, fa.one()).is_zero()
    # sl2_borel: A = <h, e>, [h, e] = 2e so d(alpha_e) = -2 alpha_h ^ alpha_e
    pair, sp, conn = pipelines["sl2_borel"]
    fa = a_form_algebra(pair)
    got = d_a_scalar(sp, Vec({fa.odd_word(0, 1): 1}))
    assert got == Vec({fa.make_word([(0, 1)], ()): Fraction(-2)})
    got = d_a_scalar(sp, Vec({fa.odd_word(0, 0): 1}))
    assert got.is_zero()
    # d_A squares to zero on everything
    for w in fa.words(max_weight=0):
        assert d_a_scalar(sp, d_a_scalar(sp, Vec({w: 1}))).is_zero()


def test_bott_action_derivation_property(pipelines):
    # the A-action on exterior powers extends the action on B as a derivation
    pair, sp, conn = pipelines["sl2_h"]
    act = bott_action_on_lambda_b(sp)
    got = act(0, (0, 1))  # h . (ebar ^ fbar)
    # [h,e]=2e, [h,f]=-2f: weights cancel
    assert got.is_zero()
    assert act(0, (0,)) == Vec({(0,): Fraction(2)})
    assert act(0, (1,)) == Vec({(1,): Fraction(-2)})


def test_parse_rejects_bad_connection(pipelines):
    with open(os.path.join(PAIRS_DIR, "heisenberg_center.json")) as f:
        spec = json.load(f)
    spec["connection"] = [[[ "1", "0"], ["0", "0"]],
                          [["0", "0"], ["0", "0"]],
                          [["0", "0"], ["0", "0"]]]
    with pytest.raises(PairError):
        parse_pair_spec(spec)
