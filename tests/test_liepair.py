import itertools
import json
import os
from fractions import Fraction

import pytest

from liepairs.core import Vec
from liepairs.liepair import (
    Connection, LiePair, PairError, Splitting, a_form_algebra,
    bott_action_on_lambda_b, d_a_bott, default_connection,
    parse_pair_spec,
)

from helpers import curvature, d_a_scalar

PAIRS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "pairs")
FIXTURES = ["heisenberg_center", "heisenberg_x", "sl2_borel", "sl2_h",
            "abelian"]


def load(name):
    with open(os.path.join(PAIRS_DIR, name + ".json")) as f:
        return parse_pair_spec(json.load(f))


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
    assert sp2.adapted[2] == [Fraction(1), Fraction(0), Fraction(1)]
    # its canonical A-action is unchanged (it only sees the quotient class)
    sp1 = Splitting(pair)
    assert sp2.bott(0, 0) == sp1.bott(0, 0)


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


def basis_keys(sp, max_q):
    fa = a_form_algebra(sp.pair)
    fwords = [w for w in fa.words(max_weight=0)]
    cks = [t for q in range(max_q + 1)
           for t in itertools.combinations(range(sp.r), q)]
    return [(fw, ck) for fw in fwords for ck in cks]


def test_d_a_bott_squares_to_zero(pipelines):
    for name, (pair, sp, conn) in pipelines.items():
        for key in basis_keys(sp, sp.r):
            x = Vec({key: 1})
            assert d_a_bott(sp, d_a_bott(sp, x)).is_zero(), (name, key)


def test_d_a_bott_heisenberg_center_vanishes(pipelines):
    pair, sp, conn = pipelines["heisenberg_center"]
    for key in basis_keys(sp, sp.r):
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
    import copy
    with open(os.path.join(PAIRS_DIR, "heisenberg_center.json")) as f:
        spec = json.load(f)
    spec["connection"] = [[[ "1", "0"], ["0", "0"]],
                          [["0", "0"], ["0", "0"]],
                          [["0", "0"], ["0", "0"]]]
    with pytest.raises(PairError):
        parse_pair_spec(spec)
