import itertools
import json
import os
from fractions import Fraction

import pytest

from liepairs.contraction import d_contraction, d_perturbation
from liepairs.core import Vec, mi_upto, mi_weight, mi_zero
from liepairs.liepair import (
    Connection, Splitting, a_form_algebra, default_connection,
    parse_pair_spec,
)
from liepairs.uniqueness import Uniqueness

from helpers import d_chain_defect

PAIRS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "pairs")
N = 5


def load(name):
    with open(os.path.join(PAIRS_DIR, name + ".json")) as f:
        return parse_pair_spec(json.load(f))


def second_choice(name, pair, sp, conn):
    """A second admissible (complement, connection) choice: a perturbed
    torsion-free connection on the same complement for the Heisenberg
    pair, and a genuinely different complement for the Borel pair."""
    if name == "heisenberg_center":
        gamma = [[list(row) for row in bl] for bl in conn.gamma]
        gamma[sp.m + 0][0][0] += 1
        return sp, Connection(sp, gamma)
    sp2 = Splitting(pair, [[1], [0], [1]])
    return sp2, default_connection(sp2)


def small_d_keys(sp, max_cls=2):
    fa = a_form_algebra(sp.pair)
    clsets = [(J,) for J in mi_upto(sp.r, max_cls)]
    clsets += list(itertools.product(list(mi_upto(sp.r, 1)), repeat=2))
    return [(fw, cls) for fw in fa.words(max_weight=0) for cls in clsets]


@pytest.fixture(scope="module")
def setups():
    out = {}
    for name in ("heisenberg_center", "sl2_borel"):
        pair, sp, conn = load(name)
        sp2, conn2 = second_choice(name, pair, sp, conn)
        uni = Uniqueness(sp, conn, sp2, conn2, trunc=N)
        pd1 = d_contraction(uni.D1).perturb(d_perturbation(uni.D1))
        pd2 = d_contraction(uni.D2).perturb(d_perturbation(uni.D2))
        out[name] = (sp, sp2, uni, pd1, pd2)
    return out


def test_second_choices_admissible(setups):
    for name, (sp, sp2, uni, pd1, pd2) in setups.items():
        conn2 = uni.D2.conn
        ok, witness = conn2.is_torsion_free()
        assert ok, (name, witness)
        ok, witness = conn2.extends_bott()
        assert ok, (name, witness)


def test_identical_choices_trivial():
    pair, sp, conn = load("heisenberg_center")
    uni = Uniqueness(sp, conn, sp, conn, trunc=N)
    for w in uni.W1.alg.words(max_weight=2):
        x = Vec({w: 1})
        assert (uni.map_scalar(x) - x).is_zero()
    for J in mi_upto(sp.r, 2):
        x = Vec({(uni.D1.alg.unit_word(), (J,)): 1})
        assert (uni.map_d(x) - x).is_zero()


def test_scalar_intertwining(setups):
    # the transported flat differential agrees with the second one; any
    # discrepancy lives beyond the truncation weight
    for name, (sp, sp2, uni, pd1, pd2) in setups.items():
        for w in uni.W1.alg.words(max_weight=3):
            d = uni.scalar_chain_defect(Vec({w: 1}))
            for k, c in d.items():
                assert mi_weight(k[-1]) >= N, (name, w, k, c)


def test_operator_intertwining(setups):
    # same statement one level up, on vertical operator elements; the
    # defect window accounts for the weight consumed by the slots
    for name, (sp, sp2, uni, pd1, pd2) in setups.items():
        keys = []
        for w in uni.D1.alg.words(max_weight=2):
            for J in mi_upto(sp.r, 2):
                keys.append((w, (J,)))
        for key in keys[::3]:
            d = d_chain_defect(uni, Vec({key: 1}))
            for k, c in d.items():
                tot = (mi_weight(k[0][-1])
                       + sum(mi_weight(K) for K in k[1]))
                assert tot >= N - 1, (name, key, k, c)


def test_slot_conjugation_leading_term(setups):
    # the conjugated slot operator lowers series weight by at most the
    # original amount, and the weight-graded leading part is the
    # original operator with coefficient one
    for name, (sp, sp2, uni, pd1, pd2) in setups.items():
        for J in mi_upto(sp.r, 3):
            table = uni.conj_slot(J)
            lead = {(M, K): c for (M, K), c in table.items()
                    if mi_weight(M) - mi_weight(K) == -mi_weight(J)}
            assert lead == {(mi_zero(sp.r), J): Fraction(1)}, (name, J)
            for (M, K), c in table.items():
                assert mi_weight(M) - mi_weight(K) >= -mi_weight(J), \
                    (name, J, M, K)


def test_composition_is_identity(setups):
    # second projection, transport isomorphism, first perturbed
    # inclusion: the identity once both label systems name the classes
    # in the same normal form
    for name, (sp, sp2, uni, pd1, pd2) in setups.items():
        for key in small_d_keys(sp):
            x = Vec({key: 1})
            got = uni.composition(pd1, pd2, x)
            assert (got - uni.small_relabel(x)).is_zero(), (name, key)


def test_relabel_trivial_for_shared_complement(setups):
    sp, sp2, uni, pd1, pd2 = setups["heisenberg_center"]
    for key in small_d_keys(sp):
        x = Vec({key: 1})
        assert (uni.small_relabel(x) - x).is_zero(), key


def test_wrong_transport_detected(setups):
    # negative control: dropping the frame correction of the transport
    # breaks the chain-map property at low weight
    sp, sp2, uni, pd1, pd2 = setups["sl2_borel"]
    alg = uni.W2.alg

    def bad_map(x):
        out = Vec(truncated=x.truncated)
        for w, c in x.items():
            series = uni._apply_table(uni.dual, Vec({w[-1]: Fraction(1)}))
            img = alg.mul(Vec({w[:-1] + (mi_zero(sp.r),): c}), Vec(
                ((alg.even_word(J), cj) for J, cj in series.items()),
                truncated=series.truncated))
            out += img
        return out

    q1 = lambda y: -1 * uni.W1.delta(y) + uni.W1.rho(y)
    q2 = lambda y: -1 * uni.W2.delta(y) + uni.W2.rho(y)
    witness = None
    for w in uni.W1.alg.words(max_weight=2):
        d = bad_map(q1(Vec({w: 1}))) - q2(bad_map(Vec({w: 1})))
        for k, c in d.items():
            if mi_weight(k[-1]) < N:
                witness = (w, k, c)
                break
        if witness:
            break
    assert witness is not None
