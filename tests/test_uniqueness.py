from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liepairs.cli import Pipeline, second_choice
from liepairs.core import Vec, mi_upto, mi_weight, mi_zero
from liepairs.liepair import Splitting, default_connection
from liepairs import uniqueness
from liepairs.uniqueness import Uniqueness

from helpers import N, d_chain_defect, d_small_keys, delta, pipeline


def second_pipeline(name, p):
    """The pipeline of a second admissible (complement, connection)
    choice: the second connection of the report on the same complement
    for the Heisenberg pair, and a genuinely different complement for
    the Borel pair."""
    if name == "heisenberg_center":
        return Pipeline(p.sp, second_choice(p.sp, p.conn), N)
    sp2 = Splitting(p.sp.pair, [[1], [0], [1]])
    return Pipeline(sp2, default_connection(sp2), N)


@pytest.fixture(scope="module")
def setups():
    out = {}
    for name in ("heisenberg_center", "sl2_borel"):
        p = pipeline(name)
        p2 = second_pipeline(name, p)
        out[name] = (p.sp, p2.sp, Uniqueness(p.D, p2.D), p.pd, p2.pd)
    return out


def test_second_choices_admissible(setups):
    for name, (sp, sp2, uni, pd1, pd2) in setups.items():
        conn2 = uni.D2.conn
        ok, witness = conn2.is_torsion_free()
        assert ok, (name, witness)
        ok, witness = conn2.extends_bott()
        assert ok, (name, witness)


def test_relabel_built_once_per_uniqueness(setups, monkeypatch):
    # the two Pbws are fixed for a Uniqueness, so the conversion between
    # their normal forms is built once, however many keys are relabelled
    calls = []
    real = uniqueness.relabel

    def counted(src, dst):
        calls.append((src, dst))
        return real(src, dst)

    monkeypatch.setattr(uniqueness, "relabel", counted)
    uni = setups["sl2_borel"][2]
    D1, D2 = uni.D1, uni.D2
    uni2 = Uniqueness(D1, D2)
    for k in d_small_keys(D1.sp):
        assert uni2.small_relabel(Vec({k: 1})) == \
            uni.small_relabel(Vec({k: 1}))
    assert calls == [(D1.P, D2.P)]


def test_identical_choices_trivial():
    p = pipeline("heisenberg_center")
    uni = Uniqueness(p.D, p.D)
    for w in uni.W1.alg.words(max_weight=2):
        x = Vec({w: 1})
        assert (uni.map_scalar(x) - x).is_zero()
    for J in mi_upto(p.sp.r, 2):
        x = Vec({(uni.D1.alg.unit_word(), (J,)): 1})
        assert (uni.map_d(x) - x).is_zero()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_map_scalar_is_multiplicative(setups, data):
    # frame change and dual automorphism make an algebra map: the image
    # of a product of words is the product of their images
    name = data.draw(st.sampled_from(sorted(setups)))
    uni = setups[name][2]
    A1, A2 = uni.W1.alg, uni.W2.alg
    words = st.sampled_from(list(A1.words()))
    x, y = Vec({data.draw(words): 1}), Vec({data.draw(words): 1})
    assert (uni.map_scalar(A1.mul(x, y))
            == A2.mul(uni.map_scalar(x), uni.map_scalar(y))), (name, x, y)


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
        for key in d_small_keys(sp):
            x = Vec({key: 1})
            got = uni.composition(pd1, pd2, x)
            assert (got - uni.small_relabel(x)).is_zero(), (name, key)


def test_relabel_trivial_for_shared_complement(setups):
    sp, sp2, uni, pd1, pd2 = setups["heisenberg_center"]
    for key in d_small_keys(sp):
        x = Vec({key: 1})
        assert (uni.small_relabel(x) - x).is_zero(), key


def test_wrong_transport_detected(setups):
    # negative control: dropping the frame correction of the transport
    # breaks the chain-map property at low weight
    sp, sp2, uni, pd1, pd2 = setups["sl2_borel"]
    alg = uni.W2.alg

    def bad_map(x):
        out = Vec()
        for w, c in x.items():
            series = uni.dual[w[-1]]
            out += alg.mul(Vec({w[:-1] + (mi_zero(sp.r),): c}), Vec(
                (alg.even_word(J), cj) for J, cj in series.items()))
        return out

    q1 = lambda y: -1 * delta(uni.W1, y) + uni.W1.rho(y)
    q2 = lambda y: -1 * delta(uni.W2, y) + uni.W2.rho(y)
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
