import json
import os
from fractions import Fraction

import pytest

from liepairs.core import Vec, mi_unit, mi_upto, mi_weight, mi_zero
from liepairs.dpoly import DPoly, multi_splits
from liepairs.liepair import parse_pair_spec
from liepairs.pbw import d_a_u

from helpers import dual_nabla_chi, evaluate

PAIRS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "pairs")
FIXTURES = ["heisenberg_center", "heisenberg_x", "sl2_borel", "sl2_h",
            "abelian"]
N = 5


def load(name):
    with open(os.path.join(PAIRS_DIR, name + ".json")) as f:
        return parse_pair_spec(json.load(f))


@pytest.fixture(scope="module")
def machines():
    out = {}
    for name in FIXTURES:
        pair, sp, conn = load(name)
        out[name] = DPoly(sp, conn, trunc=N)
    return out


def sample_keys(D):
    r = D.r
    words = []
    for a in [(), (0,)]:
        for b in [(), (0,)]:
            for J in [mi_zero(r), mi_unit(r, 0)]:
                words.append((a, b, J))
    e0 = mi_unit(r, 0)
    e1 = mi_unit(r, r - 1)
    slotsets = [(mi_zero(r),), (e0,), (tuple(a + b for a, b in zip(e0, e0)),),
                (mi_zero(r), e1), (e0, e1),
                (mi_zero(r), mi_zero(r), e0)]
    return [(w, S) for w in words for S in slotsets]


def restrict(D, x, wmax):
    return D.restrict_weight(x, wmax)


def slot_weight(key):
    return max(mi_weight(J) for J in key[1])


def test_multi_splits_counts():
    assert multi_splits((2,), 2) == [(((0,), (2,)), 1), (((1,), (1,)), 2),
                                     (((2,), (0,)), 1)]
    total = sum(c for _, c in multi_splits((1, 1), 3))
    assert total == 9  # 3^|J| ordered assignments


# ---------------------------------------------------------------------------
# the lifted differential and the insertion coboundary


def test_q_squares_to_zero(machines):
    # each unit of slot weight costs one unit of truncation slack: the
    # commutator action differentiates the coefficient once per letter
    for name, D in machines.items():
        for key in sample_keys(D):
            if mi_weight(key[0][-1]) > 2:
                continue
            x = Vec({key: 1})
            qq = D.q_op(D.q_op(x))
            assert restrict(D, qq, N - 1 - slot_weight(key)).is_zero(), \
                (name, key)


def test_d_h_squares_to_zero(machines):
    for name, D in machines.items():
        for key in sample_keys(D):
            x = Vec({key: 1})
            assert D.d_h(D.d_h(x)).is_zero(), (name, key)


def test_d_h_is_bracket_with_multiplication(machines):
    for name, D in machines.items():
        m_el = D.mult_element()
        for key in sample_keys(D):
            x = Vec({key: 1})
            assert D.d_h(x) == D.gerst(m_el, x), (name, key)


def test_q_anticommutes_with_d_h(machines):
    for name, D in machines.items():
        for key in sample_keys(D):
            if mi_weight(key[0][-1]) > 2:
                continue
            x = Vec({key: 1})
            ac = D.q_op(D.d_h(x)) + D.d_h(D.q_op(x))
            assert restrict(D, ac, N - 1 - slot_weight(key)).is_zero(), \
                (name, key)


def test_rho_annihilates_multiplication_element(machines):
    for name, D in machines.items():
        m_el = D.mult_element()
        assert D.rho(m_el).is_zero(), name
        assert D.q_op(m_el).is_zero(), name


# ---------------------------------------------------------------------------
# the bracket


def test_gerst_antisymmetry(machines):
    D = machines["sl2_h"]
    keys = sample_keys(D)
    for k1 in keys[::2]:
        for k2 in keys[::2]:
            x, y = Vec({k1: 1}), Vec({k2: 1})
            s = -1 if (D.deg(k1) * D.deg(k2)) % 2 else 1
            assert (D.gerst(x, y) + s * D.gerst(y, x)).is_zero(), (k1, k2)


def test_gerst_jacobi(machines):
    D = machines["sl2_h"]
    keys = sample_keys(D)[::5]
    for k1 in keys:
        for k2 in keys:
            for k3 in keys:
                x, y, z = Vec({k1: 1}), Vec({k2: 1}), Vec({k3: 1})
                s = -1 if (D.deg(k1) * D.deg(k2)) % 2 else 1
                lhs = D.gerst(x, D.gerst(y, z))
                rhs = D.gerst(D.gerst(x, y), z) \
                    + s * D.gerst(y, D.gerst(x, z))
                assert lhs == rhs, (k1, k2, k3)


def test_q_is_derivation_of_gerst(machines):
    for name in ("sl2_h", "heisenberg_x"):
        D = machines[name]
        keys = sample_keys(D)
        for k1 in keys[::4]:
            for k2 in keys[::4]:
                if mi_weight(k1[0][-1]) + mi_weight(k2[0][-1]) > 1:
                    continue
                x, y = Vec({k1: 1}), Vec({k2: 1})
                s = -1 if D.deg(k1) % 2 else 1
                wmax = N - 1 - slot_weight(k1) - slot_weight(k2)
                lhs = D.q_op(D.gerst(x, y))
                rhs = D.gerst(D.q_op(x), y) + s * D.gerst(x, D.q_op(y))
                assert restrict(D, lhs - rhs, wmax).is_zero(), \
                    (name, k1, k2)


def test_arity_zero_star_is_composition(machines):
    D = machines["sl2_h"]
    r = D.r
    f = Vec({(2, 1): Fraction(1), (0, 3): Fraction(2), (1, 0): Fraction(-3)})
    for J1 in [(1, 0), (1, 1)]:
        for J2 in [(0, 1), (2, 0)]:
            for I1 in [(0, 0), (1, 0)]:
                for I2 in [(0, 0), (0, 2)]:
                    phi = Vec({(((), (), I1), (J1,)): Fraction(1)})
                    psi = Vec({(((), (), I2), (J2,)): Fraction(1)})
                    inner = evaluate(D, psi, (f,))
                    inner_poly = Vec({w[-1]: c for w, c in inner.items()})
                    lhs = evaluate(D, D.star(phi, psi), (f,))
                    rhs = evaluate(D, phi, (inner_poly,))
                    assert lhs == rhs, (J1, J2, I1, I2)


# ---------------------------------------------------------------------------
# identities feeding the transferred structure


def test_vertical_connection_bracket_projects_to_action(machines):
    # the constant-coefficient part of the bracket of the flat-connection
    # element along A with a slot monomial is the connection acting on it
    for name, D in machines.items():
        r = D.r
        for s in range(D.m):
            e_a = Vec()
            for k in range(r):
                for M, c in dual_nabla_chi(D.P, s, k).items():
                    e_a.iadd_term((((), (), M), (mi_unit(r, k),)), c)
            for J in mi_upto(r, 3):
                dJ = Vec({(D.alg.unit_word(), (J,)): Fraction(1)})
                got = Vec()
                for (w, slots), c in D.gerst(e_a, dJ).items():
                    if mi_weight(w[-1]) == 0 and not w[0] and not w[1]:
                        got.iadd_term(slots[0], c)
                exp = D.P.nabla_flash(s, Vec({J: Fraction(1)}))
                assert got == exp, (name, s, J)


def test_small_projection_roundtrip(machines):
    import itertools
    for name, D in machines.items():
        r = D.r
        fwords = [((), ())] + [(((s,), ())) for s in range(D.m)]
        for fw in fwords:
            for cls in itertools.product(list(mi_upto(r, 1)), repeat=2):
                x = Vec({(fw, cls): 1})
                assert D.project_small(D.include_small(x)) == x, (name, fw)


def test_naive_transferred_differential(machines):
    # projecting rho of an included small element gives the CE part with
    # the enveloping-module action plus nothing else in weight zero
    import itertools
    for name, D in machines.items():
        r = D.r
        fwords = [((), ())] + [(((s,), ())) for s in range(D.m)]
        clsets = [(J,) for J in mi_upto(r, 2)]
        clsets += [t for t in itertools.product(list(mi_upto(r, 1)),
                                                repeat=2)]
        for fw in fwords:
            for cls in clsets:
                x = Vec({(fw, cls): 1})
                got = D.project_small(D.rho(D.include_small(x)))
                assert got == d_a_u(D.P, x), (name, fw, cls)


def test_dh_small_squares_to_zero_and_matches_projection(machines):
    import itertools
    for name, D in machines.items():
        r = D.r
        fwords = [((), ())] + [(((s,), ())) for s in range(D.m)]
        clsets = [(J,) for J in mi_upto(r, 2)]
        clsets += [t for t in itertools.product(list(mi_upto(r, 1)),
                                                repeat=2)]
        for fw in fwords:
            for cls in clsets:
                x = Vec({(fw, cls): 1})
                assert D.dh_small(D.dh_small(x)).is_zero(), (name, fw, cls)
                # the insertion coboundary commutes with the projection
                got = D.project_small(D.d_h(D.include_small(x)))
                assert got == D.dh_small(x), (name, fw, cls)


def test_small_total_differential_squares_to_zero(machines):
    import itertools
    for name, D in machines.items():
        r = D.r

        def d_small(x):
            return d_a_u(D.P, x) + D.dh_small(x)

        fwords = [((), ())] + [(((s,), ())) for s in range(D.m)]
        clsets = [(J,) for J in mi_upto(r, 2)]
        clsets += [t for t in itertools.product(list(mi_upto(r, 1)),
                                                repeat=2)]
        for fw in fwords:
            for cls in clsets:
                x = Vec({(fw, cls): 1})
                assert d_small(d_small(x)).is_zero(), (name, fw, cls)
