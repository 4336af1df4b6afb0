import json
import os
from fractions import Fraction

import pytest

from liepairs.core import EVEN, Vec, mi_unit, mi_weight, mi_zero
from liepairs.liepair import a_form_algebra, d_a_bott, parse_pair_spec
from liepairs.tpoly import TPoly

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
        out[name] = TPoly(sp, conn, trunc=N)
    return out


def all_words(T, wmax=N):
    return list(T.alg.words(max_weight=wmax))


# ---------------------------------------------------------------------------
# the lifted contraction


def test_lifted_contraction_identities(machines):
    for name, T in machines.items():
        for w in all_words(T):
            x = Vec({w: 1})
            wt = mi_weight(w[-1])
            assert T.delta(T.delta(x)).is_zero(), (name, w)
            if wt <= N - 2:
                assert T.h(T.h(x)).is_zero(), (name, w)
            if wt <= N - 1:
                assert T.sigma(T.h(x)).is_zero(), (name, w)
                lhs = x - T.tau(T.sigma(x))
                rhs = T.h(T.delta(x)) + T.delta(T.h(x))
                assert lhs == rhs, (name, w)


def test_lifted_q_squares_to_zero(machines):
    # the xi-images are built from a chi-derivative of the scalar images,
    # which costs one unit of truncation slack; exactness holds one weight
    # lower than in the scalar resolution
    for name, T in machines.items():
        for w in all_words(T, wmax=N - 2):
            x = Vec({w: 1})
            qq = T.q_op(T.q_op(x))
            assert T.restrict_weight(qq, N - 2).is_zero(), (name, w)


def test_lift_preserves_polyvector_degree(machines):
    for name, T in machines.items():
        for w in all_words(T, wmax=2):
            p = len(w[2])
            for y, c in T.q_op(Vec({w: 1})).items():
                assert len(y[2]) == p, (name, w, y)


def test_lift_restricts_to_scalar_operators(machines):
    # on xi-free words the lift is the scalar resolution differential
    for name, T in machines.items():
        for w in T.W.alg.words(max_weight=N - 1):
            x = Vec({w: 1})
            assert T.q_op(T.embed(x)) == T.embed(T.W.q_op(x)), (name, w)


def test_small_projection_roundtrip(machines):
    for name, T in machines.items():
        fa = a_form_algebra(T.sp.pair)
        import itertools
        for fw in fa.words(max_weight=0):
            for q in range(T.r + 1):
                for xs in itertools.combinations(range(T.r), q):
                    x = Vec({(fw, xs): 1})
                    assert T.project_small(T.include_small(x)) == x


def test_naive_transferred_differential_is_bott(machines):
    # sigma q tau on the small complex already gives the CE differential
    # with polyvector coefficients (corrections start in higher weight)
    import itertools
    for name, T in machines.items():
        fa = a_form_algebra(T.sp.pair)
        for fw in fa.words(max_weight=0):
            for q in range(T.r + 1):
                for xs in itertools.combinations(range(T.r), q):
                    x = Vec({(fw, xs): 1})
                    got = T.project_small(T.q_op(T.include_small(x)))
                    assert got == d_a_bott(T.sp, x), (name, fw, xs)


# ---------------------------------------------------------------------------
# the Schouten bracket


def sample_words(T):
    out = []
    r = T.r
    a_opts = [(), (0,)]
    b_opts = [(), (0,)]
    x_opts = [(), (0,)] + ([(1,), (0, 1)] if r > 1 else [])
    J_opts = [mi_zero(r), mi_unit(r, 0)]
    if r > 1:
        J_opts.append(mi_unit(r, 1))
        J_opts.append((1, 1))
    else:
        J_opts.append((2,))
    for a in a_opts:
        for b in b_opts:
            for x in x_opts:
                for J in J_opts:
                    out.append((a, b, x, J))
    return out


def test_schouten_antisymmetry(machines):
    for name in ("sl2_h", "sl2_borel"):
        T = machines[name]
        ws = sample_words(T)
        for wu in ws:
            for wv in ws:
                u, v = Vec({wu: 1}), Vec({wv: 1})
                s = -1 if ((T.deg(wu) - 1) * (T.deg(wv) - 1)) % 2 else 1
                assert (T.schouten(u, v) + s * T.schouten(v, u)).is_zero(), \
                    (name, wu, wv)


def test_schouten_jacobi(machines):
    for name in ("sl2_h",):
        T = machines[name]
        ws = sample_words(T)[::3]
        for wu in ws:
            for wv in ws:
                for ww in ws:
                    u, v = Vec({wu: 1}), Vec({wv: 1})
                    w = Vec({ww: 1})
                    s = -1 if ((T.deg(wu) - 1) * (T.deg(wv) - 1)) % 2 else 1
                    lhs = T.schouten(u, T.schouten(v, w))
                    rhs = T.schouten(T.schouten(u, v), w) \
                        + s * T.schouten(v, T.schouten(u, w))
                    assert lhs == rhs, (name, wu, wv, ww)


def test_schouten_leibniz(machines):
    for name in ("sl2_h",):
        T = machines[name]
        ws = sample_words(T)[::2]
        for wu in ws:
            for wv in ws:
                for ww in ws:
                    u, v = Vec({wu: 1}), Vec({wv: 1})
                    w = Vec({ww: 1})
                    s = -1 if ((T.deg(wu) - 1) * T.deg(wv)) % 2 else 1
                    lhs = T.schouten(u, T.alg.mul(v, w))
                    rhs = T.alg.mul(T.schouten(u, v), w) \
                        + s * T.alg.mul(v, T.schouten(u, w))
                    assert lhs == rhs, (name, wu, wv, ww)


def test_schouten_vector_field_commutator(machines):
    # on one-vectors with polynomial coefficients the bracket is the
    # commutator of the corresponding vertical derivations
    for name, T in machines.items():
        r = T.r
        cases = [(mi_unit(r, 0), 0, (2,) + (0,) * (r - 1), 0)]
        if r > 1:
            cases += [(mi_unit(r, 0), 1, mi_unit(r, 1), 0),
                      ((1, 1), 0, (0, 2), 1)]
        for Ju, a, Kv, b in cases:
            u = Vec({((), (), (a,), Ju): Fraction(1)})
            v = Vec({((), (), (b,), Kv): Fraction(1)})
            got = T.schouten(u, v)
            exp = Vec()
            if Kv[a] > 0:
                K2 = list(Kv)
                K2[a] -= 1
                exp.iadd_term(((), (), (b,),
                               tuple(x + y for x, y in zip(Ju, K2))),
                              Fraction(Kv[a]))
            if Ju[b] > 0:
                J2 = list(Ju)
                J2[b] -= 1
                exp.iadd_term(((), (), (a,),
                               tuple(x + y for x, y in zip(Kv, J2))),
                              Fraction(-Ju[b]))
            assert got == exp, (name, Ju, a, Kv, b)


def test_q_is_derivation_of_schouten(machines):
    for name in ("sl2_h", "heisenberg_x"):
        T = machines[name]
        ws = [w for w in sample_words(T) if mi_weight(w[-1]) <= 1]
        for wu in ws[::2]:
            for wv in ws[::2]:
                u, v = Vec({wu: 1}), Vec({wv: 1})
                s = -1 if (T.deg(wu) - 1) % 2 else 1
                lhs = T.q_op(T.schouten(u, v))
                rhs = T.schouten(T.q_op(u), v) \
                    + s * T.schouten(u, T.q_op(v))
                assert T.restrict_weight(lhs - rhs, N - 2).is_zero(), \
                    (name, wu, wv)


# ---------------------------------------------------------------------------
# the lifted tables against their first construction: the scalar d and
# X images embedded one by one, then the commutator action on the xi


def old_rho_images(T):
    W, r = T.W, T.r
    images = {g: T.embed(img) for g, img in W._d_images.items()}
    for k in range(r):
        xk = W.x_vert[k]
        if xk:
            prev = images.get((EVEN, k), Vec())
            images[(EVEN, k)] = prev + T.embed(xk)
    c_vert = W.vertical_commutator()
    for j in range(r):
        img = Vec()
        for k in range(r):
            if c_vert[j][k]:
                img += T.alg.mul(T.embed(c_vert[j][k]),
                                 Vec({T.alg.odd_word(2, k): Fraction(1)}))
        if img:
            images[(2, j)] = img
    return images


def test_lifted_tables_match_first_construction(machines):
    pair, sp, conn = load("sl3_borel")
    cases = list(machines.items()) + [("sl3_borel", TPoly(sp, conn, 3))]
    for name, T in cases:
        assert T._rho_images == old_rho_images(T), name
        for g, img in T._rho_images.items():
            assert T._q_images[g] == img - T._delta_images.get(g, Vec()), \
                (name, g)
        assert set(T._q_images) == set(T._rho_images) | set(T._delta_images)


def test_lifted_q_is_minus_delta_plus_rho(machines):
    for name, T in machines.items():
        for w in all_words(T, wmax=N + 1):
            x = Vec({w: Fraction(-2, 3)})
            q = T.q_op(x)
            want = -1 * T.delta(x) + T.rho(x)
            assert q == want and q.truncated == want.truncated, (name, w)
