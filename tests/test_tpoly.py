from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liepairs.core import EVEN, Vec, mi_unit, mi_weight, mi_zero
from liepairs.liepair import a_form_algebra, d_a_bott

from liepairs.cohomology import t_complex_keys

from helpers import (
    FIXTURES, N, assert_window_is_restriction, delta, pipeline, plain,
)


@pytest.fixture(scope="module")
def machines():
    return {name: pipeline(name).T for name in FIXTURES}


def all_words(T, wmax=N):
    return list(T.alg.words(max_weight=wmax))


# ---------------------------------------------------------------------------
# the lifted contraction


def test_lifted_contraction_identities(machines):
    for name, T in machines.items():
        for w in all_words(T):
            x = Vec({w: 1})
            wt = mi_weight(w[-1])
            assert delta(T, delta(T, x)).is_zero(), (name, w)
            if wt <= N - 2:
                assert T.h(T.h(x)).is_zero(), (name, w)
            if wt <= N - 1:
                assert T.sigma(T.h(x)).is_zero(), (name, w)
                lhs = x - T.tau(T.sigma(x))
                rhs = T.h(delta(T, x)) + delta(T, T.h(x))
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
                assert (plain(T, u, v) + s * plain(T, v, u)).is_zero(), \
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
                    lhs = plain(T, u, plain(T, v, w))
                    rhs = plain(T, plain(T, u, v), w) \
                        + s * plain(T, v, plain(T, u, w))
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
                    lhs = plain(T, u, T.alg.mul(v, w))
                    rhs = T.alg.mul(plain(T, u, v), w) \
                        + s * T.alg.mul(v, plain(T, u, w))
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
            got = plain(T, u, v)
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
                lhs = T.q_op(plain(T, u, v))
                rhs = plain(T, T.q_op(u), v) \
                    + s * plain(T, u, T.q_op(v))
                assert T.restrict_weight(lhs - rhs, N - 2).is_zero(), \
                    (name, wu, wv)


# ---------------------------------------------------------------------------
# the bracket against its first form, which took both contractions afresh
# for every pair of terms


def per_term_schouten(T, u, v):
    """The double loop over term pairs."""
    out = Vec()
    for wu, cu in u.items():
        xu = Vec({wu: cu})
        s1 = -1 if T.deg(wu) % 2 == 0 else 1
        for wv, cv in v.items():
            xv = Vec({wv: cv})
            for k in range(T.r):
                out += s1 * T.alg.mul(T.dxi(xu, k), T.alg.dchi(k, xv))
                out -= T.alg.mul(T.alg.dchi(k, xu), T.dxi(xv, k))
    return out


def assert_same_schouten(T, u, v):
    # the suspended bracket is the bracket of u with the terms of odd
    # shifted degree (even degree) negated
    u_susp = Vec((w, -c if T.deg(w) % 2 == 0 else c) for w, c in u.items())
    assert T.schouten(u, v) == per_term_schouten(T, u_susp, v), (u, v)
    assert plain(T, u, v) == per_term_schouten(T, u, v), (u, v)


def test_schouten_matches_per_term_oracle_exhaustive():
    # every pair of words at a cap of 2, where pairs of weight 4 and up
    # overflow
    T = pipeline("sl2_h", 2).T
    xs = [Vec({w: Fraction(-3, 2)}) for w in all_words(T, 2)]
    for u in xs:
        for v in xs:
            assert_same_schouten(T, u, v)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_schouten_matches_per_term_oracle(machines, data):
    T = machines[data.draw(st.sampled_from(FIXTURES))]
    words = all_words(T)
    coefs = st.fractions(min_value=-3, max_value=3, max_denominator=4)

    def element():
        return Vec(data.draw(st.dictionaries(st.sampled_from(words), coefs,
                                             max_size=4)))

    assert_same_schouten(T, element(), element())


def test_schouten_windows_are_restrictions(machines):
    # the inputs the transfer brackets: the perturbed inclusion of each
    # small key, against each other and against every word up to weight
    # 1 at once
    for name in ("sl2_h", "sl2_borel"):
        p = pipeline(name)
        T, pt = p.T, p.pt
        taus = [pt.tau(Vec({k: 1})) for k in t_complex_keys(T.sp)]
        every = Vec({w: t % 5 - 2 for t, w in enumerate(all_words(T, 1))})
        for v in taus + [every]:
            for u in taus + [every]:
                assert_window_is_restriction(
                    lambda x, mw=None: T.schouten(x, v, mw), u, T.N)


def test_schouten_drops_a_term_pair_that_overflows(machines):
    # iota_0(xi_0 chi_0^3) d_0(chi_0^4) has weight 6 > N, and d_0 of the
    # first against iota_0 of the second is zero: the pair is dropped
    T = machines["sl2_h"]
    r = T.r
    u = Vec({((), (), (0,), (3,) + (0,) * (r - 1)): 1})
    v = Vec({((), (), (), (4,) + (0,) * (r - 1)): 1})
    assert T.schouten(u, v).is_zero()
    assert per_term_schouten(T, u, v).is_zero()


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
    cases = list(machines.items()) + [("sl3_borel",
                                       pipeline("sl3_borel", 3).T)]
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
            want = -1 * delta(T, x) + T.rho(x)
            assert q == want, (name, w)
