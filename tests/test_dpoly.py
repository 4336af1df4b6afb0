from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liepairs.cohomology import d_complex_keys
from liepairs.core import (
    Vec, mi_add, mi_unit, mi_upto, mi_weight, mi_zero, multi_splits,
    tensor_product,
)
from liepairs.pbw import d_a_u

from helpers import (
    FIXTURES, N, assert_window_is_restriction, dual_nabla_chi, evaluate,
    mult_element, nabla_flash, pbw, pipeline, plain,
)


@pytest.fixture(scope="module")
def machines():
    return {name: pipeline(name).D for name in FIXTURES}


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


def slot_weight(key):
    return max(mi_weight(J) for J in key[1])


def test_multi_splits_counts():
    assert multi_splits((2,), 2) == [(((0,), (2,)), 1), (((1,), (1,)), 2),
                                     (((2,), (0,)), 1)]
    total = sum(c for _, c in multi_splits((1, 1), 3))
    assert total == 9  # 3^|J| ordered assignments
    # built once per argument
    assert multi_splits((1, 1), 3) is multi_splits((1, 1), 3)


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
            assert D.restrict_weight(
                qq, N - 1 - slot_weight(key)).is_zero(), (name, key)


def test_d_h_squares_to_zero(machines):
    for name, D in machines.items():
        for key in sample_keys(D):
            x = Vec({key: 1})
            assert D.d_h(D.d_h(x)).is_zero(), (name, key)


def test_d_h_is_bracket_with_multiplication(machines):
    for name, D in machines.items():
        m_el = mult_element(D)
        for key in sample_keys(D):
            x = Vec({key: 1})
            assert D.d_h(x) == plain(D, m_el, x), (name, key)


def test_q_anticommutes_with_d_h(machines):
    for name, D in machines.items():
        for key in sample_keys(D):
            if mi_weight(key[0][-1]) > 2:
                continue
            x = Vec({key: 1})
            ac = D.q_op(D.d_h(x)) + D.d_h(D.q_op(x))
            assert D.restrict_weight(
                ac, N - 1 - slot_weight(key)).is_zero(), (name, key)


def test_rho_annihilates_multiplication_element(machines):
    for name, D in machines.items():
        m_el = mult_element(D)
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
            assert (plain(D, x, y) + s * plain(D, y, x)).is_zero(), (k1, k2)


def old_gerst(D, x, y):
    """The bracket as first written: one star per pair of terms."""
    out = D.star(x, y)
    for k1, c1 in x.items():
        for k2, c2 in y.items():
            s = -1 if (D.deg(k1) * D.deg(k2)) % 2 else 1
            out -= s * D.star(Vec({k2: c2}), Vec({k1: c1}))
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_gerst_matches_per_term_formulation(machines, data):
    # the parity split calls star at most three times; the value is that
    # of one star per pair of terms.  The suspended bracket is the
    # bracket of x with its odd-degree terms negated
    D = machines[data.draw(st.sampled_from(FIXTURES))]
    keys = sample_keys(D)
    coefs = st.fractions(min_value=-3, max_value=3, max_denominator=4)

    def element():
        return Vec(data.draw(st.dictionaries(st.sampled_from(keys), coefs,
                                             max_size=4)))

    x, y = element(), element()
    x_susp = Vec((k, -c if D.deg(k) % 2 else c) for k, c in x.items())
    assert D.gerst(x, y) == old_gerst(D, x_susp, y)
    assert plain(D, x, y) == old_gerst(D, x, y)


def per_term_slides(D, J, w2, S2):
    """(coefficient word, middle slots, coefficient) of the slot d^J
    absorbing the argument term (w2, S2), rebuilt every time.  With no
    slot in S2, of the higher Leibniz terms of d^J past w2 only the one
    where all of d^J reaches w2 leaves no slot."""
    if not S2:
        zero = mi_zero(D.r)
        return [(w2b, (), c0) for w2b, J0, c0 in D._slot_into(J, w2, zero)
                if J0 == zero]
    out = []
    for parts, mult in multi_splits(J, len(S2)):
        for w2b, J0, c0 in D._slot_into(parts[0], w2, S2[0]):
            mid = (J0,) + tuple(mi_add(parts[i], S2[i])
                                for i in range(1, len(S2)))
            out.append((w2b, mid, c0 * mult))
    return out


def per_term_star(D, x, y):
    """The insertion product as first written: the slot splittings and
    the slides past the coefficient rebuilt for every pair of terms."""
    out = Vec()
    for (w1, S1), c1 in x.items():
        u = len(S1) - 1
        for (w2, S2), c2 in y.items():
            v = len(S2) - 1
            g2 = D.alg.form_deg(w2)
            for k in range(u + 1):
                sgn = -1 if (k * v + g2 * u + u * v) % 2 else 1
                for w2b, mid, c in per_term_slides(D, S1[k], w2, S2):
                    prod = D.alg.mul_words(w1, w2b)
                    if prod is None:
                        continue
                    sign, w3 = prod
                    out.iadd_term((w3, S1[:k] + mid + S1[k + 1:]),
                                  c1 * c2 * c * sign * sgn)
    return out


def assert_same_star(D, x, y):
    assert D.star(x, y) == per_term_star(D, x, y), (x, y)


def test_star_matches_per_term_oracle_on_key_pairs(machines):
    # the sample keys share coefficient words and first slots across
    # argument arities, so a slide table keyed without the argument's
    # slots would answer for the wrong one
    D = machines["sl2_h"]
    keys = sample_keys(D)
    for k1 in keys:
        for k2 in keys:
            assert_same_star(D, Vec({k1: Fraction(-3, 2)}), Vec({k2: 1}))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_star_matches_per_term_oracle(machines, data):
    # coefficient words up to the cap and slots up to weight 2, so that
    # some products overflow; a term with no slot is a coefficient
    D = machines[data.draw(st.sampled_from(FIXTURES))]
    words = list(D.alg.words())
    slots = st.lists(st.sampled_from(list(mi_upto(D.r, 2))), min_size=0,
                     max_size=3).map(tuple)
    coefs = st.fractions(min_value=-3, max_value=3, max_denominator=4)

    def element():
        keys = st.tuples(st.sampled_from(words), slots)
        return Vec(data.draw(st.dictionaries(keys, coefs, max_size=4)))

    assert_same_star(D, element(), element())


def d_keys(D, wmax=1):
    """Big d-side keys: every coefficient word up to weight wmax with each
    slot set of sample_keys."""
    slotsets = {S for _, S in sample_keys(D)}
    return [(w, S) for w in D.W.alg.words(max_weight=wmax)
            for S in sorted(slotsets)]


def test_windows_are_restrictions(machines):
    # every capped operator of the polydifferential side, on each of
    # sl2_h's d-keys up to weight 1 and on all of them at once; the
    # products with every fifth of them, summed, as the other argument
    D = machines["sl2_h"]
    keys = d_keys(D)
    xs = [Vec({k: Fraction(-3, 2)}) for k in keys]
    every = Vec({k: t % 5 - 2 for t, k in enumerate(keys)})
    other = Vec({k: t % 3 + 1 for t, k in enumerate(keys[::5])})
    ops = [D.h, D.d_big, D.rho, D.d_h, D.perturbation]
    for op in ("star", "gerst"):
        ops += [lambda x, mw=None, op=getattr(D, op): op(x, other, mw),
                lambda x, mw=None, op=getattr(D, op): op(other, x, mw)]
    for op in ops:
        for x in xs + [every]:
            assert_window_is_restriction(op, x, D.N, D.restrict_weight)
    with pytest.raises(ValueError, match="over the algebra's cap"):
        D.star(every, every, D.N + 1)


def d_along(D, J, x):
    """d^J applied to a Vec of words, one chi-derivative at a time."""
    for k, e in enumerate(J):
        for _ in range(e):
            x = D.alg.dchi(k, x)
    return x


def test_slotless_arguments(machines):
    # coefficients f, g (keys with no slot) bracket to zero, and the
    # bracket of the operator w1 d^J with f is w1 d^J(f): the whole of
    # d^J acts on the coefficient, and no slot is left
    for name in ("sl2_h", "heisenberg_x"):
        D = machines[name]
        words = list(D.alg.words())
        for w2 in words:
            f = Vec({(w2, ()): Fraction(-3, 2)})
            for w1 in words:
                assert plain(D, Vec({(w1, ()): 1}), f).is_zero(), (w1, w2)
            for w1 in words[::11]:
                for J in mi_upto(D.r, 2):
                    want = D.alg.mul(Vec({w1: 1}),
                                     d_along(D, J, Vec({w2: Fraction(-3, 2)})))
                    assert plain(D, Vec({(w1, (J,)): 1}), f) == Vec(
                        {(w, ()): c for w, c in want.items()}), (w1, J, w2)


def test_gerst_jacobi(machines):
    D = machines["sl2_h"]
    keys = sample_keys(D)[::5]
    for k1 in keys:
        for k2 in keys:
            for k3 in keys:
                x, y, z = Vec({k1: 1}), Vec({k2: 1}), Vec({k3: 1})
                s = -1 if (D.deg(k1) * D.deg(k2)) % 2 else 1
                lhs = plain(D, x, plain(D, y, z))
                rhs = plain(D, plain(D, x, y), z) \
                    + s * plain(D, y, plain(D, x, z))
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
                lhs = D.q_op(plain(D, x, y))
                rhs = plain(D, D.q_op(x), y) + s * plain(D, x, D.q_op(y))
                assert D.restrict_weight(lhs - rhs, wmax).is_zero(), \
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
                for (w, slots), c in plain(D, e_a, dJ).items():
                    if mi_weight(w[-1]) == 0 and not w[0] and not w[1]:
                        got.iadd_term(slots[0], c)
                exp = nabla_flash(D.P, s, Vec({J: Fraction(1)}))
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


def test_memoised_projections_match_per_slot_recomputation(machines):
    # every key twice, so the second pass reads the shared table Vecs
    # after the first has used them
    for name, D in machines.items():
        zero = mi_zero(D.r)
        for _ in range(2):
            for fw, cls in d_complex_keys(D.sp):
                c = Fraction(-5, 3)
                want = Vec()
                acc = tensor_product(c, [D.P.pbw_inv(Vec({K: Fraction(1)}))
                                         for K in cls])
                for slots, cc in acc.items():
                    want.iadd_term(((fw[0], (), zero), slots), cc)
                assert D.include_small(Vec({(fw, cls): c})) == want, \
                    (name, fw, cls)
                want = Vec()
                acc = tensor_product(c, [pbw(D.P, Vec({J: Fraction(1)}))
                                         for J in cls])
                for key, cc in acc.items():
                    want.iadd_term(((fw[0], ()), key), cc)
                got = D.project_small(Vec({((fw[0], (), zero), cls): c}))
                assert got == want, (name, fw, cls)


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
                assert D.d_h(D.d_h(x)).is_zero(), (name, fw, cls)
                # the insertion coboundary commutes with the projection
                got = D.project_small(D.d_h(D.include_small(x)))
                assert got == D.d_h(x), (name, fw, cls)


def test_small_total_differential_squares_to_zero(machines):
    import itertools
    for name, D in machines.items():
        r = D.r

        def d_small(x):
            return d_a_u(D.P, x) + D.d_h(x)

        fwords = [((), ())] + [(((s,), ())) for s in range(D.m)]
        clsets = [(J,) for J in mi_upto(r, 2)]
        clsets += [t for t in itertools.product(list(mi_upto(r, 1)),
                                                repeat=2)]
        for fw in fwords:
            for cls in clsets:
                x = Vec({(fw, cls): 1})
                assert d_small(d_small(x)).is_zero(), (name, fw, cls)
