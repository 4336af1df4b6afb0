from bisect import bisect_left
from fractions import Fraction
import itertools
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from liepairs.cli import second_choice
from liepairs.core import (
    EVEN, Derivation, Vec, WordAlgebra, mi_unit, mi_weight,
)
from liepairs.liepair import Connection, default_connection
from liepairs import weyl
from liepairs.weyl import Weyl, koszul_delta, koszul_kappa

from helpers import (
    FIXTURES, N, apply_x, assert_window_is_restriction, d_l_nabla, delta,
    include_a, is_normalised, load, loop_h, oracle_derive, pipeline,
    project_a, typed_items,
)


@pytest.fixture(scope="module")
def machines():
    return {name: pipeline(name).W for name in FIXTURES}


def all_words(W, wmax=N):
    return [w for w in W.alg.words(max_weight=wmax)]


# ---------------------------------------------------------------------------
# spot values from the defining formulas


def test_delta_values(machines):
    W = machines["heisenberg_center"]
    r = W.r
    chi1 = Vec({W.alg.even_word(mi_unit(r, 0)): 1})
    got = delta(W, chi1)
    assert got == Vec({W.alg.odd_word(1, 0): 1})
    # pure forms die
    assert delta(W, Vec({W.alg.odd_word(0, 0): 1})).is_zero()
    assert delta(W, Vec({W.alg.odd_word(1, 1): 1})).is_zero()
    # square of an even generator: derivation rule gives the factor 2
    chi1sq = Vec({W.alg.even_word((2, 0)): 1})
    got = delta(W, chi1sq)
    sign, w = W.alg.mul_words(W.alg.odd_word(1, 0), W.alg.even_word((1, 0)))
    assert got == Vec({w: 2 * sign})


def test_h_values(machines):
    W = machines["heisenberg_center"]
    r = W.r
    # h(chi_1-form) = chi_1 (v=1, |J|=0)
    got = W.h(Vec({W.alg.odd_word(1, 0): 1}))
    assert got == Vec({W.alg.even_word(mi_unit(r, 0)): 1})
    # v = 0 kills
    assert W.h(Vec({W.alg.odd_word(0, 0): 1})).is_zero()
    assert W.h(W.alg.one()).is_zero()
    # h(chi_1 ^ chi_2 form) = (chi_2-form (x) chi_1 - chi_1-form (x) chi_2)/2
    w12 = W.alg.make_word([(), (0, 1)], (0, 0))
    got = W.h(Vec({w12: 1}))
    exp = Vec()
    exp += W.alg.mul(Vec({W.alg.odd_word(1, 1): Fraction(-1, 2)}),
                     Vec({W.alg.even_word((1, 0)): 1}))
    exp += W.alg.mul(Vec({W.alg.odd_word(1, 0): Fraction(1, 2)}),
                     Vec({W.alg.even_word((0, 1)): 1}))
    # expand: iota_1 gives +chi_2-form... sign check via the identity below
    assert W.h(delta(W, Vec({w12: 1}))) + delta(W, got) == Vec({w12: 1})
    assert len(got) == 2


def test_sigma_tau(machines):
    for W in machines.values():
        alpha = Vec({W.alg.odd_word(0, 0): 1}) if W.m else W.alg.one()
        assert W.sigma(W.tau(alpha)) == alpha
        assert W.sigma(Vec({W.alg.odd_word(1, 0): 1})).is_zero()
        unit_a_form = Vec({((), ()): 1})
        assert project_a(W, include_a(W, unit_a_form)) == unit_a_form


def test_homotopy_identity_example(machines):
    W = machines["heisenberg_center"]
    x = Vec({W.alg.odd_word(1, 0): 1})
    lhs = x - W.tau(W.sigma(x))
    rhs = W.h(delta(W, x)) + delta(W, W.h(x))
    assert lhs == rhs == x


# ---------------------------------------------------------------------------
# contraction identity suite, exhaustive on every fixture


def test_contraction_identities_exhaustive(machines):
    for name, W in machines.items():
        for w in all_words(W):
            x = Vec({w: 1})
            wt = mi_weight(w[-1])
            assert delta(W, delta(W, x)).is_zero(), (name, w, "delta^2")
            if wt <= N - 2:
                assert W.h(W.h(x)).is_zero(), (name, w, "h^2")
            if wt <= N - 1:
                assert W.sigma(W.h(x)).is_zero(), (name, w, "sigma h")
                lhs = x - W.tau(W.sigma(x))
                rhs = W.h(delta(W, x)) + delta(W, W.h(x))
                assert lhs == rhs, (name, w, "homotopy identity")
        # sigma tau = id and h tau = 0 on the A-form part
        for w in W.alg.words(max_weight=0):
            if w[1]:
                continue
            x = Vec({w: 1})
            assert W.sigma(W.tau(x)) == x, (name, w)
            assert W.h(W.tau(x)).is_zero(), (name, w)


def test_corrupted_h_fails_homotopy_identity(machines):
    # negative control: dropping the 1/(v+|J|) normalization must break
    # the homotopy identity somewhere, with a witness
    W = machines["heisenberg_center"]

    def bad_h(x):
        out = Vec()
        for w, c in x.items():
            v = len(w[1])
            if v == 0:
                continue
            for k in range(W.r):
                contracted = W.alg.contract_odd(1, k, Vec({w: c}))
                if not contracted:
                    continue
                bump = Vec({W.alg.even_word(mi_unit(W.r, k)): Fraction(1)})
                out += W.alg.mul(contracted, bump)
        return out

    witnesses = []
    for w in all_words(W, wmax=N - 1):
        x = Vec({w: 1})
        lhs = x - W.tau(W.sigma(x))
        rhs = bad_h(delta(W, x)) + delta(W, bad_h(x))
        if lhs != rhs:
            witnesses.append(w)
    assert witnesses


# ---------------------------------------------------------------------------
# torsion <-> anticommutation


def test_torsion_free_anticommutation(machines):
    for name, W in machines.items():
        d = d_l_nabla(W)
        for w in all_words(W, wmax=N - 1):
            x = Vec({w: 1})
            acom = delta(W, d(x)) + d(delta(W, x))
            assert acom.is_zero(), (name, w)


def test_torsionful_connection_breaks_anticommutation():
    pair, sp, conn = load("heisenberg_center")
    gamma = [[list(row) for row in plane] for plane in conn.gamma]
    gamma[pair.dim_a + 0][1][0] += 1   # torsion-ful tweak
    bad = Connection(sp, gamma)
    assert not bad.is_torsion_free()[0]
    W = Weyl(sp, bad, trunc=N)
    d = d_l_nabla(W)
    broken = False
    for w in all_words(W, wmax=N - 1):
        x = Vec({w: 1})
        acom = delta(W, d(x)) + d(delta(W, x))
        if not acom.is_zero():
            broken = True
            break
    assert broken


# ---------------------------------------------------------------------------
# the correction term and Q


def test_correction_zero_for_flat_cases(machines):
    for name in ("heisenberg_center", "abelian"):
        X = machines[name].solve()
        assert all(v.is_zero() for v in X.values()), name


def test_correction_shape(machines):
    for name, W in machines.items():
        X = W.solve()
        for k, coeff in X.items():
            # no h-image survives sigma; h(X) = 0 by construction
            assert W.h(coeff).is_zero(), (name, k)
            for w, c in coeff.items():
                assert W.alg.form_deg(w) == 1, (name, k, w)
                assert mi_weight(w[-1]) >= 2, (name, k, w)


def fedosov_step_defects(W, X):
    """The k with X_k != h(rho_X(rho_X(chi_k))), where rho_X is the odd
    derivation with the images of d plus X_k on chi_k, applied by the
    term-by-term Leibniz rule."""
    table = dict(W._d_images)
    for k, xk in X.items():
        if xk:
            table[(EVEN, k)] = table.get((EVEN, k), Vec()) + xk
    bad = []
    for k, xk in X.items():
        chi = Vec({W.alg.even_word(mi_unit(W.r, k)): 1})
        once = oracle_derive(W.alg, table, 1, chi)
        if W.h(oracle_derive(W.alg, table, 1, once)) != xk:
            bad.append(k)
    return bad


@pytest.mark.parametrize("choice", ["default", "second"])
@pytest.mark.parametrize("name", FIXTURES)
def test_correction_is_fedosov_fixed_point(name, choice):
    pair, sp, conn = load(name)
    conn = default_connection(sp)
    if choice == "second":
        conn = second_choice(sp, conn)
    W = Weyl(sp, conn, N)
    X = W.solve()
    for k, xk in X.items():
        chi = Vec({W.alg.even_word(mi_unit(W.r, k)): 1})
        assert W.h(W.rho(W.rho(chi))) == xk, (name, choice, k)
    assert fedosov_step_defects(W, X) == [], (name, choice)
    # negative control: one entry of X changed, its first word's
    # coefficient (or, where X_0 = 0, that of alpha_0 chi_0^2) raised by one
    bad = {k: Vec(xk) for k, xk in X.items()}
    w = next(iter(bad[0]),
             W.alg.make_word(((0,), ()), (2,) + (0,) * (W.r - 1)))
    bad[0].iadd_term(w, 1)
    assert fedosov_step_defects(W, bad), (name, choice)


def test_solve_compiles_rho_per_pass_and_q_once(monkeypatch):
    # a Weyl compiles -delta and kappa, then the rho table of each pass
    # of the Fedosov step, then Q once, from the fixed point's table
    built = []

    class Counted(Derivation):
        def __init__(self, alg, images, parity):
            built.append(images)
            super().__init__(alg, images, parity)

    h_calls = itertools.count()
    real_h = Weyl.h

    def counted_h(self, x, max_weight=None):
        next(h_calls)
        return real_h(self, x, max_weight)

    monkeypatch.setattr(weyl, "Derivation", Counted)
    monkeypatch.setattr(Weyl, "h", counted_h)
    pair, sp, conn = load("sl3_borel")
    W = Weyl(sp, conn, 3)
    # one h per chi_k and pass
    passes = next(h_calls) // W.r
    assert passes == 3
    assert len(built) == 2 + passes + 1
    assert built[-2] is W._rho_images and built[-1] is W._q_images
    assert sum(images is W._q_images for images in built) == 1


def test_unconverged_correction_raises(monkeypatch):
    # an h that gives a new value at every call leaves the Fedosov step
    # with no fixed point: building the Weyl raises, and no partial sum
    # is returned
    pair, sp, conn = load("sl2_h")
    calls = itertools.count(1)

    def drifting_h(self, x, max_weight=None):
        return Vec({self.alg.make_word(((), (0,)), mi_unit(self.r, 0)):
                    next(calls)})

    monkeypatch.setattr(Weyl, "h", drifting_h)
    with pytest.raises(RuntimeError, match="failed to stabilize"):
        Weyl(sp, conn, N)


def test_q_squares_to_zero(machines):
    for name, W in machines.items():
        W.solve()
        for w in all_words(W, wmax=N - 1):
            x = Vec({w: 1})
            qq = W.q_op(W.q_op(x))
            assert W.restrict_weight(qq, N - 1).is_zero(), (name, w)


def test_q_window_is_restriction(machines):
    # q_op(x, c) keeps the words of q_op(x) of weight at most c, in order
    for name, W in machines.items():
        for w in all_words(W):
            q = W.q_op(Vec({w: 1}))
            for cap in range(N + 1):
                got = W.q_op(Vec({w: 1}), cap)
                want = W.restrict_weight(q, cap)
                assert got == want and list(got) == list(want), \
                    (name, w, cap)


def test_filtration_behaviour(machines):
    # delta lowers symmetric weight by one, h raises it by one, the
    # covariant part preserves it, the correction raises it by at least one
    for name, W in machines.items():
        W.solve()
        d = d_l_nabla(W)
        for w in all_words(W, wmax=N - 1):
            x = Vec({w: 1})
            wt = mi_weight(w[-1])
            for y, c in delta(W, x).items():
                assert mi_weight(y[-1]) == wt - 1
            for y, c in W.h(x).items():
                assert mi_weight(y[-1]) == wt + 1
            for y, c in d(x).items():
                assert mi_weight(y[-1]) == wt
            for y, c in apply_x(W, x).items():
                assert mi_weight(y[-1]) >= wt + 1


# ---------------------------------------------------------------------------
# the closed-form homotopy against its first formulation: contract each
# chi_k-form letter as an odd derivation, then multiply by chi_k


def oracle_h(W, x):
    out = Vec()
    for w, c in x.items():
        v = len(w[1])
        if v == 0:
            continue
        J = w[-1]
        if mi_weight(J) + 1 > W.N:
            continue
        f = Fraction(1, v + mi_weight(J))
        for k in range(W.r):
            contracted = W.alg.contract_odd(1, k, Vec({w: c * f}))
            if not contracted:
                continue
            bump = Vec({W.alg.even_word(mi_unit(W.r, k)): Fraction(1)})
            out += W.alg.mul(contracted, bump)
    return out


def layout(m, r, trunc, polyvector):
    """The fields Weyl.h and Weyl.d_big read, on the Weyl word layout
    (alpha, chi-form, J) or the TPoly one (alpha, chi-form, xi, J)."""
    counts = (m, r, r) if polyvector else (m, r)
    alg = WordAlgebra(counts, r, trunc)
    return SimpleNamespace(alg=alg, N=trunc, r=r,
                           _d_big=koszul_delta(alg)[1],
                           _kappa=koszul_kappa(alg))


def assert_same_h(W, x):
    got = Weyl.h(W, x)
    assert got == oracle_h(W, x) and is_normalised(got)


def test_h_matches_contraction_oracle_exhaustive(machines):
    # every word up to one weight past the cap, on the real machines and
    # on the polyvector layout of the same size
    for name, W in machines.items():
        for X in (W, layout(W.m, W.r, W.N, True)):
            for w in X.alg.words(max_weight=X.N + 1):
                assert_same_h(X, Vec({w: Fraction(-3, 2)}))
        x = Vec({w: i + 1 for i, w in enumerate(all_words(W, N + 1))})
        assert_same_h(W, x)


@st.composite
def layouts_and_vecs(draw):
    m, r = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    W = layout(m, r, draw(st.integers(0, 4)), draw(st.booleans()))
    parts = [st.lists(st.booleans(), min_size=n, max_size=n).map(
        lambda bits: tuple(i for i, b in enumerate(bits) if b))
        for n in W.alg.odd_counts]
    word = st.tuples(*parts, st.tuples(*[st.integers(0, 3)] * r))
    coef = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    x = draw(st.builds(Vec, st.dictionaries(word, coef, max_size=5)))
    return W, x


@settings(deadline=None)
@given(layouts_and_vecs())
def test_h_matches_contraction_oracle(case):
    assert_same_h(*case)


# ---------------------------------------------------------------------------
# h, the compiled kappa over the weight, against the closed-form loop it
# replaced: the same words, coefficients, coefficient types and order, on
# every word of every shipped pair at every cap, Weyl and TPoly; and the
# Euler identity delta kappa + kappa delta = (v + |J|) id that makes it
# the homotopy


WORD_PAIRS = {name: N for name in FIXTURES}
WORD_PAIRS.update(heis5_lag=4, sl3_borel=3)


@pytest.fixture(scope="module")
def word_sides():
    """(name, Weyl) and (name, TPoly) of every shipped pair."""
    sides = []
    for name, trunc in WORD_PAIRS.items():
        T = pipeline(name, trunc).T
        sides += [(name, T.W), (name, T)]
    return sides


def random_inputs(X, rng, n=100, terms=6):
    words = list(X.alg.words(max_weight=X.N + 1))
    return [Vec({rng.choice(words): Fraction(rng.randint(-9, 9),
                                             rng.randint(1, 12))
                 for _ in range(terms)}) for _ in range(n)]


def assert_h_is_loop(X, x, cap):
    assert typed_items(Weyl.h(X, x, cap)) == typed_items(loop_h(X, x, cap))


def test_h_matches_loop_every_word_and_cap(word_sides):
    coefs = (1, Fraction(-3, 2), -2, Fraction(5, 7))
    for name, X in word_sides:
        words = list(X.alg.words(max_weight=X.N + 1))
        for cap in (None, *range(X.N + 1)):
            for i, w in enumerate(words):
                assert_h_is_loop(X, Vec({w: coefs[i % 4]}), cap)


def test_h_matches_loop_on_random_inputs(word_sides):
    rng = random.Random(29)
    for name, X in word_sides:
        for cap in (None, *range(X.N + 1)):
            for x in random_inputs(X, rng):
                assert_h_is_loop(X, x, cap)


def euler_defect(X, kappa, w):
    """delta kappa + kappa delta - (v + |J|) id on the word w."""
    x = Vec({w: 1})
    out = -X.d_big(kappa(x)) - kappa(X.d_big(x))
    out.iadd_term(w, -(len(w[1]) + mi_weight(w[-1])))
    return out


def test_kappa_is_euler_contraction(word_sides):
    for name, X in word_sides:
        for w in X.alg.words(max_weight=X.N - 1):
            assert euler_defect(X, X._kappa, w).is_zero(), (name, w)


def test_kappa_with_one_image_negated_fails_both(word_sides):
    # negative control: negate the image of dchi_0 and both the loop
    # oracle and the Euler identity find a word that tells
    for name, X in word_sides:
        alg = X.alg
        bad = Derivation(alg, {(1, k): Vec({alg.even_word(mi_unit(X.r, k)):
                                            -1 if k == 0 else 1})
                               for k in range(X.r)}, 1)
        mutant = SimpleNamespace(alg=alg, _kappa=bad)
        words = list(alg.words(max_weight=X.N - 1))
        assert any(Weyl.h(mutant, Vec({w: 1})) != loop_h(X, Vec({w: 1}))
                   for w in words), name
        assert any(euler_defect(X, bad, w) for w in words), name


# ---------------------------------------------------------------------------
# the output caps of h and -delta: each window is the restriction of the
# uncapped value, and -delta, a compiled derivation, matches its closed
# formula with its coefficients normalised


def koszul_ops(X):
    return [lambda x, mw=None: Weyl.h(X, x, mw),
            lambda x, mw=None: Weyl.d_big(X, x, mw)]


def oracle_d_big(X, x):
    """-delta in closed form on the words alpha_S dchi_T ... chi^J: for
    each k not in T with J_k > 0, the word with k put into T at position
    p and J - e_k, coefficient -(-1)^(|S| + p) J_k c; an output word over
    the cap is dropped."""
    out = Vec()
    for w, c in x.items():
        S, T, J = w[0], w[1], w[-1]
        if mi_weight(J) > X.alg.trunc + 1:
            continue
        for k, jk in enumerate(J):
            if jk and k not in T:
                p = bisect_left(T, k)
                out.iadd_term(
                    (S, T[:p] + (k,) + T[p:], *w[2:-1],
                     J[:k] + (jk - 1,) + J[k + 1:]),
                    jk * c if (len(S) + p) % 2 else -jk * c)
    return out


def test_d_big_of_plus_delta_fails_oracle():
    # negative control: the compiled derivation of delta's own images,
    # not their negations, disagrees with the oracle on every word it
    # does not kill
    for polyvector in (False, True):
        X = layout(2, 2, 2, polyvector)
        plus = Derivation(X.alg, koszul_delta(X.alg)[0], 1)
        hits = 0
        for w in X.alg.words():
            x = Vec({w: Fraction(3, 2)})
            want = oracle_d_big(X, x)
            assert Weyl.d_big(X, x) == want, w
            if want:
                hits += 1
                assert plus(x) != want, w
        assert hits


def test_koszul_windows_exhaustive():
    # every word of WordAlgebra((2, 2), 2, 2) and up to two over its cap,
    # alone and all at once, on the scalar and the polyvector layout
    for polyvector in (False, True):
        X = layout(2, 2, 2, polyvector)
        words = list(X.alg.words(max_weight=4))
        xs = [Vec({w: Fraction(3, 2)}) for w in words]
        xs.append(Vec({w: t % 5 - 2 for t, w in enumerate(words)}))
        for x in xs:
            assert Weyl.d_big(X, x) == oracle_d_big(X, x)
            for op in koszul_ops(X):
                assert_window_is_restriction(op, x, X.N)
        for op in koszul_ops(X):
            with pytest.raises(ValueError, match="over the algebra's cap"):
                op(xs[-1], X.N + 1)


@settings(deadline=None)
@given(layouts_and_vecs())
def test_koszul_windows_and_normal_form(case):
    X, x = case
    got = Weyl.d_big(X, x)
    assert got == oracle_d_big(X, x) and is_normalised(got)
    for op in koszul_ops(X):
        assert_window_is_restriction(op, x, X.N)


def test_rho_windows(machines):
    for name, W in machines.items():
        for w in all_words(W, W.N + 1):
            assert_window_is_restriction(W.rho, Vec({w: Fraction(3, 2)}),
                                         W.N)


# ---------------------------------------------------------------------------
# the Koszul differential of the pipeline against the derivation of the
# images that Q's table reads and against its closed formula, on the
# scalar and the polyvector layout, every word up to the cap


def assert_same_delta(X, x):
    got = delta(X, x)
    assert got == X.alg.derive(X._delta_images, 1, x)
    assert got == -oracle_d_big(X, x)


def test_delta_matches_derivation_oracle_exhaustive(word_sides):
    for name, X in word_sides:
        words = list(X.alg.words())
        for w in words:
            assert_same_delta(X, Vec({w: Fraction(-3, 2)}))
        assert_same_delta(X, Vec({w: i + 1 for i, w in enumerate(words)}))


# ---------------------------------------------------------------------------
# rho and Q as single derivations against their sums of parts, on every
# word up to one weight past the cap


def merged_cases(machines):
    rank3 = pipeline("sl3_borel", 3).W
    return [(name, W) for name, W in machines.items()] + [
        ("sl3_borel", rank3)]


def test_rho_and_q_tables_match_their_parts(machines):
    for name, W in merged_cases(machines):
        W.solve()
        d = d_l_nabla(W)
        for w in all_words(W, wmax=W.N + 1):
            x = Vec({w: Fraction(3, 2)})
            rho = W.rho(x)
            want = d(x) + apply_x(W, x)
            assert rho == want, (name, w)
            q = W.q_op(x)
            want = -1 * delta(W, x) + rho
            assert q == want, (name, w)


# ---------------------------------------------------------------------------
# the compiled derivations d, rho and Q of Weyl, and rho and Q of TPoly,
# against the term-by-term Leibniz rule on their own tables: every word
# up to the cap on the dim-3 pairs, words up to weight 1 on the larger ones


COMPILED_PAIRS = {name: (4, 4) for name in FIXTURES}
COMPILED_PAIRS.update(heis5_lag=(4, 1), sl3_borel=(3, 1))


def test_compiled_tables_match_leibniz_oracle():
    for name, (trunc, wmax) in COMPILED_PAIRS.items():
        T = pipeline(name, trunc).T
        W = T.W
        cases = [(W, d_l_nabla(W), W._d_images),
                 (W, W._rho, W._rho_images), (W, W._q, W._q_images),
                 (T, T._rho, T._rho_images), (T, T._q, T._q_images)]
        for X, compiled, images in cases:
            for w in X.alg.words(max_weight=wmax):
                x = Vec({w: Fraction(-3, 2)})
                assert compiled(x) == oracle_derive(X.alg, images, 1, x), \
                    (name, w)
