from fractions import Fraction
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from liepairs.core import (
    EVEN, Derivation, Vec, WordAlgebra, kernel_basis, linear, mat_inv,
    mi_add, mi_all, mi_binom, mi_fact, mi_sub, mi_unit, mi_upto, mi_weight,
    mi_zero, on_first, rref, sort_sign, sym_comul,
)

from helpers import (
    assert_window_is_restriction, is_normalised, mi_le, odd_letters,
    oracle_derive, oracle_kernel_basis, oracle_rref, pair_dual,
    word_of_letters,
)


def alg(na=2, nb=2, ne=2, trunc=5):
    return WordAlgebra((na, nb), ne, trunc)


# ---------------------------------------------------------------------------
# multi-indices


def test_mi_basics():
    assert mi_zero(3) == (0, 0, 0)
    assert mi_unit(3, 1) == (0, 1, 0)
    assert mi_add((1, 2), (3, 0)) == (4, 2)
    assert mi_sub((1, 2), (0, 2)) == (1, 0)
    assert mi_sub((1, 2), (2, 0)) is None
    assert mi_weight((2, 3)) == 5
    assert mi_fact((3, 2)) == 12
    assert mi_le((1, 0), (1, 2))
    assert not mi_le((2, 0), (1, 2))
    assert mi_binom((3, 2), (1, 1)) == 6


def test_mi_enumeration():
    # stars and bars count
    assert len(list(mi_all(3, 4))) == 15
    assert len(list(mi_upto(2, 3))) == 1 + 2 + 3 + 4
    for J in mi_all(2, 3):
        assert mi_weight(J) == 3


def test_sym_comul_counit_and_primitive():
    assert sym_comul((0, 0)) == [((0, 0), (0, 0), 1)]
    got = sorted(sym_comul(mi_unit(2, 0)))
    assert got == [((0, 0), (1, 0), 1), ((1, 0), (0, 0), 1)]


def test_sym_comul_square():
    # oracle: expand (x (x) 1 + 1 (x) x)^2 = x^2 (x) 1 + 2 x (x) x + 1 (x) x^2
    got = sorted(sym_comul((2,)))
    assert got == [((0,), (2,), 1), ((1,), (1,), 2), ((2,), (0,), 1)]


def test_sym_comul_matches_product_expansion():
    # oracle: coefficient of x^K (x) x^M in (x(x)1 + 1(x)x)^|J| is the
    # multinomial |J|!/(K! M!) restricted per component
    for J in mi_upto(2, 4):
        table = {}
        for K, M, c in sym_comul(J):
            table[(K, M)] = c
        for K in itertools.product(range(5), repeat=2):
            M = mi_sub(J, K)
            if M is None:
                continue
            assert table.get((tuple(K), M), 0) == mi_binom(J, K)


def test_sym_comul_coassociative():
    for J in mi_upto(2, 4):
        left = {}
        for K, M, c in sym_comul(J):
            for K1, K2, c2 in sym_comul(K):
                left[(K1, K2, M)] = left.get((K1, K2, M), 0) + c * c2
        right = {}
        for K, M, c in sym_comul(J):
            for M1, M2, c2 in sym_comul(M):
                right[(K, M1, M2)] = right.get((K, M1, M2), 0) + c * c2
        assert left == right


def test_sym_comul_cocommutative():
    for J in mi_upto(2, 4):
        table = {(K, M): c for K, M, c in sym_comul(J)}
        for (K, M), c in table.items():
            assert table[(M, K)] == c


def test_pair_dual():
    assert pair_dual((1,), (1,)) == 1
    assert pair_dual((2,), (2,)) == 2
    assert pair_dual((1, 0), (0, 1)) == 0
    assert pair_dual((3, 2), (3, 2)) == 12


def test_pair_dual_matches_iterated_differentiation():
    # oracle: <chi^K, d^J> should equal d^J(chi^K) evaluated at 0, where
    # d^I(chi^K) = K!/(K-I)! chi^(K-I); compute the pairing by splitting
    # J = I + (J-I) and applying the two halves in sequence.
    for K in mi_upto(2, 3):
        for J in mi_upto(2, 3):
            for I, rest, _ in sym_comul(J):
                KI = mi_sub(K, I)
                if KI is None:
                    value = Fraction(0)
                else:
                    first = Fraction(mi_fact(K), mi_fact(KI))
                    value = first * pair_dual(KI, rest)
                assert value == pair_dual(K, J)


# ---------------------------------------------------------------------------
# signs


def test_sort_sign_permutation_oracle():
    # brute-force sign of permutation
    def brute(perm):
        sign = 1
        perm = list(perm)
        for i in range(len(perm)):
            for j in range(i + 1, len(perm)):
                if perm[i] > perm[j]:
                    sign = -sign
        return sign

    for n in range(1, 5):
        for perm in itertools.permutations(range(n)):
            s, sorted_ = sort_sign(perm)
            assert s == brute(perm)
            assert sorted_ == tuple(range(n))


def test_sort_sign_duplicates():
    assert sort_sign((1, 1)) == (0, None)
    assert sort_sign(((0, 1), (0, 1))) == (0, None)


# ---------------------------------------------------------------------------
# Vec


def test_vec_zero_removal():
    v = Vec({('x',): Fraction(1)})
    v.iadd_term(('x',), Fraction(-1))
    assert v.is_zero()
    assert ('x',) not in v


def test_vec_arith():
    a = Vec({('x',): 1, ('y',): 2})
    b = Vec({('y',): -2, ('z',): 3})
    s = a + b
    assert s[('x',)] == 1 and s[('z',)] == 3 and ('y',) not in s
    assert (a - a).is_zero()
    assert (2 * a)[('y',)] == 4
    c = Vec(a)
    c.iadd_scaled(Fraction(1, 2), b)
    assert c[('y',)] == 1


# ---------------------------------------------------------------------------
# word algebra: product


def test_odd_square_is_zero():
    A = alg()
    chi1 = Vec({A.odd_word(1, 0): 1})
    assert A.mul(chi1, chi1).is_zero()


def test_disjoint_ordered_product():
    A = alg()
    a1 = Vec({A.odd_word(0, 0): 1})
    chi2 = Vec({A.odd_word(1, 1): 1})
    prod = A.mul(a1, chi2)
    assert prod == Vec({A.make_word([(0,), (1,)], (0, 0)): 1})


def test_koszul_sign_against_permutation_oracle():
    # multiply odd generators one by one in an arbitrary order; the result
    # must be sign-of-permutation times the sorted word
    A = WordAlgebra((4,), 0, 0)
    gens = [Vec({A.odd_word(0, i): 1}) for i in range(4)]
    for perm in itertools.permutations(range(4)):
        prod = A.one()
        for i in perm:
            prod = A.mul(prod, gens[i])
        expected_sign, _ = sort_sign(perm)
        assert prod == Vec({A.make_word([(0, 1, 2, 3)], ()): expected_sign})


def test_even_generators_commute_and_add():
    A = alg()
    x = Vec({A.even_word((1, 0)): 1})
    y = Vec({A.even_word((0, 2)): 1})
    assert A.mul(x, y) == A.mul(y, x) == Vec({A.even_word((1, 2)): 1})


def test_graded_commutativity_exhaustive():
    A = WordAlgebra((2, 1), 1, 2)
    words = list(A.words(max_weight=1))
    for w1 in words:
        for w2 in words:
            x, y = Vec({w1: 1}), Vec({w2: 1})
            lhs = A.mul(x, y)
            sign = (-1) ** (A.form_deg(w1) * A.form_deg(w2))
            rhs = sign * A.mul(y, x)
            assert lhs == rhs


def test_associativity_exhaustive_small():
    A = WordAlgebra((1, 1), 1, 3)
    words = list(A.words(max_weight=1))
    for w1, w2, w3 in itertools.product(words, repeat=3):
        x, y, z = Vec({w1: 1}), Vec({w2: 1}), Vec({w3: 1})
        assert A.mul(A.mul(x, y), z) == A.mul(x, A.mul(y, z))


def test_product_over_the_cap_is_dropped():
    A = WordAlgebra((1,), 1, 2)
    x = Vec({A.even_word((2,)): 1})
    assert A.mul(x, x).is_zero()


# ---------------------------------------------------------------------------
# derivations, substitution, contraction


def test_contract_examples():
    A = alg()
    chi1 = Vec({A.odd_word(1, 0): 1})
    chi2 = Vec({A.odd_word(1, 1): 1})
    assert A.contract_odd(1, 0, chi1) == A.one()
    assert A.contract_odd(1, 0, chi2).is_zero()
    # iota_1 (chi_2 ^ chi_1) = -chi_2
    w21 = A.mul(chi2, chi1)
    assert A.contract_odd(1, 0, w21) == -1 * chi2


def test_contract_is_odd_derivation():
    A = alg()
    words = list(A.words(max_weight=1))
    for w1, w2 in itertools.product(words, repeat=2):
        x, y = Vec({w1: 1}), Vec({w2: 1})
        lhs = A.contract_odd(1, 0, A.mul(x, y))
        rhs = A.mul(A.contract_odd(1, 0, x), y) + \
            (-1) ** A.form_deg(w1) * A.mul(x, A.contract_odd(1, 0, y))
        assert lhs == rhs


def test_even_derivation_leibniz():
    # d/d(even_0) as an even derivation
    A = alg()
    images = {(EVEN, 0): A.one()}
    x = Vec({A.even_word((2, 1)): 1})
    got = A.derive(images, 0, x)
    assert got == Vec({A.even_word((1, 1)): 2})
    # Leibniz on products
    y = Vec({A.even_word((1, 0)): 1})
    lhs = A.derive(images, 0, A.mul(x, y))
    rhs = A.mul(A.derive(images, 0, x), y) + A.mul(x, A.derive(images, 0, y))
    assert lhs == rhs


def test_odd_derivation_sends_even_to_odd_with_signs():
    # a derivation with image of even generator an odd word: the sign in
    # front is (-1)^(form degree of the prefix) for odd parity
    A = alg()
    images = {(EVEN, 0): Vec({A.odd_word(1, 0): 1})}
    a1 = Vec({A.odd_word(0, 0): 1})
    x = A.mul(a1, Vec({A.even_word((1, 0)): 1}))
    got = A.derive(images, 1, x)
    # x = a1 (x) chi_0-even; D(x) = -a1 ^ chi_0-form
    assert got == -1 * A.mul(a1, Vec({A.odd_word(1, 0): 1}))


@given(st.lists(st.sampled_from([(0, 0), (0, 1), (1, 0), (1, 1)]),
                min_size=0, max_size=4))
def test_product_of_odd_generators_matches_sort_sign(seq):
    A = alg()
    prod = A.one()
    for g in seq:
        prod = A.mul(prod, Vec({A.odd_word(*g): 1}))
    sign, sorted_ = sort_sign(seq)
    if sign == 0:
        assert prod.is_zero()
    else:
        parts = [[i for c, i in sorted_ if c == 0], [i for c, i in sorted_ if c == 1]]
        assert prod == Vec({A.make_word(parts, (0, 0)): sign})


# ---------------------------------------------------------------------------
# exact scalars

def test_vec_stores_ints_and_proper_fractions():
    v = Vec({('x',): Fraction(4, 2), ('y',): Fraction(1, 2)})
    assert type(v[('x',)]) is int and v[('x',)] == 2
    v.iadd_term(('y',), Fraction(1, 2))
    assert type(v[('y',)]) is int and v[('y',)] == 1
    v.iadd_term(('z',), Fraction(6, 3))
    assert type(v[('z',)]) is int and v[('z',)] == 2
    assert v[('missing',)] == 0


@pytest.mark.parametrize("make", [
    lambda: Vec({('x',): 0.5}),
    lambda: Vec({('x',): 1}) * 0.5,
    lambda: Vec({('x',): 1}).iadd_term(('x',), 0.25),
    lambda: Vec().iadd_term(('x',), 0.25),
    lambda: Vec({('x',): 1}).iadd_scaled(1.5, Vec({('x',): 1})),
    lambda: Vec({('x',): 1}) * 1.0,
    lambda: -1.0 * Vec({('x',): 1}),
    lambda: Vec({('x',): 1}).iadd_scaled(1.0, Vec({('x',): 1})),
    lambda: Vec({('x',): 1}).iadd_scaled(-1.0, Vec({('x',): 1})),
    lambda: Derivation(WordAlgebra((1,), 0, 0),
                       {(0, 0): {((), ()): 0.5}}, 1),
    lambda: Derivation(WordAlgebra((1,), 0, 0),
                       {(0, 0): Vec({((), ()): 1})}, 1)({((0,), ()): 0.5}),
])
def test_vec_rejects_floats(make):
    with pytest.raises(TypeError):
        make()


RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@given(st.lists(st.tuples(st.integers(0, 3), RATIONALS), max_size=8),
       RATIONALS)
def test_vec_invariant_under_arithmetic(terms, scale):
    v = Vec()
    for k, c in terms:
        v.iadd_term(k, c)
        assert is_normalised(v)
    w = Vec(terms)
    for out in (v, w, v + w, v - w, scale * v, -v,
                Vec(v).iadd_scaled(scale, w)):
        assert is_normalised(out)
    assert v == w


@given(st.lists(st.tuples(st.integers(0, 5), RATIONALS), max_size=8),
       st.lists(st.tuples(st.integers(3, 8), RATIONALS), max_size=8))
def test_vec_signs_match_the_scaled_form(terms, more):
    # negation, a copy and iadd_scaled by +-1 against the per-term
    # products they replace: same entries, same key order, normalised
    v, w = Vec(terms), Vec(more)
    for n, got in ((-1, -v), (-1, v * -1), (-1, -1 * v), (1, v * 1),
                   (1, Vec(v)), (Fraction(-1), v * Fraction(-1)),
                   (Fraction(1), v * Fraction(1))):
        want = Vec((k, c * n) for k, c in v.items())
        assert got == want and list(got) == list(want)
        assert is_normalised(got)
        assert got is not v
    for n in (1, -1, Fraction(1), Fraction(-1)):
        got = Vec(w).iadd_scaled(n, v)
        want = Vec(w)
        for k, c in v.items():
            want.iadd_term(k, c * n)
        assert got == want and list(got) == list(want)
        assert is_normalised(got)
    assert v == Vec(terms)  # untouched


VECS = st.builds(Vec, st.lists(st.tuples(st.integers(0, 6), RATIONALS),
                               max_size=4))
# images of a few keys: a missing key, None and an empty Vec are all zero
IMAGES = st.dictionaries(st.integers(0, 5), st.one_of(st.none(), VECS),
                         max_size=6)


@given(IMAGES, st.lists(st.tuples(st.integers(0, 7), RATIONALS),
                        max_size=8))
def test_linear_matches_the_per_term_loop(images, terms):
    # the linear extension against the per-term loop it replaced: same
    # entries, same key order, normalised, and no image changed
    x = Vec(terms)
    before = {k: None if v is None else Vec(v) for k, v in images.items()}
    got = linear(images.get, x)
    want = Vec()
    for key, c in x.items():
        for k2, c2 in (images.get(key) or {}).items():
            want.iadd_term(k2, c2 * c)
    assert got == want and list(got) == list(want)
    assert is_normalised(got)
    assert images == before


@given(IMAGES, st.lists(st.tuples(
    st.tuples(st.integers(0, 7), st.sampled_from([(), (0,), (1, 0)])),
    RATIONALS), max_size=8))
def test_on_first_matches_the_per_term_loop(images, terms):
    # a word operator on the first part of each key against the per-term
    # loop it replaced, with the rest of the key carried along
    x = Vec(terms)
    got = on_first(lambda y: linear(images.get, y), x)
    want = Vec()
    for (w, rest), c in x.items():
        for w2, c2 in (images.get(w) or {}).items():
            want.iadd_term((w2, rest), c2 * c)
    assert got == want and list(got) == list(want)
    assert is_normalised(got)


# ---------------------------------------------------------------------------
# the kernel against its earlier formulations: flatten the odd generators,
# sort with sort_sign, rebuild; one Vec per Leibniz factor (oracle_derive
# in helpers); dense rref and kernel (oracle_rref and oracle_kernel_basis
# in helpers)


def oracle_mul_words(A, w1, w2):
    J = mi_add(w1[-1], w2[-1])
    if mi_weight(J) > A.trunc:
        return None
    sign, merged = sort_sign(odd_letters(A, w1) + odd_letters(A, w2))
    if sign == 0:
        return None
    return sign, word_of_letters(A, merged, J)


# a cap that no product of the words drawn below exceeds: at most 3 even
# generators, exponents up to 2 in a vector and up to 1 in an image
ABOVE_EVERY_WORD = 9


@st.composite
def algebras(draw):
    counts = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    trunc = draw(st.one_of(st.just(ABOVE_EVERY_WORD), st.integers(0, 4)))
    return WordAlgebra(counts, draw(st.integers(0, 3)), trunc)


def raw_words(A, max_exp=1):
    """Canonical words whose even weight may exceed the cap."""
    parts = [st.sets(st.integers(0, n - 1)).map(lambda s: tuple(sorted(s)))
             for n in A.odd_counts]
    J = st.tuples(*[st.integers(0, max_exp)] * A.n_even)
    return st.tuples(*parts, J)


# beside RATIONALS: image coefficients with pairwise coprime
# denominators, and inputs that mix ints and Fractions, so that the
# integer kernel's D * d_x is a real product
IMAGE_COEFS = st.one_of(RATIONALS, st.sampled_from(
    [Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5), Fraction(3, 7)]))
INPUT_COEFS = st.one_of(RATIONALS, st.integers(-3, 3), st.sampled_from(
    [Fraction(-5, 4), Fraction(3, 10), Fraction(7, 9)]))


def vecs(A, max_size=4, max_exp=1, coefs=RATIONALS):
    return st.builds(
        Vec, st.dictionaries(raw_words(A, max_exp), coefs,
                             max_size=max_size))


@pytest.mark.parametrize("counts, n_even, trunc", [
    ((4,), 0, 0), ((2, 2), 1, 1), ((1, 2, 2), 2, 2)])
def test_mul_words_matches_sort_sign_oracle_exhaustive(counts, n_even,
                                                       trunc):
    # with no even generator every word has weight 0, so cap 0 drops none
    A = WordAlgebra(counts, n_even, trunc)
    words = list(A.words(max_weight=trunc))
    for w1, w2 in itertools.product(words, repeat=2):
        assert A.mul_words(w1, w2) == oracle_mul_words(A, w1, w2)


@given(st.data())
def test_mul_words_matches_sort_sign_oracle(data):
    A = data.draw(algebras())
    for _ in range(4):
        w1, w2 = data.draw(raw_words(A)), data.draw(raw_words(A))
        assert A.mul_words(w1, w2) == oracle_mul_words(A, w1, w2)


@given(st.data(), st.integers(0, 1))
def test_derive_matches_leibniz_oracle(data, parity):
    A = data.draw(algebras())
    gens = [(c, i) for c, n in enumerate(A.odd_counts) for i in range(n)]
    gens += [(EVEN, k) for k in range(A.n_even)]
    images = data.draw(st.dictionaries(
        st.sampled_from(gens), vecs(A, 3, coefs=IMAGE_COEFS),
        min_size=1, max_size=len(gens)))
    x = data.draw(vecs(A, 5, max_exp=2, coefs=INPUT_COEFS))
    got = A.derive(images, parity, x)
    want = oracle_derive(A, images, parity, x)
    # the same entries, inserted in the same order
    assert got == want and list(got) == list(want)
    assert is_normalised(got)


@given(st.data(), st.integers(0, 1))
def test_derivation_keeps_no_state_between_calls(data, parity):
    # two inputs, then the first again: each result equals a fresh
    # derivation's and the oracle's
    A = data.draw(algebras())
    gens = [(c, i) for c, n in enumerate(A.odd_counts) for i in range(n)]
    gens += [(EVEN, k) for k in range(A.n_even)]
    images = data.draw(st.dictionaries(st.sampled_from(gens), vecs(A, 3),
                                       min_size=1, max_size=len(gens)))
    xs = [data.draw(vecs(A, max_exp=2)) for _ in range(2)]
    D = Derivation(A, images, parity)
    for x in xs + xs[:1]:
        assert D(x) == oracle_derive(A, images, parity, x) \
            == Derivation(A, images, parity)(x)


def test_integer_kernel_cancels_to_an_int():
    # a0 -> chi/3 and a1 -> 2 chi/3 on 3/2 a0 + 3/4 a1: D = 3, d_x = 4,
    # and chi collects 1/2 + 1/2 = 1, stored as the int 1; dchi_0 of
    # a0 a1 chi/6 leaves 1/6 a0 a1, which is no int
    A = WordAlgebra((2,), 1, 3)
    a0, a1 = A.odd_word(0, 0), A.odd_word(0, 1)
    chi = A.even_word((1,))
    images = {(0, 0): Vec({chi: Fraction(1, 3)}),
              (0, 1): Vec({chi: Fraction(2, 3)})}
    x = Vec({a0: Fraction(3, 2), a1: Fraction(3, 4)})
    for parity in (0, 1):
        got = Derivation(A, images, parity)(x)
        assert got == Vec({chi: 1}) == oracle_derive(A, images, parity, x)
        assert type(got[chi]) is int and is_normalised(got)
    x = Vec({A.make_word([(0, 1)], (1,)): Fraction(1, 6), a0: 2})
    got = A.dchi(0, x)
    assert got == Vec({A.make_word([(0, 1)], (0,)): Fraction(1, 6)})
    assert is_normalised(got)


@pytest.mark.parametrize("parity", [0, 1])
def test_derive_matches_leibniz_oracle_exhaustive(parity):
    A = WordAlgebra((2, 2), 2, 2)
    words = list(A.words())
    gens = [(c, i) for c in range(2) for i in range(2)]
    gens += [(EVEN, k) for k in range(2)]
    for n, g in enumerate(gens):
        image = Vec({words[(5 * n + 7 * t) % len(words)]: Fraction(t + 1, 2)
                     for t in range(3)})
        for w in words:
            x = Vec({w: 3})
            assert A.derive({g: image}, parity, x) \
                == oracle_derive(A, {g: image}, parity, x)


def test_derive_drops_an_overflow_at_either_product():
    # odd generator -> chi: pre * image fits, the suffix chi^2 overflows;
    # and an image that alone exceeds the cap
    A = WordAlgebra((1,), 1, 2)
    x = Vec({A.make_word([(0,)], (2,)): 1})
    for image in (Vec({A.even_word((1,)): 1}), Vec({A.even_word((3,)): 1})):
        assert A.derive({(0, 0): image}, 1, x).is_zero()
        assert oracle_derive(A, {(0, 0): image}, 1, x).is_zero()
    fits = A.derive({(0, 0): Vec({A.even_word((0,)): 1})}, 1, x)
    assert fits == Vec({A.even_word((2,)): 1})


def test_derive_drops_an_overflow_meeting_the_prefix():
    # x = a0 a1 chi^2, cap 2; the image a0 chi of a1 overflows against
    # chi^2 and meets the prefix a0
    A = WordAlgebra((2,), 1, 2)
    x = Vec({A.make_word([(0, 1)], (2,)): 1})
    images = {(0, 1): Vec({A.make_word([(0,)], (1,)): 1})}
    assert A.derive(images, 1, x).is_zero()
    assert oracle_derive(A, images, 1, x).is_zero()


def test_derive_drops_an_overflow_meeting_the_suffix():
    # the image a1 chi of a0 meets only the suffix a1 chi^2: pre * img
    # survives, and the product with the suffix overflows
    A = WordAlgebra((2,), 1, 2)
    x = Vec({A.make_word([(0, 1)], (2,)): 1})
    images = {(0, 0): Vec({A.make_word([(1,)], (1,)): 1})}
    assert A.derive(images, 1, x).is_zero()
    assert oracle_derive(A, images, 1, x).is_zero()


# ---------------------------------------------------------------------------
# the closed forms of iota and d/dchi, and the plan table of Derivation


def assert_closed_forms_match_derivation(A, x):
    """contract_odd and dchi on x, for every generator, against the
    compiled derivation sending that generator to 1: the same entries,
    inserted in the same order."""
    for c, n in enumerate(A.odd_counts):
        for i in range(n):
            got = A.contract_odd(c, i, x)
            want = Derivation(A, {(c, i): A.one()}, 1)(x)
            assert got == want and list(got) == list(want), (c, i, x)
            assert is_normalised(got)
    for k in range(A.n_even):
        got = A.dchi(k, x)
        want = Derivation(A, {(EVEN, k): A.one()}, 0)(x)
        assert got == want and list(got) == list(want), (k, x)
        assert is_normalised(got)


@given(st.data())
def test_closed_forms_match_derivation(data):
    # random words of every colour, with or without each letter, some
    # over the cap
    A = data.draw(algebras())
    x = data.draw(vecs(A, 6, max_exp=3, coefs=INPUT_COEFS))
    assert_closed_forms_match_derivation(A, x)


def test_closed_forms_match_derivation_exhaustive():
    # every word of three colours, one at a time and all together: the
    # sign of iota counts the odd letters of the earlier colours too
    A = WordAlgebra((2, 2, 2), 2, 2)
    words = list(A.words(max_weight=3))
    for w in words:
        assert_closed_forms_match_derivation(A, Vec({w: Fraction(3, 2)}))
    assert_closed_forms_match_derivation(
        A, Vec({w: t % 5 - 2 for t, w in enumerate(words)}))


def mixed_images(A, n):
    """Images of every generator of WordAlgebra((2, 2), 2, 2): three
    terms each, of weight 0, 1 and 2 and mixed odd parts, varied by n."""
    low = list(A.words(max_weight=0))
    chi = [A.even_word(J) for J in mi_upto(2, 2)]
    gens = [(c, i) for c in range(2) for i in range(2)]
    gens += [(EVEN, k) for k in range(2)]
    return {g: Vec({A.mul_words(low[(3 * t + 5 * n) % len(low)],
                                chi[(t + 2 * n + j) % len(chi)])[1]:
                    Fraction(t + 1, 1 + j % 2)
                    for j in range(3)})
            for t, g in enumerate(gens)}


def test_plans_are_reused_across_weights_and_calls():
    # one compiled derivation per image set, driven over the words of
    # each odd part at every weight up to two over the cap, rising, then
    # falling, then all together: each odd part's plan is built from one
    # word and read at every other weight, and the row table cuts image
    # terms of weight 0, 1 and 2 at different input weights
    A = WordAlgebra((2, 2), 2, 2)
    low = list(A.words(max_weight=0))
    for parity in (0, 1):
        for n in range(3):
            images = mixed_images(A, n)
            D = Derivation(A, images, parity)
            parts = {w[:-1] for w in low}
            Js = list(mi_upto(2, 4))
            for order in (Js, Js[::-1]):
                for p in parts:
                    for J in order:
                        x = Vec({p + (J,): 2})
                        got, want = D(x), oracle_derive(A, images, parity, x)
                        assert got == want and list(got) == list(want), \
                            (parity, n, p, J)
            x = Vec({p + (J,): 1 + t % 3
                     for t, (p, J) in enumerate(itertools.product(parts, Js))})
            got, want = D(x), oracle_derive(A, images, parity, x)
            assert got == want and list(got) == list(want)


def test_one_plan_per_odd_part():
    # one odd part driven over every weight up to two over the cap, then
    # again at every output cap: the weight and the cap only pick rows
    # of the table
    A = WordAlgebra((2, 2), 2, 2)
    parts = A.make_word([(0, 1), (1,)], (0, 0))[:-1]
    xs = [Vec({parts + (J,): 1}) for J in mi_upto(2, 4)]
    for parity in (0, 1):
        D = Derivation(A, mixed_images(A, 1), parity)
        for x in xs:
            D(x)
        assert len(D._plans) == 1
        for x in xs:
            for cap in range(A.trunc + 1):
                D(x, max_weight=cap)
        assert len(D._plans) == 1


# ---------------------------------------------------------------------------
# the output cap of Derivation


@pytest.mark.parametrize("parity", [0, 1])
def test_window_is_restriction_exhaustive(parity):
    # every word up to two over the cap, one at a time and all together
    A = WordAlgebra((2, 2), 2, 2)
    words = list(A.words(max_weight=4))
    for n in range(3):
        D = Derivation(A, mixed_images(A, n), parity)
        for w in words:
            assert_window_is_restriction(D, Vec({w: Fraction(3, 2)}),
                                         A.trunc)
        assert_window_is_restriction(
            D, Vec({w: t % 5 - 2 for t, w in enumerate(words)}), A.trunc)


@given(st.data(), st.integers(0, 1))
def test_window_is_restriction(data, parity):
    A = data.draw(algebras())
    gens = [(c, i) for c, n in enumerate(A.odd_counts) for i in range(n)]
    gens += [(EVEN, k) for k in range(A.n_even)]
    images = data.draw(st.dictionaries(
        st.sampled_from(gens), vecs(A, 3, coefs=IMAGE_COEFS),
        min_size=1, max_size=len(gens)))
    x = data.draw(vecs(A, 5, max_exp=2, coefs=INPUT_COEFS))
    assert_window_is_restriction(Derivation(A, images, parity), x, A.trunc)


def test_window_over_the_cap_is_refused():
    A = WordAlgebra((1,), 1, 2)
    D = Derivation(A, {(0, 0): A.one()}, 1)
    x = Vec({A.odd_word(0, 0): 1})
    for op in (lambda mw: D(x, max_weight=mw),
               lambda mw: A.mul(x, x, max_weight=mw),
               lambda mw: A.contract_odd(0, 0, x, max_weight=mw),
               lambda mw: A.dchi(0, x, max_weight=mw)):
        with pytest.raises(ValueError, match="over the algebra's cap"):
            op(3)


# ---------------------------------------------------------------------------
# the output caps of the product and the closed forms: each window is the
# restriction of the uncapped value


def closed_form_ops(A):
    """Every contraction and every d/dchi_k of A, as op(x, max_weight)."""
    ops = [lambda x, mw=None, c=c, i=i: A.contract_odd(c, i, x, mw)
           for c, n in enumerate(A.odd_counts) for i in range(n)]
    return ops + [lambda x, mw=None, k=k: A.dchi(k, x, mw)
                  for k in range(A.n_even)]


def test_product_and_closed_form_windows_exhaustive():
    # every word up to two over the cap alone, every pair of words up to
    # the cap, and all of them at once
    A = WordAlgebra((2, 2), 2, 2)
    words = list(A.words(max_weight=4))
    xs = [Vec({w: Fraction(3, 2)}) for w in words]
    xs.append(Vec({w: t % 5 - 2 for t, w in enumerate(words)}))
    for op in closed_form_ops(A):
        for x in xs:
            assert_window_is_restriction(op, x, A.trunc)
    low = [Vec({w: t % 3 + 1}) for t, w in enumerate(A.words())]
    for x in low + xs[-1:]:
        for y in low + xs[-1:]:
            assert_window_is_restriction(
                lambda v, mw=None: A.mul(v, y, mw), x, A.trunc)


@given(st.data())
def test_product_and_closed_form_windows(data):
    A = data.draw(algebras())
    x = data.draw(vecs(A, 5, max_exp=2, coefs=INPUT_COEFS))
    y = data.draw(vecs(A, 5, max_exp=2, coefs=INPUT_COEFS))
    assert_window_is_restriction(lambda v, mw=None: A.mul(v, y, mw), x,
                                 A.trunc)
    for op in closed_form_ops(A):
        assert_window_is_restriction(op, x, A.trunc)


def sparse(rows):
    """Dense rows as sparse rows {column: entry}, zeros dropped and
    entries normalised as in a Vec."""
    return [Vec(enumerate(row)) for row in rows]


def dense(row, ncols):
    return [Fraction(row.get(j, 0)) for j in range(ncols)]


def normalised(row):
    return all(type(c) is int and c or type(c) is Fraction
               and c.denominator > 1 for c in row.values())


@st.composite
def matrices_with_zero_lines(draw):
    """Fraction matrices up to 12 x 12 (often sparse) with some rows and
    some columns zeroed."""
    ncols = draw(st.integers(0, 12))
    rows = draw(st.lists(
        st.lists(st.one_of(st.just(Fraction(0)), RATIONALS),
                 min_size=ncols, max_size=ncols), max_size=12))
    zero_rows = draw(st.sets(st.integers(0, 11)))
    zero_cols = draw(st.sets(st.integers(0, 11)))
    return [[Fraction(0) if i in zero_rows or j in zero_cols else v
             for j, v in enumerate(row)] for i, row in enumerate(rows)], ncols


@settings(deadline=None)
@given(matrices_with_zero_lines())
def test_rref_matches_dense_oracle(case):
    # the sparse form holds the nonzero rows of the dense one
    rows, ncols = case
    red, pivots = rref(sparse(rows))
    want, want_pivots = oracle_rref(rows)
    assert pivots == want_pivots
    assert [dense(row, ncols) for row in red] == want[:len(pivots)]
    assert not any(any(row) for row in want[len(pivots):])
    assert all(normalised(row) for row in red)


@settings(deadline=None)
@given(matrices_with_zero_lines())
def test_kernel_basis_matches_dense_formula(case):
    rows, ncols = case
    basis = [dense(v, ncols) for v in kernel_basis(sparse(rows), ncols)]
    for v in basis:
        assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in rows)
    rank = len(oracle_rref(rows)[1]) if rows else 0
    assert len(basis) == ncols - rank
    assert basis == oracle_kernel_basis(rows, ncols)


@settings(deadline=None)
@given(matrices_with_zero_lines())
def test_mat_inv_matches_dense_oracle(case):
    # square cases only: (a | 1) reduced densely gives the inverse
    rows, _ = case
    a = [row[:len(rows)] + [Fraction(0)] * (len(rows) - len(row))
         for row in rows]
    n = len(a)
    red, pivots = oracle_rref([row + [Fraction(int(i == j))
                                      for j in range(n)]
                               for i, row in enumerate(a)])
    if pivots != list(range(n)):
        with pytest.raises(ValueError, match="not invertible"):
            mat_inv(a)
    else:
        assert mat_inv(a) == [row[n:] for row in red]
