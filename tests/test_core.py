from fractions import Fraction
import itertools

import pytest
from hypothesis import given, strategies as st

from liepairs.core import (
    EVEN, Vec, WordAlgebra, mi_add, mi_all, mi_binom, mi_fact, mi_le,
    mi_sub, mi_unit, mi_upto, mi_weight, mi_zero, pair_dual, rref,
    sort_sign, sym_comul,
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


def test_vec_truncated_flag_propagates():
    a = Vec(truncated=True)
    b = Vec({('x',): 1})
    assert (a + b).truncated
    assert (b + a).truncated
    assert (b - a).truncated
    assert (3 * a).truncated


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


def test_truncation_flags():
    A = WordAlgebra((1,), 1, 2)
    x = Vec({A.even_word((2,)): 1})
    prod = A.mul(x, x)
    assert prod.is_zero()
    assert prod.truncated


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


def test_substitute_is_algebra_morphism():
    A = alg(na=1, nb=2, ne=2, trunc=4)
    images = {
        (1, 0): Vec({A.odd_word(1, 0): 1, A.odd_word(1, 1): Fraction(1, 2)}),
        (EVEN, 1): Vec({A.even_word((0, 1)): 1, A.even_word((1, 0)): -2}),
    }
    words = list(A.words(max_weight=1))
    for w1, w2 in itertools.product(words, repeat=2):
        x, y = Vec({w1: 1}), Vec({w2: 1})
        lhs = A.substitute(images, A.mul(x, y))
        rhs = A.mul(A.substitute(images, x), A.substitute(images, y))
        assert lhs == rhs


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
    assert v[('missing',)] == 0


@pytest.mark.parametrize("make", [
    lambda: Vec({('x',): 0.5}),
    lambda: Vec({('x',): 1}) * 0.5,
    lambda: Vec({('x',): 1}).iadd_term(('x',), 0.25),
    lambda: Vec({('x',): 1}).iadd_scaled(1.5, Vec({('x',): 1})),
])
def test_vec_rejects_floats(make):
    with pytest.raises(TypeError):
        make()


def _exact_invariant(v):
    return all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
               for c in v.values())


RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@given(st.lists(st.tuples(st.integers(0, 3), RATIONALS), max_size=8),
       RATIONALS)
def test_vec_invariant_under_arithmetic(terms, scale):
    v = Vec()
    for k, c in terms:
        v.iadd_term(k, c)
        assert _exact_invariant(v)
    w = Vec(terms)
    for out in (v, w, v + w, v - w, scale * v, -v,
                Vec(v).iadd_scaled(scale, w)):
        assert _exact_invariant(out)
    assert v == w


# ---------------------------------------------------------------------------
# the kernel against its earlier formulations: flatten the odd generators,
# sort with sort_sign, rebuild; one Vec per Leibniz factor; dense rref


def _odd_seq(A, w):
    return [(c, i) for c in range(A.n_colours) for i in w[c]]


def _word_from_seq(A, gens, J):
    parts = [[] for _ in A.odd_counts]
    for c, i in gens:
        parts[c].append(i)
    return tuple(tuple(p) for p in parts) + (tuple(J),)


def oracle_mul_words(A, w1, w2):
    J = mi_add(w1[-1], w2[-1])
    if A.trunc is not None and mi_weight(J) > A.trunc:
        return 'overflow'
    sign, merged = sort_sign(_odd_seq(A, w1) + _odd_seq(A, w2))
    if sign == 0:
        return None
    return sign, _word_from_seq(A, merged, J)


def oracle_derive(A, images, parity, x):
    zero = mi_zero(A.n_even)
    out = Vec(truncated=x.truncated)
    for w, coef in x.items():
        gens = _odd_seq(A, w)
        J = w[-1]
        for t, g in enumerate(gens):
            img = images.get(g)
            if not img:
                continue
            sgn = -1 if parity % 2 and t % 2 else 1
            pre = _word_from_seq(A, gens[:t], zero)
            suf = _word_from_seq(A, gens[t + 1:], J)
            out += A.mul(A.mul(Vec({pre: coef * sgn}), img), Vec({suf: 1}))
        base = -1 if parity % 2 and len(gens) % 2 else 1
        for k in range(A.n_even):
            img = images.get((EVEN, k))
            if J[k] == 0 or not img:
                continue
            front = _word_from_seq(A, gens, zero)
            rest = A.even_word(mi_sub(J, mi_unit(A.n_even, k)))
            out += A.mul(A.mul(Vec({front: coef * base * J[k]}), img),
                         Vec({rest: 1}))
    return out


def oracle_rref(rows):
    rows = [list(map(Fraction, r)) for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0),
                   None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = Fraction(1) / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    return rows, pivots


@st.composite
def algebras(draw):
    counts = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    trunc = draw(st.one_of(st.none(), st.integers(0, 4)))
    return WordAlgebra(counts, draw(st.integers(0, 3)), trunc)


def raw_words(A, max_exp=1):
    """Canonical words whose even weight may exceed the cap."""
    parts = [st.sets(st.integers(0, n - 1)).map(lambda s: tuple(sorted(s)))
             for n in A.odd_counts]
    J = st.tuples(*[st.integers(0, max_exp)] * A.n_even)
    return st.tuples(*parts, J)


def vecs(A, max_size=4, max_exp=1):
    return st.builds(
        Vec, st.dictionaries(raw_words(A, max_exp), RATIONALS,
                             max_size=max_size),
        truncated=st.sampled_from([False, False, False, True]))


@pytest.mark.parametrize("counts, n_even, trunc", [
    ((4,), 0, None), ((2, 2), 1, 1), ((1, 2, 2), 2, 2)])
def test_mul_words_matches_sort_sign_oracle_exhaustive(counts, n_even,
                                                       trunc):
    A = WordAlgebra(counts, n_even, trunc)
    words = list(A.words(max_weight=trunc or 1))
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
    images = data.draw(st.dictionaries(st.sampled_from(gens), vecs(A, 3),
                                       min_size=1, max_size=len(gens)))
    x = data.draw(vecs(A, max_exp=2))
    got = A.derive(images, parity, x)
    want = oracle_derive(A, images, parity, x)
    assert got == want
    assert got.truncated == want.truncated
    assert _exact_invariant(got)


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
            got = A.derive({g: image}, parity, x)
            want = oracle_derive(A, {g: image}, parity, x)
            assert got == want and got.truncated == want.truncated


def test_derive_flags_truncation_at_either_product():
    # odd generator -> chi: pre * image fits, the suffix chi^2 overflows;
    # and an image that alone exceeds the cap
    A = WordAlgebra((1,), 1, 2)
    x = Vec({A.make_word([(0,)], (2,)): 1})
    for image in (Vec({A.even_word((1,)): 1}), Vec({A.even_word((3,)): 1})):
        got = A.derive({(0, 0): image}, 1, x)
        assert got.is_zero() and got.truncated
        assert oracle_derive(A, {(0, 0): image}, 1, x).truncated
    fits = A.derive({(0, 0): Vec({A.even_word((0,)): 1})}, 1, x)
    assert fits == Vec({A.even_word((2,)): 1}) and not fits.truncated


def test_derive_overflow_meeting_the_prefix_is_not_flagged():
    # x = a0 a1 chi^2, cap 2; the image a0 chi of a1 overflows against
    # chi^2 but meets the prefix a0, so pre * img is zero before any
    # weight is looked at
    A = WordAlgebra((2,), 1, 2)
    x = Vec({A.make_word([(0, 1)], (2,)): 1})
    images = {(0, 1): Vec({A.make_word([(0,)], (1,)): 1})}
    got = A.derive(images, 1, x)
    assert got.is_zero() and not got.truncated
    assert not oracle_derive(A, images, 1, x).truncated


def test_derive_overflow_meeting_the_suffix_is_flagged():
    # the image a1 chi of a0 meets only the suffix a1 chi^2: pre * img
    # survives, and the product with the suffix overflows first
    A = WordAlgebra((2,), 1, 2)
    x = Vec({A.make_word([(0, 1)], (2,)): 1})
    images = {(0, 0): Vec({A.make_word([(1,)], (1,)): 1})}
    got = A.derive(images, 1, x)
    assert got.is_zero() and got.truncated
    assert oracle_derive(A, images, 1, x).truncated


@given(st.integers(0, 6).flatmap(lambda ncols: st.lists(
    st.lists(st.one_of(st.just(Fraction(0)), RATIONALS),
             min_size=ncols, max_size=ncols), max_size=6)))
def test_rref_matches_dense_oracle(rows):
    assert rref(rows) == oracle_rref(rows)
