import itertools

import pytest
from hypothesis import given, settings, strategies as st

from liepairs.contraction import Contraction, perturbed
from liepairs.cohomology import d_complex_keys, t_complex_keys
from liepairs.core import Vec, koszul_sign, mi_upto
from liepairs.liepair import a_form_algebra, d_a_bott
from liepairs.transfer import Transfer, small_sdeg

from helpers import FIXTURES, d_small_keys, pipeline, plain


@pytest.fixture(scope="module")
def transfers():
    out = {}
    for name in FIXTURES:
        p = pipeline(name)
        out[name] = (p.T, p.D, p.tr, p.td)
    return out


def test_koszul_sign():
    assert koszul_sign([1, 1], (0, 1)) == 1
    assert koszul_sign([1, 1], (1, 0)) == -1
    assert koszul_sign([1, 2], (1, 0)) == 1
    assert koszul_sign([1, 1, 1], (0, 2, 1)) == -1


def test_unary_bracket_is_small_differential(transfers):
    for name, (T, D, tr, td) in transfers.items():
        for key in t_complex_keys(T.sp):
            x = Vec({key: 1})
            assert tr.lam_keys((key,)) == d_a_bott(T.sp, x), (name, key)


def test_lam2_graded_symmetric(transfers):
    for name in ("sl2_h", "heisenberg_center"):
        T, D, tr, td = transfers[name]
        keys = t_complex_keys(T.sp)
        for k1 in keys:
            for k2 in keys:
                t1 = small_sdeg(k1) + 1
                t2 = small_sdeg(k2) + 1
                s = -1 if (t1 * t2) % 2 else 1
                diff = tr.lam_keys((k1, k2)) - s * tr.lam_keys((k2, k1))
                assert diff.is_zero(), (name, k1, k2)
        dkeys = d_small_keys(D.sp, max_cls=1)[::2]
        for k1 in dkeys:
            for k2 in dkeys:
                t1 = small_sdeg(k1) + 1
                t2 = small_sdeg(k2) + 1
                s = -1 if (t1 * t2) % 2 else 1
                diff = td.lam_keys((k1, k2)) - s * td.lam_keys((k2, k1))
                assert diff.is_zero(), (name, k1, k2)


def test_generalized_jacobi_t(transfers):
    # all five pairs, arities 1-3 exhaustively on a sampled key set,
    # exact equality: weight-zero output of the transfer is untruncated
    for name, (T, D, tr, td) in transfers.items():
        keys = t_complex_keys(T.sp)
        for n in (1, 2, 3):
            for tup in itertools.product(keys[::2], repeat=n):
                assert tr.jacobi_defect(tup).is_zero(), (name, tup)


def test_generalized_jacobi_t_arity4(transfers):
    for name in ("sl2_h", "sl2_borel"):
        T, D, tr, td = transfers[name]
        keys = t_complex_keys(T.sp)
        for tup in itertools.product(keys[::3], repeat=4):
            assert tr.jacobi_defect(tup).is_zero(), (name, tup)


def test_generalized_jacobi_d(transfers):
    for name, (T, D, tr, td) in transfers.items():
        keys = d_small_keys(D.sp, max_cls=1)
        for n in (1, 2):
            for tup in itertools.product(keys[::3], repeat=n):
                assert td.jacobi_defect(tup).is_zero(), (name, tup)


def test_generalized_jacobi_d_arity3(transfers):
    for name in ("sl2_h", "heisenberg_center"):
        T, D, tr, td = transfers[name]
        keys = d_small_keys(D.sp, max_cls=1)
        for tup in itertools.product(keys[::9], repeat=3):
            assert td.jacobi_defect(tup).is_zero(), (name, tup)


def test_jacobi_d_arity3_couples_unary_and_ternary(transfers):
    # regression: triples of two-slot classes whose ternary identity
    # mixes the unary bracket with the ternary one; these only close
    # when the internal-edge sign matches the homotopy convention
    T, D, tr, td = transfers["sl2_h"]
    a = (((), ()), ((1, 0), (0, 0)))
    b = (((), ()), ((0, 0), (0, 1)))
    assert not td.lam((td.lam_keys((a,)), Vec({a: 1}),
                       Vec({b: 1}))).is_zero()
    for tup in [(a, a, b), (a, b, a), (b, a, a), (a, b, b), (b, b, a)]:
        assert td.jacobi_defect(tup).is_zero(), tup
    pairs = [t for t in itertools.product(list(mi_upto(D.r, 1)),
                                          repeat=2)]
    fa = a_form_algebra(D.sp.pair)
    fw0 = next(iter(fa.words(max_weight=0)))
    two_slot = [(fw0, cls) for cls in pairs]
    for tup in itertools.product(two_slot[::2], repeat=3):
        assert td.jacobi_defect(tup).is_zero(), tup


def test_corrupted_bracket_fails_jacobi(transfers):
    # negative control: dropping the suspension sign of the binary
    # bracket corrupts the transferred brackets, and the relation
    # checker reports a witness
    T, D, tr, td = transfers["sl2_h"]
    bad = Transfer(perturbed(T),
                   lambda u, v, max_weight=None: plain(T, u, v, max_weight))
    keys = t_complex_keys(T.sp)
    witness = None
    for tup in itertools.product(keys, repeat=3):
        if not bad.jacobi_defect(tup).is_zero():
            witness = tup
            break
    assert witness is not None


def test_capped_root_matches_uncapped_top_sum():
    # lam_keys caps the top brackets at weight 0 and keeps no capped sum;
    # sigma of the uncapped top sum, built afterwards, is the same value
    # (new transfers, so that no earlier test has filled their caches)
    for name in FIXTURES:
        p = pipeline(name)
        for t, keys in ((p.tr, t_complex_keys(p.sp)),
                        (p.td, d_complex_keys(p.sp))):
            for pair in itertools.combinations_with_replacement(
                    sorted(keys), 2):
                lam = t.lam_keys(pair)
                assert pair not in t._b_cache, (name, pair)
                assert lam == t.sigma(t._B(pair)), (name, pair)
                assert pair in t._b_cache, (name, pair)


def test_lam_multilinear(transfers):
    T, D, tr, td = transfers["sl2_h"]
    keys = t_complex_keys(T.sp)
    x = Vec({keys[1]: 2, keys[3]: -3})
    y = Vec({keys[2]: 1})
    expect = (2 * tr.lam_keys((keys[1], keys[2]))
              - 3 * tr.lam_keys((keys[3], keys[2])))
    assert tr.lam((x, y)) == expect


def test_zero_argument_makes_no_bracket_call():
    # a zero u or v brackets to zero without calling the big bracket; a
    # nonzero pair calls it once, on u and v as they are
    calls = []

    def bracket(u, v, max_weight=None):
        calls.append((u, v))
        return Vec({"out": 1})

    tr = Transfer(Contraction(None, None, None, None, None, 0), bracket)
    u = Vec({1: 2, 2: 3})
    for a, b in ((Vec(), u), (u, Vec()), (Vec(), Vec())):
        assert tr._bracket(a, b) == Vec()
    assert calls == []
    assert tr._bracket(u, u) == Vec({"out": 1})
    assert calls == [(u, u)]


def test_sorting_sign():
    # the Koszul sign of the stable permutation that sorts the keys
    for keys, degs, sign in (
            ((1, 2), [1, 1], 1), ((2, 1), [1, 1], -1), ((2, 1), [1, 2], 1),
            ((3, 2, 1), [1, 1, 1], -1), ((1, 1), [1, 1], 1)):
        order = sorted(range(len(keys)), key=keys.__getitem__)
        assert koszul_sign(degs, order) == sign, keys


# ---------------------------------------------------------------------------
# the brackets cached once per multiset against the tree formula on
# ordered tuples, as first written


class PlainTree:
    """lam_keys of a Transfer by the tree formula, every ordered tuple
    built on its own; each ordered tuple is kept once.  The bracket is
    expanded bilinearly over basis words, each pair bracketed once."""

    def __init__(self, tr):
        self.tr = tr
        self.f, self.b, self.lam, self.pairs = {}, {}, {}, {}

    def bracket(self, u, v):
        out = Vec()
        for wu, cu in u.items():
            for wv, cv in v.items():
                val = self.pairs.get((wu, wv))
                if val is None:
                    val = self.pairs[(wu, wv)] = self.tr.bracket(
                        Vec({wu: 1}), Vec({wv: 1}))
                out.iadd_scaled(cu * cv, val)
        return out

    def F(self, keys):
        if keys not in self.f:
            if len(keys) == 1:
                self.f[keys] = self.tr.tau(Vec({keys[0]: 1}))
            else:
                self.f[keys] = self.tr.h(self.B(keys))
        return self.f[keys]

    def B(self, keys):
        if keys not in self.b:
            n = len(keys)
            degs = [small_sdeg(k) + 1 for k in keys]
            out = Vec()
            for ssize in range(0, n - 1):
                for s_rest in itertools.combinations(range(1, n), ssize):
                    left = (0,) + s_rest
                    right = tuple(i for i in range(1, n)
                                  if i not in s_rest)
                    eps = koszul_sign(degs, left + right)
                    u = self.F(tuple(keys[i] for i in left))
                    v = self.F(tuple(keys[i] for i in right))
                    out += eps * self.bracket(u, v)
            self.b[keys] = out
        return self.b[keys]

    def lam_keys(self, keys):
        if keys not in self.lam:
            if len(keys) == 1:
                self.lam[keys] = self.tr.d_small(Vec({keys[0]: 1}))
            else:
                self.lam[keys] = self.tr.sigma(self.B(keys))
        return self.lam[keys]


@pytest.fixture(scope="module")
def trees(transfers):
    return {name: (PlainTree(tr), PlainTree(td))
            for name, (T, D, tr, td) in transfers.items()}


def d_slot_keys(D):
    """Weight-1 single-slot polydifferential keys."""
    fa = a_form_algebra(D.sp.pair)
    return [(fw, (J,)) for fw in fa.words(max_weight=0)
            for J in mi_upto(D.r, 1) if sum(J) == 1]


def test_symmetric_cache_matches_tree_formula(transfers, trees):
    for name, (T, D, tr, td) in transfers.items():
        ptr, ptd = trees[name]
        for side, keys, arity, cached, oracle in (
                ("t", t_complex_keys(T.sp), 4, tr, ptr),
                ("d", d_slot_keys(D), 3, td, ptd)):
            for n in range(1, arity + 1):
                for tup in itertools.product(keys, repeat=n):
                    assert cached.lam_keys(tup) == oracle.lam_keys(tup), \
                        (name, side, tup)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_symmetric_cache_matches_tree_formula_on_samples(
        transfers, trees, data):
    name = data.draw(st.sampled_from(FIXTURES))
    T, D, tr, td = transfers[name]
    ptr, ptd = trees[name]
    side = data.draw(st.sampled_from(["t", "d"]))
    if side == "t":
        keys, n, cached, oracle = t_complex_keys(T.sp), 4, tr, ptr
    else:
        keys, n, cached, oracle = d_small_keys(D.sp, max_cls=1), 3, td, ptd
    drawn = data.draw(st.lists(st.sampled_from(keys), min_size=2,
                               max_size=n))
    # every ordering of the drawn keys, so that some are read through a
    # sorting sign
    for tup in set(itertools.permutations(drawn)):
        assert cached.lam_keys(tup) == oracle.lam_keys(tup), \
            (name, side, tup)
