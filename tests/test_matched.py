import itertools
from fractions import Fraction

import pytest

from liepairs.cohomology import t_complex_keys
from liepairs.core import Vec, mi_upto
from liepairs.liepair import a_form_algebra
from liepairs.matched import MatchedD, MatchedT, b_action_images, is_matched
from liepairs.transfer import small_sdeg

from helpers import MATCHED, d_small_keys, load, pipeline, plain

NOT_MATCHED = ["heisenberg_center", "sl2_h"]


@pytest.fixture(scope="module")
def pipelines():
    out = {}
    for name in MATCHED:
        p = pipeline(name)
        out[name] = (p.sp, p.T, p.D, p.pt, p.tr, p.td)
    return out


def test_detection():
    expected = {"heisenberg_center": False, "heisenberg_x": True,
                "sl2_borel": True, "sl2_h": False, "abelian": True}
    for name, want in expected.items():
        pair, sp, conn = load(name)
        assert is_matched(sp) == want, name


def test_refusal_on_unmatched():
    for name in NOT_MATCHED:
        pair, sp, conn = load(name)
        with pytest.raises(ValueError):
            MatchedT(sp)


def test_section_bracket_display(pipelines):
    # on two sections the direct bracket is the pointwise bracket plus
    # the two action terms, with a wedge in front of each
    for name, (sp, T, D, pt, tr, td) in pipelines.items():
        mt = MatchedT(sp)
        fa = a_form_algebra(sp.pair)
        acts = b_action_images(sp)
        fws = list(fa.words(max_weight=0))
        for fw1 in fws:
            for fw2 in fws:
                for b1 in range(sp.r):
                    for b2 in range(sp.r):
                        got = mt.bracket(Vec({(fw1, (b1,)): 1}),
                                         Vec({(fw2, (b2,)): 1}))
                        exp = Vec()
                        wedge = fa.mul(Vec({fw1: 1}), Vec({fw2: 1}))
                        for w, c in sp.struct_const(sp.m + b1,
                                                    sp.m + b2).items():
                            for fw3, cf in wedge.items():
                                exp.iadd_term((fw3, (w - sp.m,)),
                                              c * cf)
                        acted2 = fa.derive(acts[b1], 0, Vec({fw2: 1}))
                        for fw3, cf in fa.mul(Vec({fw1: 1}),
                                              acted2).items():
                            exp.iadd_term((fw3, (b2,)), cf)
                        acted1 = fa.derive(acts[b2], 0, Vec({fw1: 1}))
                        for fw3, cf in fa.mul(acted1,
                                              Vec({fw2: 1})).items():
                            exp.iadd_term((fw3, (b1,)), -cf)
                        assert got == exp, (name, fw1, fw2, b1, b2)


def test_enveloping_shuffle_product(pipelines):
    # the product of the extended enveloping algebra: part of the left
    # monomial acts on the right form through shuffles, the rest
    # multiplies the right class
    for name, (sp, T, D, pt, tr, td) in pipelines.items():
        md = MatchedD(D.P)
        fa = a_form_algebra(sp.pair)
        r = sp.r
        fws = list(fa.words(max_weight=0))
        mono_pool = [J for J in mi_upto(r, 2)]
        for P in mono_pool:
            letters = []
            for k, e in enumerate(P):
                letters += [k] * e
            n = len(letters)
            for Q in mono_pool:
                for fw1 in fws[:2]:
                    for fw2 in fws:
                        got = md.star(Vec({(fw1, (P,)): 1}),
                                      Vec({(fw2, (Q,)): 1}))
                        exp = Vec()
                        for kk in range(n + 1):
                            for sub in itertools.combinations(
                                    range(n), kk):
                                rest = [letters[i] for i in range(n)
                                        if i not in sub]
                                eta = Vec({fw2: Fraction(1)})
                                for i in reversed(sub):
                                    eta = fa.derive(
                                        md._act_images[letters[i]], 0,
                                        eta)
                                cls = D.P.u_reduce(
                                    tuple(sp.m + t for t in rest)
                                    + D.P.y_mono(Q))
                                wedged = fa.mul(Vec({fw1: 1}), eta)
                                for fw3, cf in wedged.items():
                                    for K, ck in cls.items():
                                        exp.iadd_term((fw3, (K,)),
                                                      cf * ck)
                        assert got == exp, (name, P, Q, fw1, fw2)


def test_transferred_equals_direct_t(pipelines):
    for name, (sp, T, D, pt, tr, td) in pipelines.items():
        mt = MatchedT(sp)
        keys = t_complex_keys(sp)
        for k1 in keys:
            s1 = small_sdeg(k1)
            sgn = -1 if s1 % 2 else 1
            for k2 in keys:
                direct = mt.bracket(Vec({k1: 1}), Vec({k2: 1}))
                assert sgn * tr.lam_keys((k1, k2)) == direct, \
                    (name, k1, k2)


def test_transferred_equals_direct_d(pipelines):
    for name, (sp, T, D, pt, tr, td) in pipelines.items():
        md = MatchedD(D.P)
        keys = d_small_keys(sp)
        for k1 in keys:
            sgn = -1 if small_sdeg(k1) % 2 else 1
            for k2 in keys:
                direct = md.gerst(Vec({k1: 1}), Vec({k2: 1}))
                assert sgn * td.lam_keys((k1, k2)) == direct, \
                    (name, k1, k2)


def test_higher_brackets_vanish(pipelines):
    for name, (sp, T, D, pt, tr, td) in pipelines.items():
        keys = t_complex_keys(sp)
        for tup in itertools.product(keys[::2], repeat=3):
            assert tr.lam_keys(tup).is_zero(), (name, tup)
        dkeys = d_small_keys(sp, max_cls=1)
        for tup in itertools.product(dkeys[::4], repeat=3):
            assert td.lam_keys(tup).is_zero(), (name, tup)


def test_extended_inclusion_is_multiplicative(pipelines):
    # the inclusion of a product of a scalar and a vertical section is
    # the product of the inclusions, exactly
    for name, (sp, T, D, pt, tr, td) in pipelines.items():
        fa = a_form_algebra(sp.pair)
        fws = list(fa.words(max_weight=0))
        for fw1 in fws:
            for fw2 in fws:
                for b in range(sp.r):
                    prod = fa.mul(Vec({fw1: 1}), Vec({fw2: 1}))
                    lhs = Vec()
                    for fw3, c in prod.items():
                        lhs += c * pt.tau(Vec({(fw3, (b,)): 1}))
                    rhs = T.alg.mul(pt.tau(Vec({(fw1, ()): 1})),
                                    pt.tau(Vec({(fw2, (b,)): 1})))
                    assert lhs == rhs, (name, fw1, fw2, b)


def test_extended_inclusion_preserves_bracket(pipelines):
    # the inclusion intertwines the direct bracket with the big-side
    # bracket on sections, and on a section against a scalar, exactly
    for name, (sp, T, D, pt, tr, td) in pipelines.items():
        mt = MatchedT(sp)
        fa = a_form_algebra(sp.pair)
        fws = list(fa.words(max_weight=0))
        keys1 = [(fw, (b,)) for fw in fws for b in range(sp.r)]
        for k1 in keys1:
            for k2 in keys1:
                lhs = plain(T, pt.tau(Vec({k1: 1})),
                            pt.tau(Vec({k2: 1})))
                rhs = pt.tau(mt.bracket(Vec({k1: 1}), Vec({k2: 1})))
                assert lhs == rhs, (name, k1, k2)
            for fw2 in fws:
                k2 = (fw2, ())
                lhs = plain(T, pt.tau(Vec({k1: 1})),
                            pt.tau(Vec({k2: 1})))
                rhs = pt.tau(mt.bracket(Vec({k1: 1}), Vec({k2: 1})))
                assert lhs == rhs, (name, k1, fw2)
