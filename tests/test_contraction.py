from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liepairs.cohomology import d_complex_keys, t_complex_keys
from liepairs.contraction import Contraction, contraction, perturbed
from liepairs.core import EVEN, Vec, mi_weight, mi_zero
from liepairs.liepair import d_a_bott
from liepairs.pbw import d_a_u
from liepairs.weyl import Weyl

from helpers import (
    FIXTURES, N, assert_window_is_restriction, d_small_keys, defect_side_sh,
    h_table, is_normalised, loop_h, pipeline,
)


@pytest.fixture(scope="module")
def pipelines():
    return {name: pipeline(name) for name in FIXTURES}


@pytest.fixture(scope="module")
def sides(pipelines):
    return {name: (p.T, p.D) for name, p in pipelines.items()}


# ---------------------------------------------------------------------------
# unperturbed contractions through the generic interface


def test_unperturbed_identities(sides):
    for name, (T, D) in sides.items():
        ct = contraction(T)
        cd = contraction(D)
        for key in t_complex_keys(T.sp):
            x = Vec({key: 1})
            assert ct.defect_projection(x).is_zero(), (name, key)
            assert ct.defect_side_ht(x).is_zero(), (name, key)
        for key in d_small_keys(D.sp):
            x = Vec({key: 1})
            assert cd.defect_projection(x).is_zero(), (name, key)
            assert cd.defect_side_ht(x).is_zero(), (name, key)
        for w in T.alg.words(max_weight=N - 1):
            x = Vec({w: 1})
            assert ct.defect_homotopy(x).is_zero(), (name, w)
            assert defect_side_sh(ct, x).is_zero(), (name, w)


def test_side_condition_hh_fails_for_unsigned_homotopy(sides):
    # hh = 0 is a cancellation between the two orders of contracting a
    # pair of chi_k-form letters: an h without the sign (-1)^p of the
    # letter it contracts fails it on the words of the report's
    # side-conditions check
    T, D = sides["sl2_h"]
    ct = contraction(T)

    def unsigned(S, J):
        return tuple((S2, J2, 1) for S2, J2, f in h_table(S, J))

    def unsigned_h(x, max_weight=None):
        return loop_h(T, x, max_weight, unsigned)

    bad = Contraction(ct.sigma, ct.tau, unsigned_h, ct.d_big, ct.d_small,
                      ct.kmax)
    words = list(T.alg.words(max_weight=N - 2))
    assert all(ct.defect_side_hh(Vec({w: 1})).is_zero() for w in words)
    assert any(bad.defect_side_hh(Vec({w: 1})) for w in words)


def test_sigma_rho_h_vanishes(sides):
    # the projection kills anything in the image of the homotopy even
    # after applying the perturbation, so the projection is unchanged;
    # word by word, since rho h keeps the weight at least one
    for name, (T, D) in sides.items():
        for w in T.alg.words(max_weight=2):
            y = T.perturbation(T.h(Vec({w: 1})))
            assert all(mi_weight(w2[-1]) >= 1 for w2 in y), (name, w)
            assert T.project_small(y).is_zero(), (name, w)
        for w in D.W.alg.words(max_weight=2):
            key = (w, (mi_zero(D.r), (1,) + (0,) * (D.r - 1)))
            y = D.perturbation(D.h(Vec({key: 1})))
            assert all(mi_weight(w2[-1]) >= 1 for w2, _ in y), (name, w)
            assert D.project_small(y).is_zero(), (name, w)


def test_rho_table_lowering_the_weight_raises(sides):
    # sigma rho h = 0 rests on rho never lowering the weight; a table
    # with a weight-0 term in the image of an even letter is refused
    T, D = sides["sl2_h"]
    for side in (T, D.W):
        table = dict(side._rho_images)
        g = (EVEN, 0)
        table[g] = table.get(g, Vec()) + Vec({side.alg.odd_word(0, 0): 1})
        with pytest.raises(ValueError, match="lowers the weight"):
            side.set_rho(table)
    # a weight-0 term in the image of an odd letter keeps the weight
    table = dict(D.W._rho_images)
    table[(0, 0)] = Vec({D.W.alg.odd_word(1, 0): 1})
    W = Weyl(D.sp, D.conn, N)
    W.set_rho(table)


# ---------------------------------------------------------------------------
# perturbed contractions


@pytest.fixture(scope="module")
def perturbed_sides(pipelines):
    return {name: (p.T, p.D, p.pt, p.pd) for name, p in pipelines.items()}


def test_perturbed_projection_identity(perturbed_sides):
    for name, (T, D, pt, pd) in perturbed_sides.items():
        for key in t_complex_keys(T.sp):
            assert pt.defect_projection(Vec({key: 1})).is_zero(), \
                (name, key)
        for key in d_small_keys(D.sp):
            assert pd.defect_projection(Vec({key: 1})).is_zero(), \
                (name, key)


def test_transferred_differential_t(perturbed_sides):
    for name, (T, D, pt, pd) in perturbed_sides.items():
        for key in t_complex_keys(T.sp):
            x = Vec({key: 1})
            assert pt.d_small(x) == d_a_bott(T.sp, x), (name, key)


def test_transferred_differential_d(perturbed_sides):
    for name, (T, D, pt, pd) in perturbed_sides.items():
        for key in d_small_keys(D.sp):
            x = Vec({key: 1})
            exp = d_a_u(D.P, x) + D.d_h(x)
            assert pd.d_small(x) == exp, (name, key)


def test_perturbed_homotopy_identity_t(perturbed_sides):
    for name in ("sl2_h", "heisenberg_x"):
        T, D, pt, pd = perturbed_sides[name]
        for w in list(T.alg.words(max_weight=1))[::5]:
            x = Vec({w: 1})
            defect = pt.defect_homotopy(x)
            assert T.restrict_weight(defect, N - 3).is_zero(), (name, w)


def test_perturbed_homotopy_identity_d(perturbed_sides):
    for name in ("sl2_h", "sl2_borel"):
        T, D, pt, pd = perturbed_sides[name]
        e0 = (1,) + (0,) * (D.r - 1)
        for w in list(D.W.alg.words(max_weight=1))[::5]:
            for slots in [(mi_zero(D.r),), (e0, mi_zero(D.r))]:
                x = Vec({(w, slots): 1})
                defect = pd.defect_homotopy(x)
                assert D.restrict_weight(defect, N - 3).is_zero(), \
                    (name, w, slots)


def test_perturbed_chain_maps(perturbed_sides):
    for name in ("sl2_h", "heisenberg_center"):
        T, D, pt, pd = perturbed_sides[name]
        for key in t_complex_keys(T.sp):
            x = Vec({key: 1})
            defect = pt.defect_chain_tau(x)
            assert T.restrict_weight(defect, N - 2).is_zero(), (name, key)
        for key in d_small_keys(D.sp, max_cls=1, with_pairs=False):
            x = Vec({key: 1})
            defect = pd.defect_chain_tau(x)
            assert D.restrict_weight(defect, N - 2).is_zero(), (name, key)
        # sigma is a chain map onto the transferred differential
        for w in list(T.alg.words(max_weight=1))[::4]:
            x = Vec({w: 1})
            defect = pt.defect_chain_sigma(x)
            assert defect.is_zero(), (name, w)
        for w in list(D.W.alg.words(max_weight=1))[::4]:
            e0 = (1,) + (0,) * (D.r - 1)
            x = Vec({(w, (e0,)): 1})
            defect = pd.defect_chain_sigma(x)
            assert defect.is_zero(), (name, w)


def perturbed_inputs(T, D):
    """Every t-side word up to weight 1, and every d-side word up to
    weight 1 with one slot or two."""
    zero = mi_zero(D.r)
    e0 = (1,) + (0,) * (D.r - 1) if D.r else zero
    return (list(T.alg.words(max_weight=1)),
            [(w, slots) for w in D.W.alg.words(max_weight=1)
             for slots in ((zero,), (e0,), (e0, zero))])


def test_perturbed_windows_are_restrictions(perturbed_sides):
    # h' and d' of both perturbed sides keep exactly the words of the
    # uncapped value up to the cap, on each input and on all at once
    for name, (T, D, pt, pd) in perturbed_sides.items():
        for side, c, keys in zip((T, D), (pt, pd), perturbed_inputs(T, D)):
            xs = [Vec({k: Fraction(-3, 2)}) for k in keys]
            xs.append(Vec({k: t % 5 - 2 for t, k in enumerate(keys)}))
            for op in (c.h, c.d_big):
                for x in xs:
                    assert_window_is_restriction(op, x, side.N,
                                                 side.restrict_weight)


def test_capped_defect_homotopy_agrees_below_its_cap(perturbed_sides):
    # the capped defect agrees with the uncapped one at every weight up
    # to its cap; both are zero there, so a capped h'd' or d'h' that
    # missed a word of its window would leave a nonzero defect
    for name in ("sl2_h", "sl2_borel"):
        T, D, pt, pd = perturbed_sides[name]
        for side, c, keys in zip((T, D), (pt, pd), perturbed_inputs(T, D)):
            for k in keys[::3]:
                x = Vec({k: 1})
                full = c.defect_homotopy(x)
                for cap in range(side.N):
                    want = side.restrict_weight(full, cap)
                    assert side.restrict_weight(
                        c.defect_homotopy(x, cap), cap) == want, \
                        (name, k, cap)


def test_perturbation_series_must_terminate():
    # a homotopy that does not raise the weight never kills the series
    # terms; the perturbed maps raise instead of returning a partial sum
    ident = lambda x, max_weight=None: x
    c = Contraction(ident, ident, ident, ident, ident, kmax=4)
    p = c.perturb(ident)
    x = Vec({"k": 1})
    with pytest.raises(RuntimeError, match="did not terminate"):
        p.tau(x)
    with pytest.raises(RuntimeError, match="did not terminate"):
        p.h(x)


# ---------------------------------------------------------------------------
# the one-pass small differential does not see the truncation: raising
# the cap by one leaves d_small' unchanged on every small key


@pytest.fixture(scope="module")
def lower_cap():
    """name -> (TPoly, DPoly) one weight below the cap of `sides`."""
    out = {}
    for name in FIXTURES:
        p = pipeline(name, N - 1)
        out[name] = (p.T, p.D)
    return out


def test_d_small_does_not_depend_on_the_cap(sides, lower_cap):
    for name, (T, D) in sides.items():
        T0, D0 = lower_cap[name]
        for low, high, keys in (
                (perturbed(T0), perturbed(T), t_complex_keys(T.sp)),
                (perturbed(D0), perturbed(D),
                 d_complex_keys(D.sp, max_weight=2,
                                max_arity=D.m + 3))):
            for key in keys:
                x = Vec({key: 1})
                assert low.d_small(x) == high.d_small(x), (name, key)


# ---------------------------------------------------------------------------
# the perturbed contraction against its earlier formulation: tau' summed
# afresh on every call, d_small' = d_small + sigma rho tau' with rho
# applied again to the whole of the series tau'(x)


def old_perturbed(c, rho):
    """(tau', h', d_small') of c perturbed by rho, as first written."""
    def series(first):
        def apply(x):
            acc = term = first(x)
            for _ in range(c.kmax):
                term = c.h(rho(term))
                if term.is_zero():
                    return acc
                acc = acc + term
            raise RuntimeError("perturbation series did not terminate "
                               "within %d passes" % c.kmax)
        return apply

    tau = series(c.tau)

    def d_small(x):
        return c.d_small(x) + c.sigma(rho(tau(x)))

    return tau, series(c.h), d_small


def assert_same(got, want, label):
    assert got == want, label
    assert is_normalised(got), label


@pytest.fixture(scope="module")
def against_old(sides):
    """name -> per side (small keys, new perturbed, old (tau, h, d_small))."""
    out = {}
    for name, (T, D) in sides.items():
        ct, cd = contraction(T), contraction(D)
        rt, rd = T.perturbation, D.perturbation
        out[name] = {
            "t": (t_complex_keys(T.sp), ct.perturb(rt), old_perturbed(ct, rt)),
            "d": (d_complex_keys(D.sp, max_weight=2), cd.perturb(rd),
                  old_perturbed(cd, rd)),
        }
    return out


def test_perturbed_maps_match_old_formulation_on_every_key(against_old):
    for name, by_side in against_old.items():
        for side, (keys, new, (tau, h, d_small)) in by_side.items():
            for key in keys:
                x = Vec({key: 1})
                label = (name, side, key)
                assert_same(new.tau(x), tau(x), label)
                assert_same(new.d_small(x), d_small(x), label)
                # the cached value comes back unchanged
                assert_same(new.tau(x), tau(x), label)


def test_perturbed_homotopy_matches_old_formulation(against_old, sides):
    for name, (T, D) in sides.items():
        keys, new, (tau, h, d_small) = against_old[name]["t"]
        for w in list(T.alg.words(max_weight=2))[::5]:
            x = Vec({w: Fraction(2, 3)})
            assert_same(new.h(x), h(x), (name, w))


RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def combinations(draw, against_old):
    name = draw(st.sampled_from(FIXTURES))
    side = draw(st.sampled_from(["t", "d"]))
    keys, new, old = against_old[name][side]
    x = Vec(draw(st.dictionaries(st.sampled_from(keys), RATIONALS,
                                 min_size=1, max_size=4)))
    return (name, side, x), new, old


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_perturbed_maps_match_old_formulation_on_combinations(
        against_old, data):
    label, new, (tau, h, d_small) = data.draw(combinations(against_old))
    x = label[-1]
    assert_same(new.tau(x), tau(x), label)
    assert_same(new.d_small(x), d_small(x), label)
