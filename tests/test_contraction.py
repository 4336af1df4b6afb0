import itertools
import json
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liepairs.cohomology import d_complex_keys, t_complex_keys
from liepairs.contraction import (
    Contraction, d_contraction, d_perturbation, t_contraction,
    t_perturbation,
)
from liepairs.core import Vec, mi_upto, mi_weight, mi_zero
from liepairs.dpoly import DPoly
from liepairs.liepair import a_form_algebra, d_a_bott, parse_pair_spec
from liepairs.pbw import d_a_u
from liepairs.tpoly import TPoly

PAIRS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "pairs")
FIXTURES = ["heisenberg_center", "heisenberg_x", "sl2_borel", "sl2_h",
            "abelian"]
N = 5


def load(name):
    with open(os.path.join(PAIRS_DIR, name + ".json")) as f:
        return parse_pair_spec(json.load(f))


@pytest.fixture(scope="module")
def sides():
    out = {}
    for name in FIXTURES:
        pair, sp, conn = load(name)
        out[name] = (TPoly(sp, conn, trunc=N), DPoly(sp, conn, trunc=N))
    return out


def t_small_keys(T, wmax=None):
    fa = a_form_algebra(T.sp.pair)
    out = []
    for fw in fa.words(max_weight=0):
        for q in range(T.r + 1):
            for xs in itertools.combinations(range(T.r), q):
                out.append((fw, xs))
    return out


def d_small_keys(D, max_cls=2, max_slots=2):
    fa = a_form_algebra(D.sp.pair)
    out = []
    clsets = [(J,) for J in mi_upto(D.r, max_cls)]
    if max_slots >= 2:
        clsets += [t for t in itertools.product(list(mi_upto(D.r, 1)),
                                                repeat=2)]
    for fw in fa.words(max_weight=0):
        for cls in clsets:
            out.append((fw, cls))
    return out


# ---------------------------------------------------------------------------
# unperturbed contractions through the generic interface


def test_unperturbed_identities(sides):
    for name, (T, D) in sides.items():
        ct = t_contraction(T)
        cd = d_contraction(D)
        for key in t_small_keys(T):
            x = Vec({key: 1})
            assert ct.defect_projection(x).is_zero(), (name, key)
            assert ct.defect_side_ht(x).is_zero(), (name, key)
        for key in d_small_keys(D):
            x = Vec({key: 1})
            assert cd.defect_projection(x).is_zero(), (name, key)
            assert cd.defect_side_ht(x).is_zero(), (name, key)
        for w in T.alg.words(max_weight=N - 1):
            x = Vec({w: 1})
            assert ct.defect_homotopy(x).is_zero(), (name, w)
            assert ct.defect_side_sh(x).is_zero(), (name, w)


def test_sigma_rho_h_vanishes(sides):
    # the projection kills anything in the image of the homotopy even
    # after applying the perturbation, so the projection is unchanged
    for name, (T, D) in sides.items():
        rho_t = t_perturbation(T)
        for w in list(T.alg.words(max_weight=2))[::7]:
            x = Vec({w: 1})
            assert T.project_small(rho_t(T.h(x))).is_zero(), (name, w)
        rho_d = d_perturbation(D)
        for w in list(D.W.alg.words(max_weight=2))[::5]:
            key = (w, (mi_zero(D.r), (1,) + (0,) * (D.r - 1)))
            x = Vec({key: 1})
            assert D.project_small(rho_d(D.h(x))).is_zero(), (name, w)


# ---------------------------------------------------------------------------
# perturbed contractions


@pytest.fixture(scope="module")
def perturbed(sides):
    out = {}
    for name, (T, D) in sides.items():
        pt = t_contraction(T).perturb(t_perturbation(T))
        pd = d_contraction(D).perturb(d_perturbation(D))
        out[name] = (T, D, pt, pd)
    return out


def test_perturbed_projection_identity(perturbed):
    for name, (T, D, pt, pd) in perturbed.items():
        for key in t_small_keys(T):
            assert pt.defect_projection(Vec({key: 1})).is_zero(), \
                (name, key)
        for key in d_small_keys(D):
            assert pd.defect_projection(Vec({key: 1})).is_zero(), \
                (name, key)


def test_transferred_differential_t(perturbed):
    for name, (T, D, pt, pd) in perturbed.items():
        for key in t_small_keys(T):
            x = Vec({key: 1})
            assert pt.d_small(x) == d_a_bott(T.sp, x), (name, key)


def test_transferred_differential_d(perturbed):
    for name, (T, D, pt, pd) in perturbed.items():
        for key in d_small_keys(D):
            x = Vec({key: 1})
            exp = d_a_u(D.P, x) + D.dh_small(x)
            assert pd.d_small(x) == exp, (name, key)


def test_perturbed_homotopy_identity_t(perturbed):
    for name in ("sl2_h", "heisenberg_x"):
        T, D, pt, pd = perturbed[name]
        for w in list(T.alg.words(max_weight=1))[::5]:
            x = Vec({w: 1})
            defect = pt.defect_homotopy(x)
            assert T.restrict_weight(defect, N - 3).is_zero(), (name, w)


def test_perturbed_homotopy_identity_d(perturbed):
    for name in ("sl2_h", "sl2_borel"):
        T, D, pt, pd = perturbed[name]
        e0 = (1,) + (0,) * (D.r - 1)
        for w in list(D.W.alg.words(max_weight=1))[::5]:
            for slots in [(mi_zero(D.r),), (e0, mi_zero(D.r))]:
                x = Vec({(w, slots): 1})
                defect = pd.defect_homotopy(x)
                assert D.restrict_weight(defect, N - 3).is_zero(), \
                    (name, w, slots)


def test_perturbed_chain_maps(perturbed):
    for name in ("sl2_h", "heisenberg_center"):
        T, D, pt, pd = perturbed[name]
        for key in t_small_keys(T):
            x = Vec({key: 1})
            defect = pt.defect_chain_tau(x)
            assert T.restrict_weight(defect, N - 2).is_zero(), (name, key)
        for key in d_small_keys(D, max_cls=1, max_slots=1):
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


def test_perturbation_series_must_terminate():
    # a homotopy that does not raise the weight never kills the series
    # terms; the perturbed maps raise instead of returning a partial sum
    ident = lambda x: x
    c = Contraction(ident, ident, ident, ident, ident, kmax=4)
    p = c.perturb(ident)
    x = Vec({"k": 1})
    with pytest.raises(RuntimeError, match="did not terminate"):
        p.tau(x)
    with pytest.raises(RuntimeError, match="did not terminate"):
        p.h(x)


# ---------------------------------------------------------------------------
# the perturbed contraction against its earlier formulation: tau' summed
# afresh on every call, d_small' = d_small + sigma rho tau' with rho
# applied again to the whole of tau'(x)


def old_perturbed(c, rho):
    """(tau', h', d_small') of c perturbed by rho, as first written."""
    def series(first):
        def apply(x):
            acc = term = first(x)
            for _ in range(c.kmax):
                term = -1 * c.h(rho(term))
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


def exact(v):
    return all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
               for c in v.values())


def assert_same(got, want, label):
    assert got == want, label
    assert got.truncated == want.truncated, label
    assert exact(got), label


@pytest.fixture(scope="module")
def against_old(sides):
    """name -> per side (small keys, new perturbed, old (tau, h, d_small))."""
    out = {}
    for name, (T, D) in sides.items():
        ct, cd = t_contraction(T), d_contraction(D)
        rt, rd = t_perturbation(T), d_perturbation(D)
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
                                 min_size=1, max_size=4)),
            truncated=draw(st.booleans()))
    return (name, side, x), new, old


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_perturbed_maps_match_old_formulation_on_combinations(
        against_old, data):
    label, new, (tau, h, d_small) = data.draw(combinations(against_old))
    x = label[-1]
    assert_same(new.tau(x), tau(x), label)
    assert_same(new.d_small(x), d_small(x), label)
