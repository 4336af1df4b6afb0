import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from liepairs.cli import Pipeline, second_choice
from liepairs.cohomology import (
    Cohomology, d_cohomology, d_complex_keys, t_cohomology, t_complex_keys,
    t_cup,
)
from liepairs.core import Vec, mi_upto
from liepairs.liepair import a_form_algebra, d_a_bott

from helpers import (
    FIXTURES, N, compare_on_cohomology, is_coboundary, load, oracle_rref,
    pipeline,
)


@pytest.fixture(scope="module")
def pipelines():
    return {name: pipeline(name) for name in FIXTURES}


@pytest.fixture(scope="module")
def t_pipelines(pipelines):
    return {name: (p.sp, p.T, p.pt, p.tr, t_cohomology(p.sp))
            for name, p in pipelines.items()}


def dense(row, ncols):
    """A sparse row {column: entry} as a list of ncols Fractions."""
    return [Fraction(row.get(j, 0)) for j in range(ncols)]


def rank_oracle(coh, n):
    ncols = len(coh.by_deg.get(n + 1, []))
    rows = [dense(r, ncols) for r in coh._rows.get(n, [])]
    if not rows or not ncols:
        return 0
    return sympy.Matrix([[sympy.Rational(c.numerator, c.denominator)
                          for c in r] for r in rows]).rank()


def test_dims_match_rank_oracle(t_pipelines):
    # dim H^n = dim C^n - rank d_n - rank d_{n-1}, ranks recomputed
    # independently
    for name, (sp, T, pt, tr, coh) in t_pipelines.items():
        for n in coh.degrees:
            want = (len(coh.by_deg[n]) - rank_oracle(coh, n)
                    - rank_oracle(coh, n - 1))
            assert coh.dims()[n] == want, (name, n)


def test_collapsed_cases_have_binomial_dims(t_pipelines):
    # trivial action: the differential vanishes and the cohomology is
    # the whole graded space, with product-of-binomials dimensions
    for name in ("heisenberg_center", "abelian"):
        sp, T, pt, tr, coh = t_pipelines[name]
        for key in t_complex_keys(sp):
            assert d_a_bott(sp, Vec({key: 1})).is_zero(), (name, key)
        for n in coh.degrees:
            want = sum(math.comb(sp.m, a) * math.comb(sp.r, b)
                       for a in range(sp.m + 1)
                       for b in range(sp.r + 1) if a + b - 1 == n)
            assert coh.dims()[n] == want, (name, n)


def test_borel_degree_zero_kernel(t_pipelines):
    # nontrivial action: the degree-zero cohomology is a proper kernel
    sp, T, pt, tr, coh = t_pipelines["sl2_borel"]
    assert coh.dims() == {-1: 1, 0: 1, 1: 0, 2: 0}


def test_square_zero_precondition():
    keys = ["a", "b"]
    deg = {"a": 0, "b": 1}.get

    def bad_diff(x):
        return Vec({"b": sum(x.values())}) if "a" in dict(x.items()) \
            else Vec({"a": sum(x.values())})

    with pytest.raises(ValueError):
        Cohomology(keys, bad_diff, deg)


def test_square_zero_check_reaches_the_composite():
    # a -> b -> c stays in the window, so the rows build and the check
    # itself must catch d^2(a) = c
    deg = {"a": 0, "b": 1, "c": 2}.get
    step = {"a": "b", "b": "c"}

    def diff(x):
        out = Vec()
        for k, c in x.items():
            if k in step:
                out.iadd_term(step[k], c)
        return out

    with pytest.raises(ValueError, match="does not square to zero"):
        Cohomology(["a", "b", "c"], diff, deg)
    # d^2 is checked wherever d_{n+1} is built, so up to top - 1; with
    # top = 0 the degree-1 keys only index the codomain of d_0
    with pytest.raises(ValueError, match="does not square to zero"):
        Cohomology(["a", "b", "c"], diff, deg, top=1)
    assert Cohomology(["a", "b", "c"], diff, deg, top=0).dims() == {0: 0}
    # the same steps with d(b) = 0 form a complex
    del step["b"]
    assert Cohomology(["a", "b", "c"], diff, deg).dims() == {0: 0, 1: 0,
                                                             2: 1}


def test_bracket_descends(t_pipelines):
    # the binary bracket of a cocycle with a coboundary is a coboundary
    # (the arity-two structure identity is exactly the Leibniz rule)
    for name in ("sl2_borel", "sl2_h"):
        sp, T, pt, tr, coh = t_pipelines[name]
        lam2 = lambda x, y: tr.lam((x, y))
        for n in coh.degrees:
            for i in range(len(coh.reps[n][0])):
                z = coh.rep(n, i)
                for key in t_complex_keys(sp):
                    db = d_a_bott(sp, Vec({key: 1}))
                    if db.is_zero():
                        continue
                    val = lam2(z, db)
                    m = n + coh.deg(key) + 1
                    if val.is_zero() or m not in coh.degrees:
                        continue
                    assert is_coboundary(coh, val, m), (name, n, i, key)


def test_representative_independence(t_pipelines):
    # shifting a representative by coboundaries does not change the
    # induced tables
    rng = random.Random(7)
    for name in ("sl2_borel", "sl2_h"):
        sp, T, pt, tr, coh = t_pipelines[name]
        lam2 = lambda x, y: tr.lam((x, y))
        cup = t_cup(T, pt)
        keys = t_complex_keys(sp)
        for n in coh.degrees:
            for i in range(len(coh.reps[n][0])):
                z = coh.rep(n, i)
                shift = Vec()
                for _ in range(3):
                    key = keys[rng.randrange(len(keys))]
                    if coh.deg(key) == n - 1:
                        shift += rng.randrange(1, 5) * d_a_bott(
                            sp, Vec({key: 1}))
                z2 = z + shift
                for n2 in coh.degrees:
                    for j in range(len(coh.reps[n2][0])):
                        w = coh.rep(n2, j)
                        if n + n2 in coh.degrees:
                            assert (coh.project(lam2(z, w), n + n2)
                                    == coh.project(lam2(z2, w), n + n2))
                        if n + n2 + 1 in coh.degrees:
                            assert (coh.project(cup(z, w), n + n2 + 1)
                                    == coh.project(cup(z2, w),
                                                   n + n2 + 1))


def test_jacobi_and_cup_laws_on_cohomology(t_pipelines):
    # graded Jacobi for the induced bracket, graded commutativity for
    # the induced cup, and the biderivation law, on representatives
    for name, (sp, T, pt, tr, coh) in t_pipelines.items():
        lam2 = lambda x, y: tr.lam((x, y))
        cup = t_cup(T, pt)
        reps = [(n, i, coh.rep(n, i)) for n in coh.degrees
                for i in range(len(coh.reps[n][0]))]
        for (n1, i1, x), (n2, i2, y) in itertools.product(reps, repeat=2):
            if n1 + n2 + 1 in coh.degrees:
                lhs = coh.project(cup(x, y), n1 + n2 + 1)
                s = -1 if ((n1 + 1) * (n2 + 1)) % 2 else 1
                rhs = [s * c for c in coh.project(cup(y, x), n1 + n2 + 1)]
                assert lhs == rhs, (name, n1, i1, n2, i2)
        for (n1, i1, x), (n2, i2, y), (n3, i3, z) in \
                itertools.product(reps, repeat=3):
            m = n1 + n2 + n3
            if m in coh.degrees:
                jac = (lam2(lam2(x, y), z) - lam2(x, lam2(y, z))
                       + (Fraction(-1) if (n1 * n2) % 2 else Fraction(1))
                       * lam2(y, lam2(x, z)))
                if not jac.is_zero():
                    assert is_coboundary(coh, jac, m), \
                        (name, n1, i1, n2, i2, n3, i3)
            if m + 1 in coh.degrees:
                bid = (lam2(x, cup(y, z)) - cup(lam2(x, y), z)
                       - (Fraction(-1) if (n1 * (n2 + 1)) % 2
                          else Fraction(1)) * cup(y, lam2(x, z)))
                if not bid.is_zero():
                    assert is_coboundary(coh, bid, m + 1), \
                        (name, n1, i1, n2, i2, n3, i3)


def test_d_side_window(pipelines):
    for name in ("heisenberg_center", "abelian"):
        p = pipelines[name]
        coh = d_cohomology(p.sp, p.pd.d_small, max_weight=2)
        dims = coh.dims()
        for n in coh.degrees:
            want = (len(coh.by_deg[n]) - rank_oracle(coh, n)
                    - rank_oracle(coh, n - 1))
            assert dims[n] == want, (name, n)


def test_compare_two_connections_equal(pipelines, t_pipelines):
    # two torsion-free extensions on the same pair induce the same
    # bracket and cup tables on cohomology, with identity transport
    p = pipelines["heisenberg_center"]
    p2 = Pipeline(p.sp, second_choice(p.sp, p.conn), N)
    sp, T1, pt1, tr1, coh = t_pipelines["heisenberg_center"]
    coh2 = t_cohomology(sp)
    lam_a = lambda x, y: tr1.lam((x, y))
    lam_b = lambda x, y: p2.tr.lam((x, y))
    cup_a = t_cup(T1, pt1)
    cup_b = t_cup(p2.T, p2.pt)
    ident = lambda x: x
    for n1 in coh.degrees:
        for n2 in coh.degrees:
            if n1 + n2 in coh.degrees:
                assert compare_on_cohomology(
                    coh, lam_a, coh2, lam_b, ident, n1, n2,
                    n1 + n2) == []
            if n1 + n2 + 1 in coh.degrees:
                assert compare_on_cohomology(
                    coh, cup_a, coh2, cup_b, ident, n1, n2,
                    n1 + n2 + 1) == []


def test_compare_wrong_transport_detected(t_pipelines):
    # negative control: a transport that rescales part of the space is
    # not an intertwiner, and the comparison reports witnesses
    sp, T, pt, tr, coh = t_pipelines["heisenberg_center"]
    cup = t_cup(T, pt)

    def bad(x):
        return Vec({k: (2 * c if len(k[1]) else c)
                    for k, c in x.items()})

    found = False
    for n1 in coh.degrees:
        for n2 in coh.degrees:
            if n1 + n2 + 1 not in coh.degrees:
                continue
            if compare_on_cohomology(coh, cup, coh, cup, bad, n1, n2,
                                     n1 + n2 + 1):
                found = True
    assert found


# ---------------------------------------------------------------------------
# the sparse kernels against the dense formulas and the enumeration they
# replaced


def dense_reduce(v, rows, piv):
    v = list(v)
    for row, p in zip(rows, piv):
        if v[p]:
            f = v[p]
            v = [a - f * b for a, b in zip(v, row)]
    return v


def dense_image(coh, n):
    """The image echelon rows in degree n, rebuilt densely."""
    ncols = len(coh.by_deg[n])
    red, piv = oracle_rref([dense(r, ncols) for r in coh._rows.get(n - 1, [])
                            if r] or [[Fraction(0)] * ncols])
    return red[:len(piv)], piv


def dense_project(coh, x, n, image=None):
    """Cohomology coordinates, reduced over every column."""
    ncols = len(coh.by_deg[n])
    v = dense_reduce(dense(coh._coords(x, n), ncols),
                     *(image or dense_image(coh, n)))
    out = []
    for row, p in zip(*coh.reps[n]):
        c = v[p]
        out.append(c)
        v = [a - c * b for a, b in zip(v, dense(row, ncols))]
    if any(v):
        raise ValueError("not a cocycle modulo the image")
    return out


def projected(project, x, n):
    try:
        return project(x, n)
    except ValueError:
        return "raises"


@pytest.fixture(scope="module")
def d_windows():
    out = {}
    for name in ("heisenberg_x", "sl2_borel"):
        p = pipeline(name, 4)
        out[name] = d_cohomology(p.sp, p.pd.d_small, max_weight=2)
    return out


def all_complexes(t_pipelines, d_windows):
    return ([coh for sp, T, pt, tr, coh in t_pipelines.values()]
            + list(d_windows.values()))


def test_project_matches_dense_formula_exhaustive(t_pipelines, d_windows):
    # every basis key (cocycle or not) against the dense formula, and
    # every representative plus every single-key coboundary
    for coh in all_complexes(t_pipelines, d_windows):
        for n in coh.degrees:
            image = dense_image(coh, n)
            for key in coh.by_deg[n]:
                x = Vec({key: 1})
                assert projected(coh.project, x, n) == projected(
                    lambda y, m: dense_project(coh, y, m, image), x, n)
            nreps = len(coh.reps[n][0])
            boundaries = [coh.diff(Vec({y: Fraction(-1, 2)}))
                          for y in coh.by_deg.get(n - 1, [])] or [Vec()]
            for i in range(nreps):
                want = [Fraction(3 if j == i else 0) for j in range(nreps)]
                assert dense_project(coh, 3 * coh.rep(n, i) + boundaries[0],
                                     n, image) == want
                for b in boundaries:
                    x = 3 * coh.rep(n, i) + b
                    assert coh.project(x, n) == want
                    assert not is_coboundary(coh, x, n)


@settings(deadline=None)
@given(st.data())
def test_project_matches_dense_formula(d_windows, data):
    coh = d_windows[data.draw(st.sampled_from(sorted(d_windows)))]
    n = data.draw(st.sampled_from(coh.degrees))
    small = st.fractions(-3, 3, max_denominator=4)
    a = data.draw(st.lists(small, min_size=len(coh.reps[n][0]),
                           max_size=len(coh.reps[n][0])))
    y = data.draw(st.dictionaries(
        st.sampled_from(coh.by_deg.get(n - 1) or [None]), small,
        max_size=4))
    x = Vec()
    for i, c in enumerate(a):
        x.iadd_scaled(c, coh.rep(n, i))
    if None not in y:
        x += coh.diff(Vec(y))
    assert coh.project(x, n) == dense_project(coh, x, n) == a
    assert is_coboundary(coh, x, n) == (not any(a))


@settings(deadline=None)
@given(st.integers(0, 6).flatmap(lambda ncols: st.tuples(
    st.lists(st.lists(st.one_of(st.just(Fraction(0)),
                                st.fractions(-3, 3, max_denominator=4)),
                      min_size=ncols, max_size=ncols), max_size=5),
    st.lists(st.one_of(st.just(Fraction(0)),
                       st.fractions(-3, 3, max_denominator=4)),
             min_size=ncols, max_size=ncols))))
def test_reduce_matches_dense_formula(case):
    # _reduce takes reduced echelon rows by pivot, as the image keeps them
    rows, v = case
    red, piv = oracle_rref(rows)
    echelon = {p: Vec(enumerate(row)) for row, p in zip(red, piv)}
    got = Cohomology._reduce(Vec(enumerate(v)), echelon)
    assert dense(got, len(v)) == dense_reduce(v, red[:len(piv)], piv)


def product_then_filter(sp, max_weight, max_arity):
    out = []
    for fw in a_form_algebra(sp.pair).words(max_weight=0):
        for arity in range(1, max_arity + 1):
            for cls in itertools.product(list(mi_upto(sp.r, max_weight)),
                                         repeat=arity):
                if sum(sum(J) for J in cls) <= max_weight:
                    out.append((fw, cls))
    return out


def test_d_complex_keys_match_product_then_filter_exhaustive():
    for name in FIXTURES + ["heis5_lag"]:
        pair, sp, conn = load(name)
        assert d_complex_keys(sp) == product_then_filter(sp, 1, 2)
        for max_weight in range(3):
            for max_arity in range(5):
                assert d_complex_keys(sp, max_weight, max_arity) \
                    == product_then_filter(sp, max_weight, max_arity)


@settings(deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2),
       st.integers(0, 4))
def test_d_complex_keys_match_product_then_filter(m, r, max_weight,
                                                  max_arity):
    sp = SimpleNamespace(pair=SimpleNamespace(dim_a=m), r=r)
    assert d_complex_keys(sp, max_weight, max_arity) \
        == product_then_filter(sp, max_weight, max_arity)
