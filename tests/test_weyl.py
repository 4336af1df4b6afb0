import itertools
import json
import os
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from liepairs.core import Vec, WordAlgebra, mi_unit, mi_weight
from liepairs.liepair import Connection, parse_pair_spec
from liepairs.weyl import Weyl

from helpers import apply_x

PAIRS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "pairs")
FIXTURES = ["heisenberg_center", "heisenberg_x", "sl2_borel", "sl2_h",
            "abelian"]
N = 5


def load(name):
    with open(os.path.join(PAIRS_DIR, name + ".json")) as f:
        return parse_pair_spec(json.load(f))


@pytest.fixture(scope="module")
def machines():
    out = {}
    for name in FIXTURES:
        pair, sp, conn = load(name)
        out[name] = Weyl(sp, conn, trunc=N)
    return out


def all_words(W, wmax=N):
    return [w for w in W.alg.words(max_weight=wmax)]


# ---------------------------------------------------------------------------
# spot values from the defining formulas


def test_delta_values(machines):
    W = machines["heisenberg_center"]
    r = W.r
    chi1 = Vec({W.alg.even_word(mi_unit(r, 0)): 1})
    got = W.delta(chi1)
    assert got == Vec({W.alg.odd_word(1, 0): 1})
    # pure forms die
    assert W.delta(Vec({W.alg.odd_word(0, 0): 1})).is_zero()
    assert W.delta(Vec({W.alg.odd_word(1, 1): 1})).is_zero()
    # square of an even generator: derivation rule gives the factor 2
    chi1sq = Vec({W.alg.even_word((2, 0)): 1})
    got = W.delta(chi1sq)
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
    assert W.h(W.delta(Vec({w12: 1}))) + W.delta(got) == Vec({w12: 1})
    assert len(got) == 2


def test_sigma_tau(machines):
    for W in machines.values():
        alpha = Vec({W.alg.odd_word(0, 0): 1}) if W.m else W.alg.one()
        assert W.sigma(W.tau(alpha)) == alpha
        assert W.sigma(Vec({W.alg.odd_word(1, 0): 1})).is_zero()
        unit_a_form = Vec({((), ()): 1})
        assert W.project_a(W.include_a(unit_a_form)) == unit_a_form


def test_homotopy_identity_example(machines):
    W = machines["heisenberg_center"]
    x = Vec({W.alg.odd_word(1, 0): 1})
    lhs = x - W.tau(W.sigma(x))
    rhs = W.h(W.delta(x)) + W.delta(W.h(x))
    assert lhs == rhs == x


# ---------------------------------------------------------------------------
# contraction identity suite, exhaustive on every fixture


def test_contraction_identities_exhaustive(machines):
    for name, W in machines.items():
        for w in all_words(W):
            x = Vec({w: 1})
            wt = mi_weight(w[-1])
            assert W.delta(W.delta(x)).is_zero(), (name, w, "delta^2")
            if wt <= N - 2:
                assert W.h(W.h(x)).is_zero(), (name, w, "h^2")
            if wt <= N - 1:
                assert W.sigma(W.h(x)).is_zero(), (name, w, "sigma h")
                lhs = x - W.tau(W.sigma(x))
                rhs = W.h(W.delta(x)) + W.delta(W.h(x))
                assert lhs == rhs, (name, w, "homotopy identity")
        # sigma tau = id and h tau = 0 on the A-form part
        for w in W.alg.words(max_weight=0, colour_caps=(W.m, 0)):
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
        rhs = bad_h(W.delta(x)) + W.delta(bad_h(x))
        if lhs != rhs:
            witnesses.append(w)
    assert witnesses


# ---------------------------------------------------------------------------
# torsion <-> anticommutation


def test_torsion_free_anticommutation(machines):
    for name, W in machines.items():
        for w in all_words(W, wmax=N - 1):
            x = Vec({w: 1})
            acom = W.delta(W.d_l_nabla(x)) + W.d_l_nabla(W.delta(x))
            assert acom.is_zero(), (name, w)


def test_torsionful_connection_breaks_anticommutation():
    pair, sp, conn = load("heisenberg_center")
    gamma = [[list(row) for row in plane] for plane in conn.gamma]
    gamma[pair.dim_a + 0][1][0] += 1   # torsion-ful tweak
    bad = Connection(sp, gamma)
    assert not bad.is_torsion_free()[0]
    W = Weyl(sp, bad, trunc=N)
    broken = False
    for w in all_words(W, wmax=N - 1):
        x = Vec({w: 1})
        acom = W.delta(W.d_l_nabla(x)) + W.d_l_nabla(W.delta(x))
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


def test_q_squares_to_zero(machines):
    for name, W in machines.items():
        W.solve()
        for w in all_words(W, wmax=N - 1):
            x = Vec({w: 1})
            qq = W.q_op(W.q_op(x))
            assert W.restrict_weight(qq, N - 1).is_zero(), (name, w)


def test_filtration_behaviour(machines):
    # delta lowers symmetric weight by one, h raises it by one, the
    # covariant part preserves it, the correction raises it by at least one
    for name, W in machines.items():
        W.solve()
        for w in all_words(W, wmax=N - 1):
            x = Vec({w: 1})
            wt = mi_weight(w[-1])
            for y, c in W.delta(x).items():
                assert mi_weight(y[-1]) == wt - 1
            for y, c in W.h(x).items():
                assert mi_weight(y[-1]) == wt + 1
            for y, c in W.d_l_nabla(x).items():
                assert mi_weight(y[-1]) == wt
            for y, c in apply_x(W, x).items():
                assert mi_weight(y[-1]) >= wt + 1


# ---------------------------------------------------------------------------
# the closed-form homotopy against its first formulation: contract each
# chi_k-form letter as an odd derivation, then multiply by chi_k


def oracle_h(W, x):
    out = Vec(truncated=x.truncated)
    for w, c in x.items():
        v = len(w[1])
        if v == 0:
            continue
        J = w[-1]
        if mi_weight(J) + 1 > W.N:
            out.truncated = True
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
    """The fields Weyl.h reads, on the Weyl word layout (alpha, chi-form,
    J) or the TPoly one (alpha, chi-form, xi, J)."""
    counts = (m, r, r) if polyvector else (m, r)
    return SimpleNamespace(alg=WordAlgebra(counts, r, trunc), N=trunc, r=r)


def assert_same_h(W, x):
    got, want = Weyl.h(W, x), oracle_h(W, x)
    assert got == want
    assert got.truncated == want.truncated
    assert all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
               for c in got.values())


def test_h_matches_contraction_oracle_exhaustive(machines):
    # every word up to one weight past the cap, on the real machines and
    # on the polyvector layout of the same size
    for name, W in machines.items():
        for X in (W, layout(W.m, W.r, W.N, True)):
            for w in X.alg.words(max_weight=X.N + 1):
                assert_same_h(X, Vec({w: Fraction(-3, 2)}))
        x = Vec({w: i + 1 for i, w in enumerate(all_words(W, N + 1))},
                truncated=True)
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
    x = draw(st.builds(Vec, st.dictionaries(word, coef, max_size=5),
                       truncated=st.booleans()))
    return W, x


@settings(deadline=None)
@given(layouts_and_vecs())
def test_h_matches_contraction_oracle(case):
    assert_same_h(*case)


# ---------------------------------------------------------------------------
# rho and Q as single derivations against their sums of parts, on every
# word up to one weight past the cap


def merged_cases(machines):
    pair, sp, conn = load("sl3_borel")
    rank3 = Weyl(sp, conn, trunc=3)
    return [(name, W) for name, W in machines.items()] + [
        ("sl3_borel", rank3)]


def test_rho_and_q_tables_match_their_parts(machines):
    for name, W in merged_cases(machines):
        W.solve()
        for w in all_words(W, wmax=W.N + 1):
            x = Vec({w: Fraction(3, 2)})
            rho = W.rho(x)
            want = W.d_l_nabla(x) + apply_x(W, x)
            assert rho == want and rho.truncated == want.truncated, (name, w)
            q = W.q_op(x)
            want = -1 * W.delta(x) + rho
            assert q == want and q.truncated == want.truncated, (name, w)
