"""Cap-raising oracle for the windowed checks of the report.

A computation truncated at weight N drops every term over the cap, so
the values it builds are exact only inside a weight window below N
(the filtration argument of the perturbation lemma).  Each windowed
check restricts its defect to such a window.  If the window is right,
every operator composition the check takes, restricted to it, is the
value it would have with no cap at all, so raising the cap from N to
N + 1 leaves it unchanged.  The defects themselves are zero at both
caps, so the compositions are compared, not the defects.
"""

import pytest

from liepairs.cli import Pipeline, second_choice
from liepairs.cohomology import d_complex_keys, t_complex_keys
from liepairs.core import Vec, mi_unit, mi_zero
from liepairs.uniqueness import Uniqueness

from helpers import pipeline

PAIRS = ["abelian", "heisenberg_center", "heisenberg_x", "sl2_borel",
         "sl2_h"]
CAPS = [4, 5]

# how far below the cap each check's window ends, as in cli.py
WINDOWS = {
    "fedosov:differential-squares-to-zero": 1,
    "contraction:t:perturbed-homotopy": 3,
    "contraction:d:perturbed-homotopy": 3,
    "contraction:t:perturbed-inclusion-chain-map": 2,
    "contraction:d:perturbed-inclusion-chain-map": 2,
    "uniqueness:transport-intertwines-differentials": 1,
}


def fedosov(p, window):
    """Q(w) and Q(Q(w)) on the words of the check."""
    W = p.W
    for w in W.alg.words(max_weight=window):
        q = W.q_op(Vec({w: 1}))
        yield w, [W.restrict_weight(v, window)
                  for v in (q, W.q_op(q))]


def perturbed_homotopy(side):
    """tau'(sigma(x)), h'(d'(x)) and d'(h'(x)) on the inputs of the
    check: every word of weight <= 1 on the t-side, the same words with
    one or two slots on the d-side."""
    def compositions(p, window):
        if side == "t":
            big, c = p.T, p.pt
            inputs = list(big.alg.words(max_weight=1))
        else:
            big, c = p.D, p.pd
            zero = mi_zero(p.sp.r)
            e0 = mi_unit(p.sp.r, 0) if p.sp.r else zero
            inputs = [(w, slots) for w in big.W.alg.words(max_weight=1)
                      for slots in ((zero,), (e0, zero))]
        for key in inputs:
            x = Vec({key: 1})
            yield key, [big.restrict_weight(v, window) for v in (
                c.tau(c.sigma(x)), c.h(c.d_big(x)), c.d_big(c.h(x)))]
    return compositions


def perturbed_inclusion(side):
    """d'(tau'(k)) and tau'(d_small'(k)) on every small key of the
    check."""
    def compositions(p, window):
        if side == "t":
            big, c, keys = p.T, p.pt, t_complex_keys(p.sp)
        else:
            big, c, keys = p.D, p.pd, d_complex_keys(p.sp, max_arity=1)
        for k in keys:
            x = Vec({k: 1})
            yield k, [big.restrict_weight(v, window) for v in (
                c.d_big(c.tau(x)), c.tau(c.d_small(x)))]
    return compositions


def transport(p, window):
    """map(Q1(w)) and Q2(map(w)) on the words of the check."""
    uni = Uniqueness(
        p.D, Pipeline(p.sp, second_choice(p.sp, p.conn), p.trunc).D)
    for w in uni.W1.alg.words(max_weight=2):
        x = Vec({w: 1})
        yield w, [uni.W2.restrict_weight(v, window) for v in (
            uni.map_scalar(uni.W1.q_op(x)),
            uni.W2.q_op(uni.map_scalar(x)))]


COMPOSITIONS = {
    "fedosov:differential-squares-to-zero": fedosov,
    "contraction:t:perturbed-homotopy": perturbed_homotopy("t"),
    "contraction:d:perturbed-homotopy": perturbed_homotopy("d"),
    "contraction:t:perturbed-inclusion-chain-map": perturbed_inclusion("t"),
    "contraction:d:perturbed-inclusion-chain-map": perturbed_inclusion("d"),
    "uniqueness:transport-intertwines-differentials": transport,
}


def cap_raising_differences(check, name, trunc, window):
    """The inputs whose windowed compositions change when the cap rises
    from trunc to trunc + 1, and the number of nonzero windowed values
    at trunc."""
    compositions = COMPOSITIONS[check]
    low = dict(compositions(pipeline(name, trunc), window))
    high = dict(compositions(pipeline(name, trunc + 1), window))
    assert low.keys() == high.keys()
    nonzero = sum(1 for vals in low.values() for v in vals if v)
    return [key for key in low if low[key] != high[key]], nonzero


@pytest.mark.parametrize("trunc", CAPS)
@pytest.mark.parametrize("check", sorted(WINDOWS))
def test_windowed_compositions_survive_a_higher_cap(check, trunc):
    nonzero = 0
    for name in PAIRS:
        differ, n = cap_raising_differences(check, name, trunc,
                                            trunc - WINDOWS[check])
        assert not differ, (name, differ[:3])
        nonzero += n
    # on abelian and heisenberg_center the t-side chain-map compositions
    # are zero, but no check compares zeros only
    assert nonzero


@pytest.mark.parametrize("check", [
    "fedosov:differential-squares-to-zero",
    "uniqueness:transport-intertwines-differentials"])
def test_widened_window_is_caught(check):
    # these two windows are tight: one weight more reads terms that the
    # cap has dropped, and the oracle must see it
    trunc = CAPS[0]
    differ, _ = cap_raising_differences(check, "sl2_h", trunc,
                                        trunc - WINDOWS[check] + 1)
    assert differ
