"""The slotwise maps and the maps built on core.linear, each against the
per-term loop it replaced (kept in helpers.py): the same terms, with the
same coefficient types, in the same order, on every key of each shipped
pair's window and on random multi-term Fraction inputs."""

from fractions import Fraction
import os
import random

import pytest

from liepairs.cli import Pipeline, second_choice
from liepairs.cohomology import d_complex_keys, t_complex_keys
from liepairs.core import Vec, mi_upto, tensor_map
from liepairs.liepair import (
    Connection, Splitting, bott_action_on_lambda_b, ce_differential,
    default_connection,
)
from liepairs.pbw import Pbw, relabel, u_action
from liepairs.uniqueness import Uniqueness

from helpers import (
    N, PAIRS_DIR, load, loop_ce_differential, loop_include_small,
    loop_left_mult, loop_operator_on, loop_project_small, loop_relabel,
    loop_small_relabel, loop_torsion, pipeline, typed_items,
)

SHIPPED = sorted(f[:-len(".json")] for f in os.listdir(PAIRS_DIR)
                 if f.endswith(".json"))
# j(fbar) = f + h on sl2_borel (h, e, f; A = <h, e>)
BOREL_J = [[1], [0], [1]]


def same(got, want):
    assert typed_items(got) == typed_items(want)


def random_vecs(keys, count=40, terms=6, seed=0):
    """count Vecs of up to `terms` terms over keys, with Fraction
    coefficients (some of them whole)."""
    rng = random.Random(seed)
    for _ in range(count):
        yield Vec((rng.choice(keys),
                   Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
                  for _ in range(rng.randint(1, terms)))


@pytest.fixture(scope="module")
def pipelines():
    return {name: pipeline(name) for name in SHIPPED}


def big_keys(D, small):
    """Every word of weight at most 1, chi content included, with the
    slots of each small key."""
    slots = list(dict.fromkeys(cls for _, cls in small))
    return [(w, s) for w in D.alg.words(max_weight=1) for s in slots]


def test_tensor_map_examples():
    x = Vec({("a", (1, 2)): 2, ("b", (1,)): Fraction(1, 3),
             ("c", (2,)): 5})
    images = {1: Vec({"p": 1, "q": -1}), 2: Vec({"r": Fraction(1, 2)})}
    got = tensor_map(x, lambda h: None if h == "c" else h.upper(),
                     images.__getitem__)
    assert typed_items(got) == [
        (("A", ("p", "r")), int, 1), (("A", ("q", "r")), int, -1),
        (("B", ("p",)), Fraction, Fraction(1, 3)),
        (("B", ("q",)), Fraction, Fraction(-1, 3))]
    # a key with no slot keeps its coefficient under the new head
    assert tensor_map(Vec({("a", ()): 3}), str.upper, images.__getitem__) \
        == Vec({("A", ()): 3})


@pytest.mark.parametrize("name", SHIPPED)
def test_small_maps_match_loops(pipelines, name):
    D = pipelines[name].D
    small = d_complex_keys(D.sp, max_weight=2, max_arity=3)
    for key in small:
        x = Vec({key: Fraction(3, 2)})
        same(D.include_small(x), loop_include_small(D, x))
    big = big_keys(D, small)
    for key in big:
        x = Vec({key: Fraction(3, 2)})
        same(D.project_small(x), loop_project_small(D, x))
    for x in random_vecs(small):
        same(D.include_small(x), loop_include_small(D, x))
    for x in random_vecs(big):
        same(D.project_small(x), loop_project_small(D, x))


@pytest.mark.parametrize("name", SHIPPED)
def test_left_mult_matches_loop(pipelines, name):
    P = pipelines[name].D.P
    classes = list(mi_upto(P.r, P.N))
    for l in range(P.m + P.r):
        for J in classes:
            cls = Vec({J: Fraction(3, 2)})
            same(P.left_mult(l, cls), loop_left_mult(P, l, cls))
        for cls in random_vecs(classes, count=10, seed=l):
            same(P.left_mult(l, cls), loop_left_mult(P, l, cls))


def borel_pbws():
    """The Pbw of sl2_borel at its shipped complement and at j(fbar) =
    f + h, each with its default connection."""
    pair, sp, conn = load("sl2_borel")
    sp2 = Splitting(pair, BOREL_J)
    return Pbw(sp, conn, N), Pbw(sp2, default_connection(sp2), N)


def test_relabel_matches_loop():
    P1, P2 = borel_pbws()
    classes = list(mi_upto(P1.r, P1.N))
    for src, dst in ((P1, P2), (P2, P1), (P1, P1)):
        new, old = relabel(src, dst), loop_relabel(src, dst)
        for J in classes:
            cls = Vec({J: Fraction(3, 2)})
            same(new(cls), old(cls))
        for cls in random_vecs(classes):
            same(new(cls), old(cls))


@pytest.fixture(scope="module")
def uniquenesses(pipelines):
    """The comparisons of the report's second choices: a second
    connection on heisenberg_center's complement, and j(fbar) = f + h
    on sl2_borel."""
    p = pipelines["heisenberg_center"]
    second = {"heisenberg_center": Pipeline(
        p.sp, second_choice(p.sp, p.conn), N)}
    p = pipelines["sl2_borel"]
    sp2 = Splitting(p.sp.pair, BOREL_J)
    second["sl2_borel"] = Pipeline(sp2, default_connection(sp2), N)
    return {name: Uniqueness(pipelines[name].D, p2.D)
            for name, p2 in second.items()}


@pytest.mark.parametrize("name", ["heisenberg_center", "sl2_borel"])
def test_uniqueness_maps_match_loops(uniquenesses, name):
    uni = uniquenesses[name]
    small = d_complex_keys(uni.sp1, max_weight=2, max_arity=3)
    for key in small:
        x = Vec({key: Fraction(3, 2)})
        same(uni.small_relabel(x), loop_small_relabel(uni, x))
    for x in random_vecs(small):
        same(uni.small_relabel(x), loop_small_relabel(uni, x))
    for J in mi_upto(uni.r, uni.N):
        for K in mi_upto(uni.r, uni.N):
            same(uni._operator_on(J, K), loop_operator_on(uni, J, K))


def torsionful(name):
    """The shipped connection of `name` with a torsion-ful tweak in two
    B-directions (on a pair of rank at least 2)."""
    pair, sp, conn = load(name)
    gamma = [[list(row) for row in plane] for plane in conn.gamma]
    gamma[pair.dim_a][1][0] += Fraction(1, 2)
    gamma[pair.dim_a + 1][0][1] -= 3
    return Connection(sp, gamma)


@pytest.mark.parametrize("name", SHIPPED)
def test_torsion_matches_loop(name):
    conn = load(name)[2]
    conns = [conn]
    if conn.splitting.r >= 2:
        conns.append(torsionful(name))
    d = conn.splitting.pair.dim
    for c in conns:
        for u in range(d):
            for v in range(d):
                same(c.torsion(u, v), loop_torsion(c, u, v))
    if len(conns) == 2:
        assert any(conns[1].torsion(u, v) for u in range(d)
                   for v in range(d))


@pytest.mark.parametrize("name", SHIPPED)
def test_ce_differential_matches_loop(pipelines, name):
    sp, P = pipelines[name].sp, pipelines[name].D.P
    sides = [(bott_action_on_lambda_b(sp), t_complex_keys(sp)),
             (u_action(P), d_complex_keys(sp, max_weight=2, max_arity=3))]
    for action, keys in sides:
        for key in keys:
            x = Vec({key: Fraction(3, 2)})
            same(ce_differential(sp, action, x),
                 loop_ce_differential(sp, action, x))
        for x in random_vecs(keys):
            same(ce_differential(sp, action, x),
                 loop_ce_differential(sp, action, x))
