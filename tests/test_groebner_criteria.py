"""The pair criteria of the Buchberger loop: the chain criterion skips
an S-pair and the cover test a ZZ gcd-pair, each only when the third
element's leading coefficient divides the pair's; the pairs the loop
still forms on I_5 of three 7-vertex graphs, and on every ideal of the
small connected graphs in both rings, are pinned, and every basis stays
the one the reference oracle and ``Ideal.verify`` accept."""

from collections import Counter

import pytest

import reference_groebner as ref
from distideal import groebner
from distideal.graph import enumerate_connected, family
from distideal.groebner import Ideal, buchberger
from distideal.ideals import generalized_distance_matrix, minors
from distideal.poly import QQ, ZZ, Polynomial, make_vars

V = make_vars(3)
X, Y, Z = (1, 0, 0), (0, 1, 0), (0, 0, 1)


def _render(basis):
    return [p.render() for p in basis]


def _formed_pairs(monkeypatch, gens):
    """The ZZ basis of gens, checked against the reference, and the
    pairs the loop formed as (lower lm, higher lm, kind), the monomials
    as exponent tuples."""
    fields = groebner._Fields(len(V), groebner._width(gens))
    pair = groebner._pair
    formed = []

    def recorded(f, g, L, kind):
        formed.append((*sorted(fields.unpack(p[0]) for p in (f, g)), kind))
        return pair(f, g, L, kind)

    monkeypatch.setattr(groebner, "_pair", recorded)
    basis = buchberger(gens, ZZ, V)
    monkeypatch.undo()
    assert _render(basis) == _render(ref.buchberger(gens, ZZ, V))
    return formed


@pytest.mark.parametrize("lc_k, skipped", [(1, True), (3, False)])
def test_chain_criterion_needs_dividing_lc(monkeypatch, lc_k, skipped):
    # x0*x1 divides the lcm x0^2*x1^2 of the first two, and its pairs
    # with them have smaller lcms, so they are settled first; the S-pair
    # of the first two goes only if lc_k divides lcm(2, 2)
    gens = [Polynomial(ZZ, V, {(2, 0, 0): 2, Z: 1}),
            Polynomial(ZZ, V, {(0, 2, 0): 2, Z: 1}),
            Polynomial(ZZ, V, {(1, 1, 0): lc_k, Z: 1})]
    formed = _formed_pairs(monkeypatch, gens)
    assert (((0, 2, 0), (2, 0, 0), "s") not in formed) == skipped


@pytest.mark.parametrize("lc_k, skipped", [(2, True), (3, False)])
def test_gcd_cover_needs_dividing_lc(monkeypatch, lc_k, skipped):
    # the gcd-pair of 4*x0 and 6*x1 has leading term 2*x0*x1; lc_k*x0*x1
    # covers it only if lc_k divides 2
    gens = [Polynomial(ZZ, V, {X: 4, Z: 1}), Polynomial(ZZ, V, {Y: 6, Z: 1}),
            Polynomial(ZZ, V, {(1, 1, 0): lc_k, Z: 1})]
    formed = _formed_pairs(monkeypatch, gens)
    assert ((Y, X, "g") not in formed) == skipped


# without the criteria the loop formed 2508/589, 3284/564 and 1360/90
@pytest.mark.parametrize("g, s_pairs, g_pairs", [
    (family("cycle", 7), 474, 0), (family("path", 7), 582, 1),
    (family("complete_bipartite", 3, 4), 180, 0)],
    ids=["C7", "P7", "K34"])
def test_i5_zz_pair_counts_pinned(monkeypatch, g, s_pairs, g_pairs):
    m = generalized_distance_matrix(g)
    ideal = Ideal(ZZ, m.vars, minors(m, 5))
    pair = groebner._pair
    formed = []

    def counted(f, h, L, kind):
        formed.append(kind)
        return pair(f, h, L, kind)

    monkeypatch.setattr(groebner, "_pair", counted)
    ideal.basis
    monkeypatch.undo()
    assert (formed.count("s"), formed.count("g")) == (s_pairs, g_pairs)
    # verify forms every pair _pair_kinds keeps, criteria or not
    assert ideal.verify() is True


def _corpus_pair_counts(monkeypatch, nmax):
    """The pairs the loop forms, by (ring, kind), over every index of
    every connected graph with at most nmax vertices: the ideals of
    ``minors``, taken in the order it gives them."""
    pair = groebner._pair
    counts = Counter()
    ring = None

    def counted(f, h, L, kind):
        counts[ring, kind] += 1
        return pair(f, h, L, kind)

    monkeypatch.setattr(groebner, "_pair", counted)
    for g in enumerate_connected(nmax):
        m = generalized_distance_matrix(g)
        for i in range(1, g.n + 1):
            gens = minors(m, i)
            for ring in (ZZ, QQ):
                Ideal(ring, m.vars, gens).basis
    return counts


def test_small_corpus_pair_counts_pinned(monkeypatch):
    assert _corpus_pair_counts(monkeypatch, 5) == {
        (ZZ, "s"): 486, (QQ, "s"): 403}


@pytest.mark.slow
def test_six_vertex_corpus_pair_counts_pinned(monkeypatch):
    assert _corpus_pair_counts(monkeypatch, 6) == {
        (ZZ, "s"): 7194, (ZZ, "g"): 1, (QQ, "s"): 4180}
