"""Differential tests of the Groebner engine against the reference
oracle in ``reference_groebner`` (the engine before the lean polynomial
core): identical reduced bases on graph ideals and on random generator
lists, identical normal forms on random input; against itself, the same
basis whatever the order of the generators, which the loop takes as
given, and the facts that let it sort each basis once; and of
``ideals_equal``, which compares reduced bases, against mutual
containment."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

import reference_groebner as ref
from distideal import groebner
from distideal.graph import enumerate_connected, family
from distideal.groebner import Ideal, buchberger, ideals_equal, reduce_poly
from distideal.ideals import generalized_distance_matrix, minors
from distideal.poly import QQ, ZZ, Polynomial, make_vars, monomial_key
from ideal_helpers import contains


def _render(basis):
    return [p.render() for p in basis]


def _assert_chains_match(g, rings=(ZZ, QQ), indices=None):
    m = generalized_distance_matrix(g)
    for i in indices or range(1, g.n + 1):
        gens_z = minors(m, i)
        for ring in rings:
            gens = [p.to_ring(ring) for p in gens_z]
            new = buchberger(gens, ring, m.vars)
            old = ref.buchberger(gens, ring, m.vars)
            assert _render(new) == _render(old), (g.n, g.adj, i, ring)


def test_bases_match_reference_small_corpus():
    graphs = list(enumerate_connected(5))
    assert len(graphs) == 31
    for g in graphs:
        _assert_chains_match(g)


@pytest.mark.slow
def test_bases_match_reference_six_vertices():
    graphs = [g for g in enumerate_connected(6) if g.n == 6]
    assert len(graphs) == 112
    for g in graphs:
        _assert_chains_match(g)


@pytest.mark.slow
@pytest.mark.parametrize("g", [family("cycle", 7), family("path", 7),
                               family("complete_bipartite", 3, 4)],
                         ids=["C7", "P7", "K34"])
def test_big_zz_chains_match_reference(g):
    _assert_chains_match(g, rings=(ZZ,), indices=[5])


V = make_vars(3)


def _random_poly(rng, ring):
    terms = {}
    for _ in range(rng.randint(0, 4)):
        mono = tuple(rng.randint(0, 2) for _ in V)
        terms[mono] = terms.get(mono, 0) + rng.randint(-6, 6)
    return Polynomial(ring, V, terms)


def _positive(p):
    """p or -p, whichever has a positive leading coefficient.  The
    reference's Euclidean rule over ZZ assumes such divisors: with a
    negative one it can cycle forever."""
    return -p if p.leading()[1] < 0 else p


@pytest.mark.parametrize("ring", [ZZ, QQ])
def test_normal_forms_match_reference(ring):
    # reduce_poly gets the divisors with their random signs, the
    # reference their sign-normalized copies
    rng = random.Random(2024)
    for _ in range(200):
        basis = [p for p in (_random_poly(rng, ring)
                             for _ in range(rng.randint(0, 4)))
                 if not p.is_zero()]
        f = _random_poly(rng, ring) * _random_poly(rng, ring)
        assert reduce_poly(f, basis) == ref.reduce_poly(
            f, [_positive(p) for p in basis])


def _random_fraction_poly(rng):
    """A nonzero QQ polynomial with denominators up to 3 and a leading
    coefficient of either sign."""
    while True:
        terms = {}
        for _ in range(rng.randint(1, 4)):
            mono = tuple(rng.randint(0, 2) for _ in V)
            terms[mono] = terms.get(mono, 0) + Fraction(rng.randint(-6, 6),
                                                        rng.randint(1, 3))
        p = Polynomial(QQ, V, terms)
        if not p.is_zero():
            return p


@pytest.mark.parametrize("ring", [ZZ, QQ])
def test_pair_polynomials_match_reference(ring):
    # over QQ the S-polynomial is x^(L - lm f)*f/lc f - x^(L - lm g)*g/lc g;
    # the packed routine gets it from the cleared integer polynomials
    rng = random.Random(25)
    for _ in range(500):
        if ring == QQ:
            f, g = _random_fraction_poly(rng), _random_fraction_poly(rng)
        else:
            f, g = _random_poly(rng, ZZ), _random_poly(rng, ZZ)
            if f.is_zero() or g.is_zero():
                continue
            assert groebner.gcd_polynomial(f, g) == ref.gcd_polynomial(f, g)
        assert groebner.s_polynomial(f, g) == ref.s_polynomial(f, g)
    if ring == QQ:
        with pytest.raises(ValueError):
            groebner.gcd_polynomial(f, g)


# Leading coefficients that share factors, so that the coefficient half
# of the product criterion is exercised, and none so large that a case
# runs long.
COEFFS = (1, -1, 2, -2, 3, 4, 6, 9, 12)


def _random_gens(rng, coeffs=COEFFS):
    """Up to three integer generators of up to three squarefree terms:
    with four generators one case in about 3000 runs for seconds."""
    return [Polynomial(ZZ, V, {tuple(rng.randint(0, 1) for _ in V):
                               rng.choice(coeffs)
                               for _ in range(rng.randint(1, 3))})
            for _ in range(rng.randint(1, 3))]


def _assert_random_bases_match(seed, count, coeffs=COEFFS):
    # the engine gets the integer generators, as a QQ Ideal passes them
    rng = random.Random(seed)
    for _ in range(count):
        gens = _random_gens(rng, coeffs)
        for ring in (ZZ, QQ):
            new = buchberger(gens, ring, V)
            old = ref.buchberger([g.to_ring(ring) for g in gens], ring, V)
            assert _render(new) == _render(old), (ring, _render(gens))


def test_random_bases_match_reference():
    _assert_random_bases_match(7, 300)


@pytest.mark.slow
def test_random_bases_match_reference_many():
    _assert_random_bases_match(8, 3000)


@pytest.mark.slow
def test_random_bases_match_reference_wide_coefficients():
    # 8, 10 and 15 make more leading coefficients that divide neither
    # one another nor a pair's gcd or lcm, where the chain criterion
    # and the gcd cover must keep a pair
    _assert_random_bases_match(9, 3000, COEFFS + (8, 10, 15))


def _same_basis_any_order(rng, gens, ring, variables):
    """The rendered basis of gens, which a seeded shuffle and the
    reversed list must give too."""
    bases = {tuple(_render(buchberger(order, ring, variables)))
             for order in (gens, rng.sample(gens, len(gens)), gens[::-1])}
    assert len(bases) == 1, (ring, _render(gens))
    return bases.pop()


def test_basis_does_not_depend_on_generator_order():
    rng = random.Random(5)
    for g in enumerate_connected(4):
        m = generalized_distance_matrix(g)
        for i in range(1, g.n + 1):
            gens = minors(m, i)
            for ring in (ZZ, QQ):
                _same_basis_any_order(rng, gens, ring, m.vars)
    for _ in range(300):
        gens = _random_gens(rng)
        for ring in (ZZ, QQ):
            _same_basis_any_order(rng, gens, ring, V)


def test_unit_last_gives_unit_basis():
    # over ZZ only +-1 is a unit, over QQ any nonzero constant: given
    # last, it reaches the loop's unit rule only after the others, and
    # reversed, before them
    rng = random.Random(6)
    for _ in range(100):
        gens = _random_gens(rng)
        for ring, unit in (ZZ, rng.choice((1, -1))), (QQ, 3):
            with_unit = gens + [Polynomial.const(ZZ, V, unit)]
            assert _same_basis_any_order(rng, with_unit, ring, V) == ("1",)


def test_one_sort_is_enough(monkeypatch):
    # no two triples of a completed working basis share (lm, lc), so one
    # sort on that pair decides every tie, and every returned basis has
    # strictly increasing leading monomials
    completed = []
    inner = groebner._minimize_and_interreduce

    def recorded(G, *args):
        completed.append(G)
        return inner(G, *args)

    monkeypatch.setattr(groebner, "_minimize_and_interreduce", recorded)
    cases = []
    for g in enumerate_connected(5):
        m = generalized_distance_matrix(g)
        cases += [(minors(m, i), m.vars) for i in range(1, g.n + 1)]
    rng = random.Random(12)
    cases += [(_random_gens(rng), V) for _ in range(300)]
    for gens, variables in cases:
        for ring in (ZZ, QQ):
            keys = [monomial_key(p.leading()[0])
                    for p in buchberger(gens, ring, variables)]
            assert keys == sorted(set(keys)), (ring, _render(gens))
    assert len(completed) > len(cases)
    for G in completed:
        assert len({(lm, lc) for lm, lc, _ in G}) == len(G)


def _contained_both_ways(a, b):
    """The definition of ideal equality that basis comparison replaced:
    each ideal contains the other's generators."""
    return (all(contains(a, g) for g in b.gens)
            and all(contains(b, g) for g in a.gens))


def _same_ideal_other_gens(rng, gens):
    """Generators of the ideal of ``gens``, shuffled, with one added to a
    monomial multiple of another and a combination of two appended."""
    gens = rng.sample(gens, len(gens))
    mono = Polynomial(ZZ, V, {tuple(rng.randint(0, 1) for _ in V):
                              rng.choice(COEFFS)})
    if len(gens) > 1:
        gens[0] = gens[0] + mono * gens[1]
    return gens + [mono * gens[0] + gens[-1]]


def test_ideals_equal_matches_containment_random():
    rng = random.Random(11)
    outcomes = set()
    for _ in range(100):
        gens = _random_gens(rng)
        others = [_same_ideal_other_gens(rng, gens), gens[1:] or gens,
                  [2 * gens[0]] + gens[1:], _random_gens(rng)]
        for ring in (ZZ, QQ):
            a = Ideal(ring, V, gens)
            for other in others:
                b = Ideal(ring, V, other)
                equal = ideals_equal(a, b)
                assert equal == _contained_both_ways(a, b), (
                    ring, _render(gens), _render(other))
                outcomes.add((ring, equal))
    assert outcomes == {(ZZ, True), (ZZ, False), (QQ, True), (QQ, False)}


def test_ideals_equal_matches_containment_chains():
    outcomes = set()
    for g in enumerate_connected(5):
        m = generalized_distance_matrix(g)
        for ring in (ZZ, QQ):
            chain = [Ideal(ring, m.vars, minors(m, i))
                     for i in range(1, g.n + 1)]
            for a, b in combinations(chain, 2):
                equal = ideals_equal(a, b)
                assert equal == _contained_both_ways(a, b), (g.adj, ring)
                outcomes.add(equal)
    assert outcomes == {True, False}
