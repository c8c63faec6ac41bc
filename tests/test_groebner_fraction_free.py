"""The QQ Groebner engine runs on primitive integer polynomials: it forms
a subset of the S-pairs of the field engine it replaced, the ones the
chain criterion keeps, does Fraction arithmetic only to make the
finished basis monic, and agrees with the reference oracle on input
with denominators."""

import random
from fractions import Fraction
from math import gcd

import pytest

import reference_groebner as ref
from distideal import groebner
from distideal.graph import family
from distideal.groebner import Ideal, buchberger, reduce_poly
from distideal.ideals import generalized_distance_matrix, minors
from distideal.poly import QQ, Polynomial, make_vars
from ideal_helpers import contains


def _render(basis):
    return [p.render() for p in basis]


def _i5(g):
    m = generalized_distance_matrix(g)
    return minors(m, 5), m.vars


# S-pairs formed for I_5 over QQ once the chain criterion skips some;
# the field engine, without it, formed 435, 378 and 235
@pytest.mark.parametrize("g, pairs", [
    (family("cycle", 7), 125), (family("path", 7), 109),
    (family("complete_bipartite", 3, 4), 57)], ids=["C7", "P7", "K34"])
def test_i5_pair_sequence_pinned(monkeypatch, g, pairs):
    pair = groebner._pair
    formed = []

    def counted(f, h, L, kind):
        # the working basis: primitive integer polynomials, lc > 0, as
        # (lm, lc, terms) triples with packed monomials
        for _, lc, terms in f, h:
            assert lc > 0 and gcd(*(c for _, c in terms)) == 1
        formed.append(kind)
        return pair(f, h, L, kind)

    monkeypatch.setattr(groebner, "_pair", counted)
    gens, variables = _i5(g)
    basis = buchberger(gens, QQ, variables)
    assert formed == ["s"] * pairs
    assert _render(basis) == _render(
        ref.buchberger([p.to_ring(QQ) for p in gens], QQ, variables))


def test_fractions_only_in_the_monic_basis(monkeypatch):
    gens, variables = _i5(family("cycle", 7))
    made = []
    new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        made.append(1)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted_new)
    if hasattr(Fraction, "_from_coprime_ints"):
        # arithmetic results skip __new__ from Python 3.12 on
        coprime = Fraction._from_coprime_ints

        def counted_coprime(cls, n, d):
            made.append(1)
            return coprime(n, d)

        monkeypatch.setattr(Fraction, "_from_coprime_ints",
                            classmethod(counted_coprime))
    basis = buchberger(gens, QQ, variables)
    monkeypatch.undo()
    terms = sum(len(p.terms) for p in basis)
    assert len(basis) == 21
    assert 0 < len(made) <= 2 * terms


V = make_vars(3)
NUMERATORS = (1, -1, 2, -2, 3, -3, 4, 6, -9)
DENOMINATORS = (1, 2, 3, 4, 5)


def _rational_poly(rng, max_terms, negative_lead):
    """A QQ polynomial with denominators 2-5 among its coefficients;
    with ``negative_lead`` its leading coefficient is negative."""
    terms = {tuple(rng.randint(0, 1) for _ in V):
             Fraction(rng.choice(NUMERATORS), rng.choice(DENOMINATORS))
             for _ in range(rng.randint(1, max_terms))}
    p = Polynomial(QQ, V, terms)
    if negative_lead and p.leading()[1] > 0:
        p = -p
    return p


def test_normal_forms_with_denominators_match_reference():
    rng = random.Random(2031)
    for _ in range(200):
        basis = [_rational_poly(rng, 3, rng.random() < 0.5)
                 for _ in range(rng.randint(1, 4))]
        f = (_rational_poly(rng, 4, rng.random() < 0.5)
             * _rational_poly(rng, 3, False))
        assert reduce_poly(f, basis) == ref.reduce_poly(f, basis), (
            f.render(), _render(basis))


def test_bases_with_denominators_match_reference():
    rng = random.Random(2032)
    seen_denominators = False
    for _ in range(200):
        gens = [_rational_poly(rng, 3, rng.random() < 0.5)
                for _ in range(rng.randint(1, 3))]
        basis = buchberger(gens, QQ, V)
        assert _render(basis) == _render(ref.buchberger(gens, QQ, V)), (
            _render(gens))
        seen_denominators |= any(c.denominator > 1 for p in basis
                                 for c in p.terms.values())
        ideal = Ideal(QQ, V, gens)
        assert all(contains(ideal, g) for g in gens)
    assert seen_denominators
