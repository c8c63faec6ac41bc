"""The packed monomials of the Groebner engine against the tuple
helpers they replace, the restart on wider fields when a run outgrows
its field width, and a differential case over 62 variables."""

import random

import pytest

import reference_groebner as ref
from distideal import groebner
from distideal.groebner import buchberger, reduce_poly
from distideal.poly import QQ, ZZ, Polynomial, make_vars, monomial_key
from poly_helpers import mono_divides, mono_lcm, mono_mul, power


def _render(basis):
    return [p.render() for p in basis]


def _mono(rng, n, degree):
    """An exponent vector of n entries and total ``degree``: all of it
    on one variable, or spread at random."""
    if rng.random() < 0.2:
        e = [0] * n
        e[rng.randrange(n)] = degree
        return tuple(e)
    cuts = [0] + sorted(rng.randint(0, degree) for _ in range(n - 1))
    return tuple(b - a for a, b in zip(cuts, cuts[1:] + [degree]))


@pytest.mark.parametrize("bits", [8, 16])
def test_packing_agrees_with_tuple_helpers(bits):
    rng = random.Random(1700 + bits)
    bound = 1 << (bits - 1)  # every exponent and degree stays below it
    widened = 0
    for _ in range(400):
        n = rng.randint(1, 62)
        fields = groebner._Fields(n, bits)
        pack = fields.pack
        a = _mono(rng, n, rng.randrange(bound))
        # b: a multiple of a, or unrelated; either way of degree < bound
        if rng.random() < 0.5:
            b = mono_mul(a, _mono(rng, n, rng.randrange(bound - sum(a))))
        else:
            b = _mono(rng, n, rng.randrange(bound))
        assert fields.unpack(pack(a)) == a
        assert fields.unpack(pack(b)) == b
        assert (not (pack(b) - pack(a)) & fields.guard) == mono_divides(a, b)
        assert (not (pack(a) - pack(b)) & fields.guard) == mono_divides(b, a)
        # the smaller packed int is the larger monomial in grevlex
        assert (pack(a) < pack(b)) == (monomial_key(a) > monomial_key(b))
        lcm = mono_lcm(a, b)
        if sum(lcm) < bound:
            assert fields.lcm(pack(a), pack(b)) == pack(lcm)
        else:
            widened += 1
            with pytest.raises(groebner._Widen):
                fields.lcm(pack(a), pack(b))
        c = _mono(rng, n, rng.randrange(bound - max(sum(a), sum(b))))
        if sum(a) + sum(c) < bound:
            assert pack(a) + pack(c) == pack(mono_mul(a, c))
    assert widened


def test_run_restarts_on_wider_fields():
    # degree 61 sets 8-bit fields, whose degree bound is 128; the first
    # pairs have lcms of degree 120 to 122, a later one reaches the
    # bound, and the run restarts on 16-bit fields
    v = make_vars(3)
    x, y, z = (Polynomial.variable(ZZ, v, name) for name in v)
    gens = [power(x, 60) * y - power(z, 3), x * power(y, 60) - 3 * z,
            power(z, 61) - x]
    for ring in (ZZ, QQ):
        events = []
        fields, pair = groebner._Fields, groebner._pair

        def recorded_fields(n, bits):
            events.append(bits)
            return fields(n, bits)

        def recorded_pair(*args):
            events.append("pair")
            return pair(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(groebner, "_Fields", recorded_fields)
            mp.setattr(groebner, "_pair", recorded_pair)
            basis = buchberger([g.to_ring(ring) for g in gens], ring, v)
        restart = events.index(16)
        assert events[0] == 8 and "pair" in events[:restart]
        assert 32 not in events
        assert max(sum(m) for p in basis for m in p.terms) >= 128
        assert _render(basis) == _render(
            ref.buchberger([g.to_ring(ring) for g in gens], ring, v))


V62 = make_vars(62)


def _sparse_poly(rng, ring):
    """A few terms over a handful of the 62 variables, always touching
    the last one, so the topmost exponent field is used."""
    names = rng.sample(range(61), 3) + [61]
    terms = {}
    for _ in range(rng.randint(1, 3)):
        e = [0] * 62
        for i in names:
            e[i] = rng.randint(0, 2)
        terms[tuple(e)] = rng.choice((-3, -2, -1, 1, 2, 5))
    return Polynomial(ring, V62, terms)


@pytest.mark.parametrize("ring", [ZZ, QQ])
def test_sixty_two_variables_match_reference(ring):
    rng = random.Random(6200)
    for _ in range(30):
        gens = [_sparse_poly(rng, ring) for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if not g.is_zero()]
        assert _render(buchberger(gens, ring, V62)) == _render(
            ref.buchberger(gens, ring, V62)), _render(gens)
        f = _sparse_poly(rng, ring) * _sparse_poly(rng, ring)
        divisors = [g if g.leading()[1] > 0 else -g for g in gens]
        assert reduce_poly(f, gens) == ref.reduce_poly(f, divisors)
