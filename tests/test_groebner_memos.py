"""The per-run memos of the Groebner engine against the code they
replace: the interreduction that shares one divisor memo and reduces
each tail against the whole kept list, against the one that built a
fresh list and memo per element; and ``_Fields.pack`` and ``unpack``,
memoized per instance, against the unmemoized formulas."""

import random

import pytest

from distideal import groebner
from distideal.graph import enumerate_connected
from distideal.groebner import buchberger
from distideal.ideals import generalized_distance_matrix, minors
from distideal.poly import QQ, ZZ, make_vars
from test_groebner_packed import _mono
from test_groebner_reference import V, _random_gens


def _interreduce_fresh(G, fields, ring, variables):
    """``_minimize_and_interreduce`` as it was before the shared memo:
    each tail is reduced against the others only, with a memo of its
    own."""
    field = ring == QQ
    guard = fields.guard
    kept = []
    for p in sorted(G, key=lambda p: (-p[0], p[1])):
        pm, pc, _ = p
        # over QQ a multiple of a leading monomial is enough
        if not any(not (pm - qm) & guard and (field or pc % qc == 0)
                   for qm, qc, _ in kept):
            kept.append(p)
    # one pass of tail reduction: the leading terms are fixed by now, so
    # a tail reduced against them stays reduced
    for i, (pm, pc, terms) in enumerate(kept):
        tail, mult = groebner._reduce(dict(terms[1:]),
                                      kept[:i] + kept[i + 1:],
                                      field, guard, {})
        h = {pm: pc * mult}
        h.update(tail)
        kept[i] = groebner._normalize(h, field)
    return [groebner._unpack(terms, fields, ring, variables, pc)
            for _, pc, terms in kept]


def test_shared_divisor_memo_matches_fresh_lists(monkeypatch):
    # every completed working basis of the n <= 5 corpus and of 300
    # random squarefree generator lists, in both rings, interreduced
    # both ways
    compared = []
    complete = groebner._complete

    def recorded(start, fields, field):
        G = complete(start, fields, field)
        if G is not None:
            ring = QQ if field else ZZ
            variables = make_vars(fields.top // fields.bits)
            old = _interreduce_fresh(G, fields, ring, variables)
            new = groebner._minimize_and_interreduce(G, fields, ring,
                                                     variables)
            assert new == old, [p.render() for p in old]
            compared.append(len(G))
        return G

    monkeypatch.setattr(groebner, "_complete", recorded)
    cases = []
    for g in enumerate_connected(5):
        m = generalized_distance_matrix(g)
        cases += [(minors(m, i), m.vars) for i in range(1, g.n + 1)]
    rng = random.Random(24)
    cases += [(_random_gens(rng), V) for _ in range(300)]
    for gens, variables in cases:
        for ring in (ZZ, QQ):
            buchberger(gens, ring, variables)
    assert len(compared) > len(cases)
    # bases of more than one element, where a tail can meet a divisor
    assert sum(n > 1 for n in compared) > 300


def _pack_formula(mono, n, bits):
    """The packed key of an exponent tuple: its exponent fields minus its
    degree shifted above them."""
    fields = sum(e << (i * bits) for i, e in enumerate(mono))
    return fields - (sum(mono) << (n * bits))


@pytest.mark.parametrize("bits", [8, 16])
def test_pack_memos_give_the_formula(bits):
    rng = random.Random(2400 + bits)
    bound = 1 << (bits - 1)
    for _ in range(200):
        n = rng.randint(1, 62)
        fields = groebner._Fields(n, bits)
        monos = [_mono(rng, n, rng.randrange(bound)) for _ in range(5)]
        # each one twice, a miss and then a hit, and a key unpacked
        # before it was ever packed
        for mono in monos + monos:
            key = _pack_formula(mono, n, bits)
            assert fields.pack(mono) == key
            assert fields.unpack(key) == mono
        mono = _mono(rng, n, rng.randrange(bound))
        key = _pack_formula(mono, n, bits)
        assert fields.unpack(key) == mono == fields.unpack(key)
        assert fields.pack(mono) == key == fields.pack(mono)
        # a width of its own: the same tuple, another key
        other = groebner._Fields(n, 2 * bits)
        assert other.pack(mono) == _pack_formula(mono, n, 2 * bits)
        assert other.unpack(other.pack(mono)) == mono
