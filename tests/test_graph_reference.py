"""Differential tests of the graph layer against the code it replaced
(``reference_graph``): one adjacency code for graph6, canonical forms,
induced subgraphs and pattern search, and one BFS for connectivity,
distances and the structural recognizers.  Every labeled graph on up to
five vertices is checked, disconnected ones included; pattern search is
also checked on every connected graph on up to six vertices, and on seven
under ``slow``, and the search for several patterns at once on those up to
six vertices and a seeded sample of seven."""

import random
import re
from itertools import combinations

import pytest

import reference_graph as ref
from distideal import graph
from distideal.classify import is_complete_bipartite, is_star
from distideal.graph import (PATTERNS, build_graph, canonical_form,
                             contains_induced, emit_graph6,
                             enumerate_connected, is_connected, parse_graph6)


def labeled_graphs(n):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield build_graph(n, [p for k, p in enumerate(pairs)
                              if (mask >> k) & 1])


SMALL = [g for n in range(1, 6) for g in labeled_graphs(n)]


def test_small_sweep_size():
    assert len(SMALL) == 1 + 2 + 8 + 64 + 1024


def test_graph6_and_canonical_forms_match_reference():
    for g in SMALL:
        g6 = emit_graph6(g)
        assert g6 == ref.emit_graph6(g)
        assert parse_graph6(g6) == ref.parse_graph6(g6) == g
        form = canonical_form(g)
        assert form == ref.canonical_form(g)
        assert graph._from_code(*form) == ref.from_canonical_form(form)


def test_connectivity_and_structure_match_reference():
    for g in SMALL:
        assert is_connected(g) == ref.is_connected(g)
        assert is_complete_bipartite(g) == ref.is_complete_bipartite(g)
        assert is_star(g) == ref.is_star(g)


def test_induced_subgraphs_match_reference():
    for g in SMALL:
        for k in range(1, g.n + 1):
            for subset in combinations(range(g.n), k):
                sub = ref.induced(g, subset)
                assert g.induced(subset) == sub
                assert canonical_form(g.induced(subset)) == \
                    ref.canonical_form(sub)


@pytest.mark.parametrize("name", sorted(PATTERNS))
def test_contains_induced_matches_reference(name):
    found = 0
    for g in SMALL:
        hit = contains_induced(g, name)
        assert hit == ref.contains_induced(g, name)
        found += hit
    if PATTERNS[name].n <= 5:
        assert found > 0


def _assert_contains_induced_matches_reference(hosts):
    for g in hosts:
        for name in ("P4", "paw", "diamond", "C4"):
            assert contains_induced(g, name) == \
                ref.contains_induced(g, name), (emit_graph6(g), name)


def test_contains_induced_matches_reference_connected_six():
    hosts = list(enumerate_connected(6))
    assert len(hosts) == 143
    _assert_contains_induced_matches_reference(hosts)


@pytest.mark.slow
def test_contains_induced_matches_reference_connected_seven():
    hosts = [g for g in enumerate_connected(7) if g.n == 7]
    assert len(hosts) == 853
    _assert_contains_induced_matches_reference(hosts)


def _name_sets():
    """Every nonempty subset of the pattern names, 4-, 5- and 6-vertex
    patterns mixed."""
    names = sorted(PATTERNS)
    return [subset for k in range(1, len(names) + 1)
            for subset in combinations(names, k)]


def test_contains_induced_of_several_patterns():
    name_sets = _name_sets()
    assert len(name_sets) == 2 ** len(PATTERNS) - 1
    hosts = list(enumerate_connected(6))
    sevens = [g for g in enumerate_connected(7) if g.n == 7]
    hosts += random.Random(30).sample(sevens, 40)
    hits = 0
    for g in hosts:
        found = {name: ref.contains_induced(g, name) for name in PATTERNS}
        for names in name_sets:
            hit = contains_induced(g, *names)
            assert hit == any(contains_induced(g, p) for p in names) \
                == any(found[p] for p in names), (emit_graph6(g), names)
            hits += hit
    # neither answer is the only one given
    assert 0 < hits < len(hosts) * len(name_sets)


@pytest.mark.parametrize("text", ["", "?", "@", "B", "Bwww", "A~", "A" + chr(62),
                                  "~", chr(126) + "?", "C~~", "Ch"])
def test_graph6_errors_match_reference(text):
    try:
        expected = ref.parse_graph6(text)
    except ValueError as exc:
        with pytest.raises(ValueError, match="^%s$" % re.escape(str(exc))):
            parse_graph6(text)
    else:
        assert parse_graph6(text) == expected


@pytest.mark.slow
def test_six_vertex_canonical_forms_and_graph6_match_reference():
    count = 0
    for g in labeled_graphs(6):
        assert canonical_form(g) == ref.canonical_form(g)
        assert emit_graph6(g) == ref.emit_graph6(g)
        count += 1
    assert count == 1 << 15
