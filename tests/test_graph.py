import hashlib
from dataclasses import fields
from itertools import permutations
from math import comb, factorial

import pytest

from distideal import graph
from distideal.graph import (PATTERNS, Graph, all_pairs_distances,
                             build_graph, canonical_form, contains_induced,
                             emit_graph6, enumerate_connected, family,
                             is_connected, parse_graph6)
from distideal.snf import distance_laplacian_matrix
from graph_helpers import are_isomorphic, diameter, edge_set


def test_build_graph_basic():
    g = build_graph(2, [(0, 1)])
    assert g.n == 2 and len(edge_set(g)) == 1


def test_build_graph_dedup():
    g = build_graph(3, [(0, 1), (1, 0), (0, 1)])
    assert len(edge_set(g)) == 1


def test_build_graph_loop_rejected():
    with pytest.raises(ValueError):
        build_graph(3, [(0, 1), (0, 2), (1, 1)])


def test_build_graph_range_rejected():
    with pytest.raises(ValueError):
        build_graph(2, [(0, 2)])


def test_vertex_bound_before_any_work():
    assert build_graph(62, []).n == 62

    def unread():
        raise AssertionError("edges read before the vertex bound")
        yield

    with pytest.raises(ValueError, match="n > 62"):
        build_graph(63, unread())
    for kind, params in (("path", (63,)), ("path", (10 ** 5,)),
                         ("complete", (10 ** 5,)),
                         ("complete_bipartite", (300, 300)),
                         ("join_split", (300, 300, 1))):
        with pytest.raises(ValueError, match="n > 62"):
            family(kind, *params)


def test_family_star_labeling():
    g = family("star", 3)
    assert g.n == 4
    # leaves 0..2, center 3
    assert edge_set(g) == {frozenset((i, 3)) for i in range(3)}


def test_family_tripartite_diamond():
    assert are_isomorphic(family("complete_tripartite", 2, 1, 1),
                          PATTERNS["diamond"])


def test_family_cycle4_is_k22():
    assert are_isomorphic(family("cycle", 4), family("complete_bipartite", 2, 2))


def test_family_join_split():
    # complement-of-K_1 joined with K_1 + K_1 is the path P3
    assert are_isomorphic(family("join_split", 1, 1, 1), family("path", 3))


def test_family_bad_size():
    with pytest.raises(ValueError):
        family("complete", 0)


def test_graph6_k3():
    g = parse_graph6("Bw")
    assert are_isomorphic(g, family("complete", 3))


def test_graph6_path():
    g = parse_graph6("Bg")
    assert sorted((min(e), max(e)) for e in edge_set(g)) == [(0, 1), (1, 2)]


def test_graph6_round_trip():
    assert emit_graph6(parse_graph6("Bw")) == "Bw"


def _handed_out_graphs():
    """A graph from every constructor the package has."""
    yield build_graph(4, [(0, 1), (1, 0), (2, 3)])
    yield build_graph(1, [])
    yield parse_graph6("Dhc")
    for kind, params in (("complete", (4,)), ("complete_bipartite", (2, 3)),
                         ("complete_tripartite", (1, 2, 2)),
                         ("join_split", (2, 1, 2)), ("star", (3,)),
                         ("path", (5,)), ("cycle", (5,))):
        g = family(kind, *params)
        yield g
        yield g.induced([0, 2, 3])
    yield from enumerate_connected(5)
    yield from PATTERNS.values()


def test_neighbour_sets_invariant():
    # adj is shared by every reader, so it must be immutable
    assert [f.name for f in fields(Graph)] == ["n", "adj"]
    for g in _handed_out_graphs():
        assert isinstance(g.adj, tuple) and len(g.adj) == g.n
        for u, a in enumerate(g.adj):
            assert type(a) is frozenset and u not in a
            assert all(0 <= v < g.n and u in g.adj[v] for v in a)
        with pytest.raises(AttributeError):
            g.adj[0].add(1)
        h = parse_graph6(emit_graph6(g))
        assert h == g and hash(h) == hash(g)


@pytest.mark.parametrize("vertices", [[-1, 0], [0, 0], [1, 2, 1], [0, 9],
                                      [4], [], ()])
def test_induced_rejects_bad_vertices(vertices):
    # -1 would read adj[-1], the last vertex, and a repeated vertex would
    # make a phantom copy of itself
    with pytest.raises(ValueError, match="distinct vertices in 0..3"):
        family("cycle", 4).induced(vertices)


def test_induced_takes_any_order():
    c4 = family("cycle", 4)
    # 0, 1, 3 become 0, 1, 2, so the edges 0-1 and 3-0 become 0-1 and 0-2
    assert c4.induced((3, 0, 1)) == c4.induced({0, 1, 3}) \
        == build_graph(3, [(0, 1), (0, 2)])
    assert c4.induced([2]) == build_graph(1, [])
    assert c4.induced(range(4)) == c4


def test_graph6_malformed():
    with pytest.raises(ValueError):
        parse_graph6("B")           # truncated
    with pytest.raises(ValueError):
        parse_graph6("Bwww")        # too long
    with pytest.raises(ValueError):
        parse_graph6("A" + chr(126))  # nonzero trailing bits for n=2


def test_graph6_round_trip_corpus():
    for g in enumerate_connected(6):
        assert parse_graph6(emit_graph6(g)) == g


def test_distances_path():
    g = family("path", 4)
    dm = all_pairs_distances(g)
    assert dm[0][3] == 3


def test_distances_cycle():
    assert diameter(family("cycle", 6)) == 3


def test_distances_claw():
    claw = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    dm = all_pairs_distances(claw)
    assert dm[0] == (0, 1, 1, 1)
    assert dm[1] == (1, 0, 2, 2)


def test_distances_disconnected():
    with pytest.raises(ValueError):
        all_pairs_distances(build_graph(2, []))


def test_distance_matrix_invariants():
    for g in enumerate_connected(5):
        if g.n < 2:
            continue
        dm = all_pairs_distances(g)
        n = g.n
        for u in range(n):
            assert dm[u][u] == 0
            for v in range(n):
                assert dm[u][v] == dm[v][u]
                assert (dm[u][v] == 1) == (v in g.adj[u])
                for w in range(n):
                    assert dm[u][w] <= dm[u][v] + dm[v][w]


def test_is_connected():
    assert is_connected(family("complete", 4))
    assert not is_connected(build_graph(2, []))
    assert is_connected(family("star", 5))


def test_transmissions():
    # the diagonal of the distance Laplacian holds the transmissions
    def transmissions(g):
        lap = distance_laplacian_matrix(g)
        return tuple(lap[v][v] for v in range(g.n))

    assert transmissions(family("complete", 5)) == (4,) * 5
    m = 4
    tr = transmissions(family("star", m))
    assert tr[:m] == (2 * m - 1,) * m and tr[m] == m
    assert transmissions(family("path", 3)) == (3, 2, 3)


def test_pattern_self_check():
    for name, pat in PATTERNS.items():
        assert contains_induced(pat, name), name


def test_contains_induced_examples():
    assert contains_induced(family("cycle", 6), "P4")
    assert not contains_induced(family("cycle", 4), "P4")
    assert contains_induced(PATTERNS["K5-P2"], "paw")
    # diamond is induced in K6 minus a matching
    assert contains_induced(PATTERNS["K6-M2"], "diamond")
    assert not contains_induced(family("complete", 5), "paw")


# (codes of the labellings, automorphisms) of each pattern
PATTERN_ORBITS = {"P4": (12, 2), "paw": (12, 2), "diamond": (6, 4),
                  "C4": (3, 8), "K5-P2": (30, 4), "K6-M2": (45, 16)}


@pytest.mark.parametrize("name", sorted(PATTERNS))
def test_pattern_codes_orbit_stabilizer(name):
    # two labellings share a code iff they differ by an automorphism, so
    # the k! labellings fall into one orbit of size |Aut(P)| per code
    pat = PATTERNS[name]
    adj = pat.adj
    aut = sum(all({p[v] for v in adj[u]} == adj[p[u]] for u in range(pat.n))
              for p in permutations(range(pat.n)))
    codes = len(graph._pattern_codes(name))
    assert codes * aut == factorial(pat.n)
    assert (codes, aut) == PATTERN_ORBITS[name]


def test_enumeration_counts():
    from collections import Counter
    counts = Counter(g.n for g in enumerate_connected(6))
    assert [counts[n] for n in range(1, 7)] == [1, 1, 2, 6, 21, 112]


def test_enumeration_range_check():
    with pytest.raises(ValueError):
        list(enumerate_connected(9))


def test_enumeration_shares_neighbour_sets():
    # the graphs are those enumerated before their sets were shared
    graphs = list(enumerate_connected(6))
    text = "\n".join(emit_graph6(g) for g in graphs)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "a4ceea3cea3a7f0ea011ac151a4164bed954252f58951dddc8cd970cab3883d3"
    for n in (6, 7):
        graphs = list(enumerate_connected(n))
        sets = {id(a) for g in graphs for a in g.adj}
        # every set is a subset of range(n), and equal sets are one object
        assert len(sets) == len({a for g in graphs for a in g.adj}) <= 2 ** n
    # against 6781 vertices for n <= 7
    assert len(sets) == 125


def _labeled_connected(n):
    c = {1: 1}
    for k in range(2, n + 1):
        tot = 2 ** comb(k, 2)
        for j in range(1, k):
            tot -= comb(k - 1, j - 1) * c[j] * 2 ** comb(k - j, 2)
        c[k] = tot
    return c[n]


def _aut_size(g):
    adj = g.adj
    cnt = 0
    for p in permutations(range(g.n)):
        if all((p[v] in adj[p[u]]) == (v in adj[u])
               for u in range(g.n) for v in range(u + 1, g.n)):
            cnt += 1
    return cnt


@pytest.mark.parametrize("n", [3, 4, 5])
def test_enumeration_vs_labeled_count_oracle(n):
    # sum over classes of n!/|Aut| must equal the labeled connected count
    classes = [g for g in enumerate_connected(n) if g.n == n]
    total = sum(factorial(n) // _aut_size(g) for g in classes)
    assert total == _labeled_connected(n)


@pytest.mark.slow
@pytest.mark.parametrize("n,expected", [(6, 112), (7, 853)])
def test_enumeration_large_oracle(n, expected):
    classes = [g for g in enumerate_connected(n) if g.n == n]
    assert len(classes) == expected
    total = sum(factorial(n) // _aut_size(g) for g in classes)
    assert total == _labeled_connected(n)


def test_canonical_form_isomorphism_invariant():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    h = build_graph(4, [(2, 0), (0, 3), (3, 1)])  # relabeled P4
    assert canonical_form(g) == canonical_form(h)
    assert are_isomorphic(g, h)
