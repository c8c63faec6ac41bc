"""Graph helpers that only the tests need."""

from distideal.graph import all_pairs_distances, canonical_form


def diameter(g):
    return max(max(row) for row in all_pairs_distances(g))


def degree_sequence(g):
    return sorted((len(a) for a in g.adjacency()), reverse=True)


def are_isomorphic(g, h):
    if g.n != h.n or len(g.edges) != len(h.edges):
        return False
    if degree_sequence(g) != degree_sequence(h):
        return False
    return canonical_form(g) == canonical_form(h)
