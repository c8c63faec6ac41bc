"""Graph helpers that only the tests need."""

from distideal.graph import all_pairs_distances, build_graph, canonical_form


def edge_set(g):
    """The edges of g as a frozenset of 2-element frozensets."""
    return frozenset(frozenset((u, v)) for u, a in enumerate(g.adj)
                     for v in a if u < v)


def diameter(g):
    return max(max(row) for row in all_pairs_distances(g))


def degree_sequence(g):
    return sorted((len(a) for a in g.adj), reverse=True)


def are_isomorphic(g, h):
    if g.n != h.n or len(edge_set(g)) != len(edge_set(h)):
        return False
    if degree_sequence(g) != degree_sequence(h):
        return False
    return canonical_form(g) == canonical_form(h)


def random_connected(rng, n, p):
    """A connected graph on n vertices: a random tree, vertex k joined to
    one of 0..k-1, plus each other pair as an edge with probability p
    (p = 0 gives the tree)."""
    tree = {(rng.randrange(k), k) for k in range(1, n)}
    extra = {(u, v) for v in range(n) for u in range(v)
             if (u, v) not in tree and rng.random() < p}
    return build_graph(n, sorted(tree | extra))


def random_prufer_tree(rng, n):
    """The tree of a random Prüfer code of length n - 2 (n >= 2): each
    code entry in turn is joined to the least leaf left."""
    code = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in code:
        degree[v] += 1
    edges = []
    for v in code:
        leaf = degree.index(1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    edges.append(tuple(u for u in range(n) if degree[u] == 1))
    return build_graph(n, edges)
