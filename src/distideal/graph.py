"""Simple undirected graphs: construction, families, graph6 I/O,
shortest-path distances, induced-pattern detection and exhaustive
enumeration of small connected graphs up to isomorphism.

Everything here is desk-scale (n <= 62 for every graph, the most that
graph6 encodes in one byte; n <= 8 for the corpus), so brute force is
used throughout for its obvious correctness: the enumerator keeps the
least adjacency code of each graph over its degree-respecting orderings,
and a pattern is found when the code of some vertex subset is the code
of one of its labellings, with no canonical form.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, permutations, product

MAX_N = 62
MAX_ENUM_N = 8


@dataclass(frozen=True)
class Graph:
    """n vertices 0..n-1; adj[v] is the frozenset of the neighbours of v."""
    n: int
    adj: tuple

    def induced(self, vertices):
        """Induced subgraph on the given vertices, relabeled 0..k-1 in
        increasing order; they must be distinct, in range(n) and at
        least one."""
        vertices = sorted(vertices)
        if not (vertices and 0 <= vertices[0] and vertices[-1] < self.n
                and len(set(vertices)) == len(vertices)):
            raise ValueError("induced subgraph needs distinct vertices "
                             "in 0..%d, at least one" % (self.n - 1))
        return _from_code(len(vertices), _code(self.adj, vertices))


def build_graph(n, edges):
    if n < 1:
        raise ValueError("vertex count must be positive")
    if n > MAX_N:
        raise ValueError("graphs with n > %d vertices unsupported" % MAX_N)
    adj = [set() for _ in range(n)]
    for u, v in edges:
        if u == v:
            raise ValueError("loop edge (%d,%d)" % (u, v))
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError("endpoint out of range in (%d,%d)" % (u, v))
        adj[u].add(v)
        adj[v].add(u)
    return Graph(n, tuple(map(frozenset, adj)))


# ---------------------------------------------------------------------------
# families

def family(kind, *params):
    # the edges go to build_graph as generators, so that its vertex
    # bound comes before any of them is made
    if kind == "complete":
        (n,) = _sizes(kind, params, 1)
        return build_graph(n, ((i, j) for i in range(n)
                               for j in range(i + 1, n)))
    if kind == "complete_bipartite":
        m, n = _sizes(kind, params, 2)
        return build_graph(m + n, ((i, m + j) for i in range(m)
                                   for j in range(n)))
    if kind == "complete_tripartite":
        m, n, o = _sizes(kind, params, 3)
        parts = [range(0, m), range(m, m + n), range(m + n, m + n + o)]
        return build_graph(m + n + o, ((i, j) for a, b in
                                       combinations(parts, 2)
                                       for i in a for j in b))
    if kind == "join_split":
        # complement-of-K_n joined to the disjoint union K_m + K_o
        n, m, o = _sizes(kind, params, 3)
        cliques = (range(n, n + m), range(n + m, n + m + o))
        return build_graph(n + m + o, chain(
            ((i, j) for c in cliques for i in c for j in range(i + 1, c.stop)),
            ((i, j) for i in range(n) for c in cliques for j in c)))
    if kind == "star":
        # m leaves 0..m-1 and center m, so the generalized distance
        # matrix has the leaves-first block layout used by the closed
        # star formulas.
        (m,) = _sizes(kind, params, 1)
        return build_graph(m + 1, ((i, m) for i in range(m)))
    if kind == "path":
        (n,) = _sizes(kind, params, 1)
        return build_graph(n, ((i, i + 1) for i in range(n - 1)))
    if kind == "cycle":
        (n,) = _sizes(kind, params, 1)
        if n < 3:
            raise ValueError("cycle needs at least 3 vertices")
        return build_graph(n, ((i, (i + 1) % n) for i in range(n)))
    raise ValueError("unknown family %r" % (kind,))


def _sizes(kind, params, count):
    if len(params) != count:
        raise ValueError("family %s takes %d parameter%s, got %d"
                         % (kind, count, "s" if count > 1 else "",
                            len(params)))
    if any(s < 1 for s in params):
        raise ValueError("sizes must be positive")
    return params


# ---------------------------------------------------------------------------
# fixed forbidden/example patterns

PATTERNS = {
    "P4": build_graph(4, [(0, 1), (1, 2), (2, 3)]),
    "paw": build_graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)]),
    "diamond": build_graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),
    "C4": build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    # K5 minus a 2-edge path
    "K5-P2": build_graph(5, [(0, 1), (0, 4), (1, 2), (1, 3), (1, 4),
                             (2, 3), (2, 4), (3, 4)]),
    # K6 minus a perfect-matching pair
    "K6-M2": build_graph(6, [(u, v) for u, v in combinations(range(6), 2)
                             if (u, v) not in ((0, 3), (1, 2))]),
}


# ---------------------------------------------------------------------------
# adjacency codes: the upper triangle of the adjacency matrix in graph6
# column order, (0,1), (0,2), (1,2), (0,3), ..., first pair most significant

def _code(adj, order):
    """Code of the subgraph induced on the vertices listed in ``order``,
    the i-th of them becoming vertex i, read off the adjacency sets."""
    bits = 0
    placed = []
    for v in order:
        row = adj[v]
        for u in placed:
            bits = (bits << 1) | (u in row)
        placed.append(v)
    return bits


def _from_code(n, bits, shared=None):
    """The graph on n >= 1 vertices with code ``bits``.  Its neighbour
    sets are taken from ``shared``, a dict from each set to itself, when
    an equal one is there, and added to it otherwise."""
    adj = [set() for _ in range(n)]
    k = n * (n - 1) // 2
    for j in range(1, n):
        row = adj[j]
        for i in range(j):
            k -= 1
            if (bits >> k) & 1:
                adj[i].add(j)
                row.add(i)
    adj = map(frozenset, adj)
    if shared is not None:
        adj = (shared.setdefault(a, a) for a in adj)
    return Graph(n, tuple(adj))


# ---------------------------------------------------------------------------
# graph6 (McKay encoding), n <= MAX_N

def parse_graph6(text):
    text = text.strip()
    if not text:
        raise ValueError("empty graph6 string")
    data = [ord(ch) - 63 for ch in text]
    if any(b < 0 or b > 63 for b in data):
        raise ValueError("invalid graph6 character")
    n = data[0]
    if n == 0:
        raise ValueError("empty graph (n=0) unsupported")
    if n > MAX_N:
        raise ValueError("graph6 with n > %d unsupported" % MAX_N)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(data) - 1 != need:
        raise ValueError("graph6 length mismatch for n=%d" % n)
    bits = 0
    for b in data[1:]:
        bits = (bits << 6) | b
    pad = 6 * need - nbits
    if bits & ((1 << pad) - 1):
        raise ValueError("nonzero trailing bits in graph6 string")
    return _from_code(n, bits >> pad)


def emit_graph6(g):
    n = g.n
    if n > MAX_N:
        raise ValueError("graph6 with n > %d unsupported" % MAX_N)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    bits = _code(g.adj, range(n)) << (6 * need - nbits)
    return chr(n + 63) + "".join(chr(((bits >> 6 * k) & 63) + 63)
                                 for k in reversed(range(need)))


# ---------------------------------------------------------------------------
# distances

def distances_from(adj, s):
    """BFS distances from s over the neighbour sets ``adj`` (such as
    ``Graph.adj``); -1 for the vertices s cannot reach."""
    dist = [-1] * len(adj)
    dist[s] = 0
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def is_connected(g):
    return -1 not in distances_from(g.adj, 0)


def all_pairs_distances(g):
    """BFS distance matrix as a tuple of tuples; requires connectivity."""
    rows = tuple(tuple(distances_from(g.adj, s)) for s in range(g.n))
    if -1 in rows[0]:
        raise ValueError("distance matrix undefined: graph disconnected")
    return rows


# ---------------------------------------------------------------------------
# canonical form (exhaustive, n <= 8 scale)

def _canonical_code(adj):
    """Least code over the orderings that list the vertices by decreasing
    degree, each degree class in any order."""
    classes = {}
    for v, row in enumerate(adj):
        classes.setdefault(len(row), []).append(v)
    groups = [permutations(classes[d]) for d in sorted(classes, reverse=True)]
    return min(_code(adj, chain.from_iterable(parts))
               for parts in product(*groups))


def canonical_form(g):
    """(n, min-adjacency bitstring) over degree-respecting relabelings."""
    return (g.n, _canonical_code(g.adj))


# ---------------------------------------------------------------------------
# induced patterns: a k-subset, read in increasing vertex order, induces
# a copy of a k-vertex pattern iff its code is that of a labelling of it

@lru_cache(maxsize=None)
def _pattern_codes(name):
    """The codes of all k! labellings of the k-vertex pattern ``name``."""
    pattern = PATTERNS[name]
    return frozenset(_code(pattern.adj, order)
                     for order in permutations(range(pattern.n)))


@lru_cache(maxsize=None)
def _codes_by_size(names):
    """(k, the codes of the labellings of the k-vertex patterns among
    ``names``) for each such k, smallest first."""
    by_size = {}
    for name in names:
        by_size.setdefault(PATTERNS[name].n, set()).update(
            _pattern_codes(name))
    return tuple((k, frozenset(by_size[k])) for k in sorted(by_size))


def contains_induced(g, *names):
    """True iff some vertex subset of g induces a copy of PATTERNS[name]
    for one of the ``names``: one pass over the k-subsets for each
    pattern size k, each subset's code tested against all of them."""
    adj = g.adj
    return any(_code(adj, subset) in codes
               for k, codes in _codes_by_size(names)
               for subset in combinations(range(g.n), k))


# ---------------------------------------------------------------------------
# corpus enumeration

def enumerate_connected(n_max):
    """One representative per isomorphism class of connected graphs on
    1..n_max vertices, built by single-vertex augmentation and
    canonical-code deduplication."""
    if not (1 <= n_max <= MAX_ENUM_N):
        raise ValueError("n_max out of supported range 1..%d" % MAX_ENUM_N)
    # one frozenset per distinct neighbour set, shared by every graph made
    shared = {}
    level = [_from_code(1, 0, shared)]
    yield level[0]
    for n in range(2, n_max + 1):
        new = n - 1
        codes = set()
        for g in level:
            adj = g.adj
            for mask in range(1, 1 << new):
                nbrs = {v for v in range(new) if (mask >> v) & 1}
                ext = [a | {new} if v in nbrs else a
                       for v, a in enumerate(adj)]
                ext.append(nbrs)
                codes.add(_canonical_code(ext))
        # a graph decoded from its canonical code has that code again, so
        # the graphs come out sorted by (edge count, canonical code)
        level = [_from_code(n, code, shared) for code in
                 sorted(codes, key=lambda c: (c.bit_count(), c))]
        yield from level
