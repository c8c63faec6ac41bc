"""Simple undirected graphs: construction, families, graph6 I/O,
shortest-path distances, induced-pattern detection and exhaustive
enumeration of small connected graphs up to isomorphism.

Everything here is desk-scale (n <= 62 for graph6, n <= 7 for the
corpus), so brute force is used throughout for its obvious correctness.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations, permutations, product

MAX_ENUM_N = 7


@dataclass(frozen=True)
class Graph:
    n: int
    edges: frozenset

    def adjacency(self):
        adj = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def has_edge(self, u, v):
        return frozenset((u, v)) in self.edges

    def degree_sequence(self):
        adj = self.adjacency()
        return tuple(sorted((len(a) for a in adj), reverse=True))

    def induced(self, vertices):
        """Induced subgraph on the given vertices, relabeled 0..k-1."""
        vertices = sorted(vertices)
        pos = {v: i for i, v in enumerate(vertices)}
        edges = [(pos[u], pos[v]) for u, v in
                 ((min(e), max(e)) for e in self.edges)
                 if u in pos and v in pos]
        return build_graph(len(vertices), edges)


def build_graph(n, edges):
    if n < 1:
        raise ValueError("vertex count must be positive")
    es = set()
    for u, v in edges:
        if u == v:
            raise ValueError("loop edge (%d,%d)" % (u, v))
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError("endpoint out of range in (%d,%d)" % (u, v))
        es.add(frozenset((u, v)))
    return Graph(n, frozenset(es))


def edge_list(g):
    """Sorted (u, v) pairs with u < v."""
    return sorted((min(e), max(e)) for e in g.edges)


# ---------------------------------------------------------------------------
# families

def family(kind, *params):
    if kind == "complete":
        (n,) = _sizes(kind, params, 1)
        return build_graph(n, combinations(range(n), 2))
    if kind == "complete_bipartite":
        m, n = _sizes(kind, params, 2)
        return build_graph(m + n, [(i, m + j) for i in range(m)
                                   for j in range(n)])
    if kind == "complete_tripartite":
        m, n, o = _sizes(kind, params, 3)
        parts = [range(0, m), range(m, m + n), range(m + n, m + n + o)]
        edges = []
        for a, b in combinations(parts, 2):
            edges.extend((i, j) for i in a for j in b)
        return build_graph(m + n + o, edges)
    if kind == "join_split":
        # complement-of-K_n joined to the disjoint union K_m + K_o
        n, m, o = _sizes(kind, params, 3)
        ind = range(0, n)
        cl1 = range(n, n + m)
        cl2 = range(n + m, n + m + o)
        edges = list(combinations(cl1, 2)) + list(combinations(cl2, 2))
        edges += [(i, j) for i in ind for j in list(cl1) + list(cl2)]
        return build_graph(n + m + o, edges)
    if kind == "star":
        # m leaves 0..m-1 and center m, so the generalized distance
        # matrix has the leaves-first block layout used by the closed
        # star formulas.
        (m,) = _sizes(kind, params, 1)
        return build_graph(m + 1, [(i, m) for i in range(m)])
    if kind == "path":
        (n,) = _sizes(kind, params, 1)
        return build_graph(n, [(i, i + 1) for i in range(n - 1)])
    if kind == "cycle":
        (n,) = _sizes(kind, params, 1)
        if n < 3:
            raise ValueError("cycle needs at least 3 vertices")
        return build_graph(n, [(i, (i + 1) % n) for i in range(n)])
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
    # triangle with two pendant vertices on one corner
    "ltimes": build_graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4)]),
    # diamond with a pendant vertex
    "dart": build_graph(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4)]),
}


# ---------------------------------------------------------------------------
# graph6 (McKay encoding), n <= 62

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
    if n > 62:
        raise ValueError("graph6 with n > 62 unsupported")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(data) - 1 != need:
        raise ValueError("graph6 length mismatch for n=%d" % n)
    bits = []
    for b in data[1:]:
        bits.extend((b >> shift) & 1 for shift in range(5, -1, -1))
    if any(bits[nbits:]):
        raise ValueError("nonzero trailing bits in graph6 string")
    edges = []
    k = 0
    for j in range(n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    return build_graph(n, edges)


def emit_graph6(g):
    n = g.n
    if n > 62:
        raise ValueError("graph6 with n > 62 unsupported")
    bits = []
    for j in range(n):
        for i in range(j):
            bits.append(1 if g.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    out = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        b = 0
        for bit in bits[k:k + 6]:
            b = (b << 1) | bit
        out.append(chr(b + 63))
    return "".join(out)


# ---------------------------------------------------------------------------
# distances

def is_connected(g):
    if g.n == 1:
        return True
    adj = g.adjacency()
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == g.n


def all_pairs_distances(g):
    """BFS distance matrix as a tuple of tuples; requires connectivity."""
    adj = g.adjacency()
    rows = []
    for s in range(g.n):
        dist = [-1] * g.n
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        if any(d < 0 for d in dist):
            raise ValueError("distance matrix undefined: graph disconnected")
        rows.append(tuple(dist))
    return tuple(rows)


def transmissions(g):
    dm = all_pairs_distances(g)
    return tuple(sum(row) for row in dm)


# ---------------------------------------------------------------------------
# canonical form (exhaustive, n <= 7 scale)

def _perm_bits(adjmat, perm):
    bits = 0
    for j in range(len(perm)):
        pj = perm[j]
        row = adjmat[pj]
        for i in range(j):
            bits = (bits << 1) | row[perm[i]]
    return bits


def canonical_form(g):
    """(n, min-adjacency bitstring) over degree-respecting relabelings."""
    n = g.n
    adjset = g.adjacency()
    adjmat = [[1 if v in adjset[u] else 0 for v in range(n)]
              for u in range(n)]
    degs = [len(a) for a in adjset]
    # vertices grouped by decreasing degree; the minimum is only taken
    # over permutations consistent with that invariant ordering
    classes = {}
    for v in range(n):
        classes.setdefault(degs[v], []).append(v)
    groups = [classes[d] for d in sorted(classes, reverse=True)]
    best = None
    for parts in product(*(permutations(grp) for grp in groups)):
        perm = [v for part in parts for v in part]
        bits = _perm_bits(adjmat, perm)
        if best is None or bits < best:
            best = bits
    return (n, best)


def from_canonical_form(form):
    n, bits = form
    nbits = n * (n - 1) // 2
    edges = []
    k = nbits - 1
    for j in range(n):
        for i in range(j):
            if (bits >> k) & 1:
                edges.append((i, j))
            k -= 1
    return build_graph(n, edges)


def contains_induced(g, pattern):
    """True iff some vertex subset of g induces a copy of pattern."""
    if isinstance(pattern, str):
        pattern = PATTERNS[pattern]
    k = pattern.n
    if k > g.n:
        return False
    pedges = len(pattern.edges)
    pdegs = pattern.degree_sequence()
    pform = canonical_form(pattern)
    for subset in combinations(range(g.n), k):
        sub = g.induced(subset)
        if len(sub.edges) != pedges or sub.degree_sequence() != pdegs:
            continue
        if canonical_form(sub) == pform:
            return True
    return False


# ---------------------------------------------------------------------------
# corpus enumeration

def enumerate_connected(n_max):
    """One representative per isomorphism class of connected graphs on
    1..n_max vertices, built by single-vertex augmentation and
    canonical-form deduplication."""
    if not (1 <= n_max <= MAX_ENUM_N):
        raise ValueError("n_max out of supported range 1..%d" % MAX_ENUM_N)
    level = [build_graph(1, [])]
    yield level[0]
    for n in range(2, n_max + 1):
        forms = set()
        for g in level:
            base = edge_list(g)
            for mask in range(1, 1 << (n - 1)):
                edges = base + [(v, n - 1) for v in range(n - 1)
                                if (mask >> v) & 1]
                forms.add(canonical_form(build_graph(n, edges)))
        # a graph built from its canonical form has that form again, so
        # the graphs come out sorted by (edge count, canonical form)
        level = [from_canonical_form(form) for form in
                 sorted(forms, key=lambda f: (f[1].bit_count(), f[1]))]
        yield from level
