"""The graph layer as it stood before one adjacency code and one BFS
served it: the reference oracle for the differential tests in
``test_graph_reference.py``.

The bodies below are kept verbatim, except that the methods
``Graph.induced``, ``Graph.has_edge`` and ``Graph.degree_sequence`` are
free functions here, and their callers call them so.  Each one writes
out the upper-triangle bit order, a BFS or a 2-colouring of its own, so
they share nothing with the code they check but ``build_graph`` and
the neighbour sets ``Graph.adj``, read as an edge set through
``graph_helpers.edge_set``.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations, permutations, product

from distideal.graph import PATTERNS, build_graph
from graph_helpers import edge_set


def has_edge(g, u, v):
    return frozenset((u, v)) in edge_set(g)


def degree_sequence(g):
    adj = [set() for _ in range(g.n)]
    for u, v in edge_set(g):
        adj[u].add(v)
        adj[v].add(u)
    return tuple(sorted((len(a) for a in adj), reverse=True))


def induced(g, vertices):
    """Induced subgraph on the given vertices, relabeled 0..k-1."""
    vertices = sorted(vertices)
    pos = {v: i for i, v in enumerate(vertices)}
    edges = [(pos[u], pos[v]) for u, v in
             ((min(e), max(e)) for e in edge_set(g))
             if u in pos and v in pos]
    return build_graph(len(vertices), edges)


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
            bits.append(1 if has_edge(g, i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    out = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        b = 0
        for bit in bits[k:k + 6]:
            b = (b << 1) | bit
        out.append(chr(b + 63))
    return "".join(out)


def is_connected(g):
    if g.n == 1:
        return True
    adj = g.adj
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == g.n


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
    adjset = g.adj
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
    pedges = len(edge_set(pattern))
    pdegs = degree_sequence(pattern)
    pform = canonical_form(pattern)
    for subset in combinations(range(g.n), k):
        sub = induced(g, subset)
        if len(edge_set(sub)) != pedges or degree_sequence(sub) != pdegs:
            continue
        if canonical_form(sub) == pform:
            return True
    return False


def is_complete_bipartite(g):
    """Connected induced subgraphs of K_{m,n} are exactly these."""
    if g.n == 1:
        return True
    if not is_connected(g):
        return False
    adj = g.adj
    color = {0: 0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in color:
                color[v] = 1 - color[u]
                stack.append(v)
            elif color[v] == color[u]:
                return False
    left = [v for v in range(g.n) if color[v] == 0]
    right = [v for v in range(g.n) if color[v] == 1]
    return all(has_edge(g, u, v) for u in left for v in right)


def is_star(g):
    """K_{1,k} for some k >= 0 (a single vertex counts)."""
    if g.n == 1:
        return True
    adj = g.adj
    centers = [v for v in range(g.n) if len(adj[v]) == g.n - 1]
    if not centers:
        return False
    c = centers[0]
    others = [v for v in range(g.n) if v != c]
    return all(not has_edge(g, u, v) for u, v in combinations(others, 2))
