"""Three independent deciders for "at most one trivial distance ideal"
over ZZ and over the rationals (which settles the real case, since
triviality of an ideal with rational generators is stable under field
extension), plus corpus-wide equivalence checking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .graph import (PATTERNS, contains_induced, distances_from, emit_graph6,
                    enumerate_connected, is_connected)
from .ideals import trivial_count_phi
from .poly import QQ, ZZ

FORBIDDEN_Z = ("P4", "paw", "diamond")
FORBIDDEN_R = ("P4", "paw", "diamond", "C4")
# per ring: (coefficient ring of the ideals, forbidden induced subgraphs)
RINGS = {"Z": (ZZ, FORBIDDEN_Z), "R": (QQ, FORBIDDEN_R)}


# ---------------------------------------------------------------------------
# structural recognizers (independent of the pattern matcher)

def is_complete(g):
    return all(len(a) == g.n - 1 for a in g.adj)


def is_complete_bipartite(g):
    """Connected induced subgraphs of K_{m,n} are exactly these.  One BFS
    from vertex 0 gives connectivity, and the sides are the parity
    classes of its distances."""
    adj = g.adj
    dist = distances_from(adj, 0)
    if -1 in dist:
        return False
    return all((v in adj[u]) == ((dist[u] + dist[v]) % 2 == 1)
               for u, v in combinations(range(g.n), 2))


def is_star(g):
    """K_{1,k} for some k >= 0 (a single vertex counts)."""
    return ((g.n == 1 or any(len(a) == g.n - 1 for a in g.adj))
            and is_complete_bipartite(g))


# ---------------------------------------------------------------------------
# classification

@dataclass(frozen=True)
class ClassificationReport:
    graph: object
    ring: str
    ideal_based: bool
    forbidden_based: bool
    structural: bool

    @property
    def agreement(self):
        return self.ideal_based == self.forbidden_based == self.structural

    @property
    def verdict(self):
        return self.ideal_based


def classify(g, ring):
    """The three deciders of g over ring "Z" or "R", each looked up in
    the module globals per call, so a swapped-in wrapper is what runs.
    The ideal decider runs first, and its distance matrix raises a
    ValueError for a disconnected g."""
    coeff_ring, names = RINGS[ring]
    ideal_based = trivial_count_phi(g, coeff_ring, max_i=2) <= 1
    forbidden = not contains_induced(g, *names)
    structural = is_complete(g) or (
        is_complete_bipartite(g) if ring == "Z" else is_star(g))
    return ClassificationReport(g, ring, ideal_based, forbidden, structural)


def classify_Z(g):
    return classify(g, "Z")


def classify_R(g):
    return classify(g, "R")


# ---------------------------------------------------------------------------
# forbidden-graph minimality (bounded to the patterns themselves)

def minimal_forbidden_ok(ring):
    """Each forbidden pattern has exactly two trivial ideals while all of
    its proper connected induced subgraphs have at most one."""
    coeff_ring, names = RINGS[ring]
    for name in names:
        g = PATTERNS[name]
        if trivial_count_phi(g, coeff_ring, max_i=3) != 2:
            return False
        for size in range(1, g.n):
            for subset in combinations(range(g.n), size):
                h = g.induced(subset)
                if not is_connected(h):
                    continue
                if trivial_count_phi(h, coeff_ring, max_i=2) > 1:
                    return False
    return True


@dataclass
class CorpusReport:
    ring: str
    n_max: int
    total: int
    passing: int
    per_size: dict
    disagreements: list = field(default_factory=list)
    minimal_forbidden: bool = True

    @property
    def ok(self):
        return not self.disagreements and self.minimal_forbidden

    def to_json(self):
        return {
            "schema": "v1",
            "kind": "classify_summary",
            "ring": self.ring,
            "n_max": self.n_max,
            "total": self.total,
            "passing": self.passing,
            "per_size": {str(k): v for k, v in sorted(self.per_size.items())},
            "disagreements": list(self.disagreements),
            "minimal_forbidden": self.minimal_forbidden,
        }


def corpus_report(n_max, ring):
    """Run all three deciders over the connected corpus and compare."""
    passing = 0
    per_size = {}
    disagreements = []
    for g in enumerate_connected(n_max):
        rep = classify(g, ring)
        stats = per_size.setdefault(g.n, {"total": 0, "passing": 0})
        stats["total"] += 1
        if rep.ideal_based:
            passing += 1
            stats["passing"] += 1
        if not rep.agreement:
            disagreements.append(emit_graph6(g))
    return CorpusReport(
        ring=ring,
        n_max=n_max,
        total=sum(s["total"] for s in per_size.values()),
        passing=passing,
        per_size=per_size,
        disagreements=disagreements,
        minimal_forbidden=minimal_forbidden_ok(ring),
    )
