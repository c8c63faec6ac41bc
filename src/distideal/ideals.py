"""Generalized distance matrices, exact symbolic determinants and
minors, distance ideals with their triviality counts, integer-point
evaluation, and the distance characteristic polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from . import snf
from .graph import all_pairs_distances, emit_graph6
from .groebner import Ideal
from .poly import ZZ, Polynomial, make_vars

# guard for the sum over i of C(n,i)^2 minors a chain expands
MAX_MINOR_N = 8


@dataclass(frozen=True)
class SymbolicMatrix:
    """diag(vars) + const: an integer matrix with the variable vars[k]
    added to its k-th diagonal entry.  Every minor is read off the
    integer minors of ``const``.

    ``const`` is symmetric (a distance matrix, or one of the family
    matrices), so minor(C, R) = minor(R, C)."""
    vars: tuple
    const: tuple  # tuple of tuples of int

    @property
    def n(self):
        return len(self.const)

    @cached_property
    def laplace(self):
        """The integer minor memo of ``const``, shared by every minor."""
        return snf.LaplaceMemo(self.const)

    def minor(self, rsub, csub):
        """Determinant of rows ``rsub`` and columns ``csub`` (sorted).

        It is multilinear in the variables x_k with k in both: the
        coefficient of the product over a set S of them is the integer
        minor without the rows and columns S, signed by the positions
        of S in rsub and csub.  S = {} gives the constant term."""
        det, n = self.laplace.det, self.n
        d = det(rsub, csub)
        terms = {(0,) * n: d} if d else {}
        common = [(k, pr + csub.index(k)) for pr, k in enumerate(rsub)
                  if k in csub]
        for size in range(1, len(common) + 1):
            for S in combinations(common, size):
                out = [k for k, _ in S]
                d = det(tuple(r for r in rsub if r not in out),
                        tuple(c for c in csub if c not in out))
                if d:
                    mono = [0] * n
                    for k in out:
                        mono[k] = 1
                    terms[tuple(mono)] = -d if sum(p for _, p in S) % 2 else d
        return Polynomial._make(ZZ, self.vars, terms)

    @property
    def entries(self):
        """The matrix as rows of polynomial entries (its 1 x 1 minors)."""
        idx = range(self.n)
        return tuple(tuple(self.minor((r,), (c,)) for c in idx) for r in idx)


def generalized_distance_matrix(g):
    """diag(x_0..x_{n-1}) + D(G) over ZZ."""
    return SymbolicMatrix(make_vars(g.n), all_pairs_distances(g))


def det_symbolic(matrix):
    idx = tuple(range(matrix.n))
    return matrix.minor(idx, idx)


def minors(matrix, i, allow_large=False):
    """All nonzero i x i minors, deduplicated up to sign and sorted.

    By symmetry each unordered pair of index sets is visited once."""
    n = matrix.n
    if not (1 <= i <= n):
        raise ValueError("minor size out of range")
    if not allow_large and n > MAX_MINOR_N:
        raise ValueError("minor enumeration needs allow_large for n=%d, i=%d"
                         % (n, i))
    seen = set()
    subsets = list(combinations(range(n), i))
    for a, rsub in enumerate(subsets):
        for csub in subsets[a:]:
            d = matrix.minor(rsub, csub)
            if not d.is_zero():
                seen.add(d if d.leading()[1] > 0 else -d)
    return sorted(seen, key=lambda p: p.sort_key())


# ---------------------------------------------------------------------------
# distance ideals

@dataclass
class DistanceIdealResult:
    graph: object
    index: int
    ring: str
    ideal: Ideal
    trivial: bool


def _chain(g, indices, ring, allow_large):
    """The distance ideals I_i of g for i in indices, all from one matrix
    and its minor memo.  Minors are expanded over ZZ and stay integer
    polynomials; buchberger converts them to ``ring`` when it runs."""
    m = generalized_distance_matrix(g)
    for i in indices:
        ideal = Ideal(ring, m.vars, minors(m, i, allow_large=allow_large))
        yield DistanceIdealResult(g, i, ring, ideal, ideal.is_trivial())


def distance_ideal(g, i, ring=ZZ, allow_large=False):
    if not (1 <= i <= g.n):
        raise ValueError("ideal index out of range")
    return next(_chain(g, [i], ring, allow_large))


def trivial_count_phi(g, ring=ZZ, max_i=None):
    """Largest i with trivial i-th distance ideal (0 if none).

    Triviality is downward-closed along the ideal chain, so the scan
    stops at the first nontrivial ideal; max_i caps the scan for callers
    that only need a threshold comparison.
    """
    top = g.n if max_i is None else min(max_i, g.n)
    count = 0
    for res in _chain(g, range(1, top + 1), ring, True):
        if not res.trivial:
            break
        count = res.index
    return count


def evaluate_ideal(g, i, point):
    """gcd of all i-minors of D(G, point) as a nonnegative integer: the
    product of the first i invariant factors of its Smith normal form."""
    if len(point) != g.n:
        raise ValueError("evaluation point has wrong length")
    if not (1 <= i <= g.n):
        raise ValueError("minor size out of range")
    dm = all_pairs_distances(g)
    M = [[point[u] if u == v else dm[u][v] for v in range(g.n)]
         for u in range(g.n)]
    return snf.smith_normal_form(M).delta(i)


# ---------------------------------------------------------------------------
# distance characteristic polynomial

CHAR_VAR = "lam"


def char_poly_distance(g):
    """(monic char poly of D(G) in lam, sorted integer roots).

    The coefficient of lam^(n-k) is (-1)^k times the sum of the
    principal k-minors of D(G)."""
    n = g.n
    memo = snf.LaplaceMemo(all_pairs_distances(g))
    terms = {}
    for k in range(n + 1):
        e = sum(memo.det(s, s) for s in combinations(range(n), k))
        if e:
            terms[(n - k,)] = -e if k % 2 else e
    p = Polynomial._make(ZZ, (CHAR_VAR,), terms)
    return p, _integer_roots(p)


def _integer_roots(p):
    coeffs = {m[0]: c for m, c in p.terms.items()}
    if not coeffs:
        return []
    low = min(coeffs)
    roots = set()
    if low > 0:
        roots.add(0)
    const = coeffs[low]
    divisors = set()
    d = 1
    while d * d <= abs(const):
        if const % d == 0:
            divisors.update((d, -d, abs(const) // d, -abs(const) // d))
        d += 1
    for r in sorted(divisors):
        if sum(c * r ** (e - low) for e, c in coeffs.items()) == 0:
            roots.add(r)
    return sorted(roots)


# ---------------------------------------------------------------------------
# reporting

def ideal_report(g, ring=ZZ, indices=None, allow_large=False):
    """JSON-ready report of the distance ideals of a graph.

    One pass up the chain computes each ideal once: up to the largest
    requested index and at least to the first nontrivial ideal, which
    fixes Φ.
    """
    indices = list(indices) if indices is not None else list(range(1, g.n + 1))
    if not all(1 <= i <= g.n for i in indices):
        raise ValueError("ideal index out of range")
    top = max(indices, default=0)
    chain = {}
    phi = 0
    for res in _chain(g, range(1, g.n + 1), ring, allow_large):
        chain[res.index] = res
        if res.trivial and phi == res.index - 1:
            phi = res.index
        if phi < res.index and res.index >= top:
            break
    records = [{
        "i": i,
        "generators": [p.render() for p in chain[i].ideal.gens],
        "groebner_basis": [p.render() for p in chain[i].ideal.basis],
        "trivial": chain[i].trivial,
    } for i in indices]
    return {
        "schema": "v1",
        "kind": "ideals",
        "graph6": emit_graph6(g),
        "ring": "Z" if ring == ZZ else "Q",
        "ideals": records,
        "phi": phi,
    }
