"""Generalized distance matrices, exact symbolic determinants and
minors, distance ideals with their triviality counts, integer-point
evaluation, and the distance characteristic polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import snf
from .graph import all_pairs_distances
from .groebner import Ideal
from .poly import ZZ, Polynomial, exact_div, make_vars

# guard for the sum over i of C(n,i)^2 minors a chain expands
MAX_MINOR_N = 8


@dataclass(frozen=True)
class SymbolicMatrix:
    ring: str
    vars: tuple
    entries: tuple  # tuple of tuples of Polynomial

    @property
    def n(self):
        return len(self.entries)

    @cached_property
    def laplace(self):
        """The matrix's own minor memo, shared by every minor size."""
        return snf.LaplaceMemo(self.entries,
                               Polynomial.zero(self.ring, self.vars),
                               Polynomial.const(self.ring, self.vars, 1))


def matrix_from_rows(ring, variables, rows):
    return SymbolicMatrix(ring, tuple(variables),
                          tuple(tuple(row) for row in rows))


def generalized_distance_matrix(g):
    """diag(x_0..x_{n-1}) + D(G) over ZZ."""
    dm = all_pairs_distances(g)
    variables = make_vars(g.n)
    rows = []
    for u in range(g.n):
        row = []
        for v in range(g.n):
            if u == v:
                row.append(Polynomial.variable(ZZ, variables, variables[u]))
            else:
                row.append(Polynomial.const(ZZ, variables, dm[u][v]))
        rows.append(row)
    return matrix_from_rows(ZZ, variables, rows)


# ---------------------------------------------------------------------------
# determinants

def det_bareiss(matrix):
    """Fraction-free Bareiss elimination; divisions are exact."""
    n = matrix.n
    if n == 0:
        return Polynomial.const(matrix.ring, matrix.vars, 1)
    M = [list(row) for row in matrix.entries]
    one = Polynomial.const(matrix.ring, matrix.vars, 1)
    zero = Polynomial.zero(matrix.ring, matrix.vars)
    sign = 1
    prev = one
    for k in range(n - 1):
        if M[k][k].is_zero():
            for r in range(k + 1, n):
                if not M[r][k].is_zero():
                    M[k], M[r] = M[r], M[k]
                    sign = -sign
                    break
            else:
                return zero
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = M[k][k] * M[i][j] - M[i][k] * M[k][j]
                M[i][j] = exact_div(num, prev)
            M[i][k] = zero
        prev = M[k][k]
    return M[n - 1][n - 1] * sign


def det_laplace(matrix):
    idx = tuple(range(matrix.n))
    return matrix.laplace.det(idx, idx)


def det_symbolic(matrix):
    """Exact determinant, cross-checked between Bareiss and Laplace."""
    b = det_bareiss(matrix)
    if b != det_laplace(matrix):
        raise AssertionError("determinant engines disagree")
    return b


def minors(matrix, i, allow_large=False):
    """All nonzero i x i minors, deduplicated up to sign and sorted."""
    n = matrix.n
    if not (1 <= i <= n):
        raise ValueError("minor size out of range")
    if not allow_large and n > MAX_MINOR_N:
        raise ValueError("minor enumeration needs allow_large for n=%d, i=%d"
                         % (n, i))
    seen = set()
    for d in matrix.laplace.minors(i):
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
    and its minor memo.  Minors are expanded over ZZ; Ideal converts them
    to ``ring``."""
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
    """gcd of all i-minors of D(G, point) as a nonnegative integer."""
    if len(point) != g.n:
        raise ValueError("evaluation point has wrong length")
    dm = all_pairs_distances(g)
    M = [[point[u] if u == v else dm[u][v] for v in range(g.n)]
         for u in range(g.n)]
    return snf.minors_gcd(M, i)


# ---------------------------------------------------------------------------
# distance characteristic polynomial

CHAR_VAR = "lam"


def char_poly_distance(g):
    """(monic char poly of D(G) in lam, sorted integer roots)."""
    dm = all_pairs_distances(g)
    variables = (CHAR_VAR,)
    lam = Polynomial.variable(ZZ, variables, CHAR_VAR)
    rows = []
    for u in range(g.n):
        rows.append([-lam if u == v
                     else Polynomial.const(ZZ, variables, dm[u][v])
                     for v in range(g.n)])
    m = matrix_from_rows(ZZ, variables, rows)
    p = det_bareiss(m)
    if g.n % 2:
        p = -p  # det(D - lam*I) = (-1)^n * charpoly(lam)
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
    from .graph import emit_graph6
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
