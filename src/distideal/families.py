"""Closed-form generator sets and determinant formulas for complete
graphs, the shifted all-ones matrices diag(X) - m*I + m*J, and stars,
verified against brute-force minors ideals.

The complete graphs and stars are checked on D(G, X) built from the
graph module's own distances; det D(K_n, X) is the m = 1 case of
det(diag(X) - m*I + m*J).

Star variables are x1..xm for the leaves and y for the center, matching
the graph module's leaves-first star labeling (leaves 0..m-1, center
m), which maps x_{i+1} -> x_i and y -> x_m.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graph import all_pairs_distances, family
from .groebner import Ideal, ideals_equal
from .ideals import SymbolicMatrix, det_symbolic, minors
from .poly import ZZ, Polynomial


def _vars_x(n):
    return tuple("x%d" % (i + 1) for i in range(n))


def _gens_ring(variables):
    one = Polynomial.const(ZZ, variables, 1)
    xs = [Polynomial.variable(ZZ, variables, v) for v in variables]
    return one, xs


def _subset_products(factors, size, one):
    """Products over all `size`-subsets, in lexicographic subset order.
    The (len - 1)-subsets give the products of all factors but one."""
    out = []
    for subset in combinations(range(len(factors)), size):
        p = one
        for i in subset:
            p = p * factors[i]
        out.append(p)
    return out


# ---------------------------------------------------------------------------
# complete graphs

def complete_ideal_gens(n, i):
    if not (1 <= i <= n):
        raise ValueError("index out of range")
    if i < n:
        one, xs = _gens_ring(_vars_x(n))
        return _subset_products([x - 1 for x in xs], i - 1, one)
    return [mdiag_det(n, 1)]


# ---------------------------------------------------------------------------
# diag(X) - m*I + m*J

def mdiag_matrix(n, m):
    return SymbolicMatrix(_vars_x(n), tuple(
        tuple(0 if u == v else m for v in range(n)) for u in range(n)))


def mdiag_det(n, m):
    if n < 1 or m < 0:
        raise ValueError("bad parameters")
    variables = _vars_x(n)
    one, xs = _gens_ring(variables)
    shifted = [x - m for x in xs]
    full, = _subset_products(shifted, n, one)
    return full + m * sum(_subset_products(shifted, n - 1, one))


def mdiag_ideal_gens(n, m, k):
    if not (1 <= k <= n - 1) or m < 0:
        raise ValueError("bad parameters")
    variables = _vars_x(n)
    one, xs = _gens_ring(variables)
    shifted = [x - m for x in xs]
    a_k = [m * p for p in _subset_products(shifted, k - 1, one)]
    b_k = []
    for subset in combinations(shifted, k):
        prod, = _subset_products(subset, k, one)
        b_k.append(prod + m * sum(_subset_products(subset, k - 1, one)))
    return [p for p in a_k if not p.is_zero()] + b_k


# ---------------------------------------------------------------------------
# stars

def star_vars(m):
    return _vars_x(m) + ("y",)


def star_matrix(m):
    """Generalized distance matrix of the star with m leaves,
    leaves first and center last."""
    return SymbolicMatrix(star_vars(m), all_pairs_distances(family("star", m)))


def star_det(m):
    if m < 1:
        raise ValueError("need at least one leaf")
    variables = star_vars(m)
    one, xs = _gens_ring(variables)
    y = xs[-1]
    shifted = [x - 2 for x in xs[:-1]]
    full, = _subset_products(shifted, m, one)
    sigma = sum(_subset_products(shifted, m - 1, one))
    return y * full + (2 * y - 1) * sigma


def star_ideal_gens(m, k):
    if not (1 <= k <= m):
        raise ValueError("index out of range")
    variables = star_vars(m)
    one, xs = _gens_ring(variables)
    y = xs[-1]
    shifted = [x - 2 for x in xs[:-1]]
    c_k = _subset_products(shifted, k - 1, one)
    d_k = []
    if k >= 2:
        d_k = [(2 * y - 1) * p for p in _subset_products(shifted, k - 2, one)]
    return c_k + d_k


# ---------------------------------------------------------------------------
# mechanized verification

@dataclass(frozen=True)
class FamilySpec:
    kind: str           # complete | mdiag | star
    n: int = 0
    m: int = 0


def _family_row(kind, n, m):
    """(matrix, closed-form determinant or None, indices, closed-form
    generators of index k) of one instance."""
    if kind == "complete":
        mat = SymbolicMatrix(_vars_x(n), all_pairs_distances(family(kind, n)))
        return (mat, None, range(1, n + 1),
                lambda k: complete_ideal_gens(n, k))
    if kind == "mdiag":
        return (mdiag_matrix(n, m), lambda: mdiag_det(n, m), range(1, n),
                lambda k: mdiag_ideal_gens(n, m, k))
    if kind == "star":
        return (star_matrix(m), lambda: star_det(m), range(1, m + 1),
                lambda k: star_ideal_gens(m, k))
    raise ValueError("unknown family kind %r" % (kind,))


def verify_family(spec):
    """True iff the closed-form generators match the brute-force minors
    ideals for every index of the family instance."""
    mat, det, indices, gens = _family_row(spec.kind, spec.n, spec.m)
    if det is not None and det_symbolic(mat) != det():
        return False
    return all(ideals_equal(
        Ideal(ZZ, mat.vars, minors(mat, k)),
        Ideal(ZZ, mat.vars, gens(k))) for k in indices)


def verification_table():
    """Pass/fail rows for the default desk-scale verification sweep."""
    specs = ([FamilySpec("complete", n=n) for n in range(1, 6)]
             + [FamilySpec("mdiag", n=n, m=m)
                for n in range(2, 5) for m in range(0, 4)]
             + [FamilySpec("star", m=m) for m in range(1, 5)])
    rows = []
    for spec in specs:
        ok = verify_family(spec)
        rows.append({"kind": spec.kind, "n": spec.n, "m": spec.m, "ok": ok})
    return rows
