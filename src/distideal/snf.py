"""Smith normal form of integer matrices by elementary row/column
operations, the memoized integer minor expansion that the symbolic
matrices of ``ideals`` read their minors from, and the distance and
distance-Laplacian SNF of a graph.

Pivots are chosen by minimal absolute value; when the pivot fails to
divide the remaining block, a row addition re-exposes the obstruction
and the pivot shrinks, so termination is immediate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd

from .graph import all_pairs_distances, transmissions


@dataclass(frozen=True)
class SNFResult:
    factors: tuple          # f_1..f_r padded with zeros to min(r, c)
    U: tuple = None         # row transform, U * A * V = diag(factors)
    V: tuple = None

    def delta(self, i):
        """gcd of i-minors as the product of the first i factors."""
        p = 1
        for f in self.factors[:i]:
            p *= f
        return p


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(matrix, with_transforms=False):
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    M = [[int(x) for x in row] for row in matrix]
    if any(len(row) != cols for row in M):
        raise ValueError("matrix is not rectangular")
    U = _identity(rows) if with_transforms else None
    V = _identity(cols) if with_transforms else None
    # row operations act on M and U, column operations on M and V
    row_mats = [M, U] if with_transforms else [M]
    col_mats = [M, V] if with_transforms else [M]

    def swap_rows(i, j):
        for A in row_mats:
            A[i], A[j] = A[j], A[i]

    def swap_cols(i, j):
        for A in col_mats:
            for row in A:
                row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        for A in row_mats:
            A[dst] = [a + q * b for a, b in zip(A[dst], A[src])]

    def add_col(dst, src, q):
        for A in col_mats:
            for row in A:
                row[dst] += q * row[src]

    def negate_row(i):
        for A in row_mats:
            A[i] = [-a for a in A[i]]

    r = min(rows, cols)
    for k in range(r):
        while True:
            # minimal-absolute-value pivot in the trailing block
            pivot = None
            for i in range(k, rows):
                for j in range(k, cols):
                    if M[i][j] and (pivot is None
                                    or abs(M[i][j]) < abs(M[pivot[0]][pivot[1]])):
                        pivot = (i, j)
            if pivot is None:
                break
            if pivot != (k, k):
                if pivot[0] != k:
                    swap_rows(k, pivot[0])
                if pivot[1] != k:
                    swap_cols(k, pivot[1])
            p = M[k][k]
            dirty = False
            for i in range(k + 1, rows):
                if M[i][k]:
                    q = M[i][k] // p
                    add_row(i, k, -q)
                    if M[i][k]:
                        dirty = True
            for j in range(k + 1, cols):
                if M[k][j]:
                    q = M[k][j] // p
                    add_col(j, k, -q)
                    if M[k][j]:
                        dirty = True
            if dirty:
                continue
            # pivot row/column clear; enforce divisibility of the block
            bad = None
            for i in range(k + 1, rows):
                for j in range(k + 1, cols):
                    if M[i][j] % p:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            add_row(k, bad, 1)
        if M[k][k] < 0:
            negate_row(k)
        if M[k][k] == 0:
            break

    factors = tuple(M[i][i] for i in range(r))
    return SNFResult(
        factors=factors,
        U=tuple(tuple(row) for row in U) if U else None,
        V=tuple(tuple(row) for row in V) if V else None,
    )


class LaplaceMemo:
    """Memoized Laplace expansion of the square submatrices of one integer
    matrix.

    The determinant of rows ``rsub`` and columns ``csub`` expands along
    its first row into determinants one size smaller, which the memo
    keeps, so the i-minors of a matrix reuse every (i-1)-minor already
    computed.
    """

    def __init__(self, rows):
        self.rows = rows
        self.memo = {}

    def det(self, rsub, csub):
        if len(rsub) <= 1:
            return self.rows[rsub[0]][csub[0]] if rsub else 1
        key = (rsub, csub)
        total = self.memo.get(key)
        if total is None:
            row = self.rows[rsub[0]]
            rest = rsub[1:]
            total = 0
            sign = 1
            for idx, c in enumerate(csub):
                if row[c]:
                    sub = csub[:idx] + csub[idx + 1:]
                    total += sign * row[c] * self.det(rest, sub)
                sign = -sign
            self.memo[key] = total
        return total

    def minors(self, i):
        """Every i x i minor, rows then columns in lexicographic order."""
        rows = len(self.rows)
        cols = len(self.rows[0]) if rows else 0
        for rsub in combinations(range(rows), i):
            for csub in combinations(range(cols), i):
                yield self.det(rsub, csub)


def minors_gcd(matrix, i):
    """gcd of all i x i minors (nonnegative, 0 if all vanish).

    Independent of the elimination above: straight memoized Laplace
    expansion over row/column subsets.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    if not (1 <= i <= min(rows, cols)):
        raise ValueError("minor size out of range")
    g = 0
    for d in LaplaceMemo(matrix).minors(i):
        g = gcd(g, d)
    return g


# ---------------------------------------------------------------------------
# graph matrices

def distance_matrix(g):
    return [list(row) for row in all_pairs_distances(g)]


def distance_laplacian_matrix(g):
    """diag(transmissions) - D(G); every row sums to zero."""
    dm = all_pairs_distances(g)
    tr = transmissions(g)
    n = g.n
    return [[tr[u] if u == v else -dm[u][v] for v in range(n)]
            for u in range(n)]


def distance_snf(g, with_transforms=False):
    return smith_normal_form(distance_matrix(g), with_transforms)


def distance_laplacian_snf(g, with_transforms=False):
    return smith_normal_form(distance_laplacian_matrix(g), with_transforms)


def phi_unit_count(g):
    """Number of invariant factors of D(G) equal to 1."""
    return sum(1 for f in distance_snf(g).factors if f == 1)
