"""Smith normal form of integer matrices by elementary row/column
operations, the memoized integer minor expansion, keyed by bitmasks of
row and column sets, that every minor and determinant of ``ideals`` is
read from, and the distance and distance-Laplacian SNF of a graph.

Pivots are chosen by minimal absolute value; when the pivot fails to
divide the remaining block, a row addition re-exposes the obstruction
and the pivot shrinks, so termination is immediate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd
from operator import index

from .graph import all_pairs_distances


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


def smith_normal_form(matrix, with_transforms=False):
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    M = [[index(x) for x in row] for row in matrix]
    if any(len(row) != cols for row in M):
        raise ValueError("matrix is not rectangular")
    if with_transforms:
        # the bordered matrix [[A, I], [I, 0]]: row operations carry U in
        # the right block and column operations carry V in the bottom one
        M = ([row + [int(i == j) for j in range(rows)]
              for i, row in enumerate(M)]
             + [[int(i == j) for j in range(cols)] + [0] * rows
                for i in range(cols)])

    def add_row(dst, src, q):
        M[dst] = [a + q * b for a, b in zip(M[dst], M[src])]

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
            pi, pj = pivot
            if pi != k:
                M[k], M[pi] = M[pi], M[k]
            if pj != k:
                for row in M:
                    row[k], row[pj] = row[pj], row[k]
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
                    for row in M:
                        row[j] -= q * row[k]
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
            M[k] = [-a for a in M[k]]
        if M[k][k] == 0:
            break

    factors = tuple(M[i][i] for i in range(r))
    if not with_transforms:
        return SNFResult(factors)
    return SNFResult(factors,
                     U=tuple(tuple(row[cols:]) for row in M[:rows]),
                     V=tuple(tuple(row[:cols]) for row in M[rows:]))


class LaplaceMemo:
    """Memoized Laplace expansion of the square submatrices of one integer
    matrix, the one engine that every minor of the program is read from.

    A submatrix is named by two bitmasks, its row set r and its column
    set c (bit k stands for index k).  Its determinant expands along its
    lowest row into determinants one size smaller, which the memo keeps
    under the one int (r << ncols) | c, so the i-minors of a matrix reuse
    every (i-1)-minor already computed."""

    __slots__ = ("rows", "shift", "memo")

    def __init__(self, rows):
        self.rows = rows
        self.shift = len(rows[0]) if rows else 0
        self.memo = {}

    def det(self, r, c):
        if not r & (r - 1):
            # at most one row: no expansion, no memo
            return self.rows[r.bit_length() - 1][c.bit_length() - 1] if r else 1
        key = (r << self.shift) | c
        total = self.memo.get(key)
        if total is None:
            low = r & -r
            row = self.rows[low.bit_length() - 1]
            rest = r ^ low
            det = self.det
            total = 0
            sign = 1
            cols = c
            while cols:
                b = cols & -cols
                cols ^= b
                v = row[b.bit_length() - 1]
                if v:
                    total += sign * v * det(rest, c ^ b)
                sign = -sign
            self.memo[key] = total
        return total


def check_index(i, n):
    """Raise ValueError unless ``i``, an ideal index or a minor size, is
    an int in 1..n; a bool is not an int here.  The one range rule of
    ``minors_gcd`` and of every index that ``ideals`` takes."""
    if not (type(i) is int and 1 <= i <= n):
        raise ValueError("index %r out of range 1..%d" % (i, n))


def subset_masks(n, i):
    """The bitmasks of the i-subsets of range(n), in the lex order of
    their index tuples."""
    return [sum(s) for s in combinations([1 << k for k in range(n)], i)]


def minors_gcd(matrix, i):
    """gcd of all i x i minors (nonnegative, 0 if all vanish).

    Independent of the elimination above: straight memoized Laplace
    expansion over row/column subsets.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    check_index(i, min(rows, cols))
    det = LaplaceMemo(matrix).det
    col_masks = subset_masks(cols, i)
    g = 0
    for r in subset_masks(rows, i):
        for c in col_masks:
            g = gcd(g, det(r, c))
    return g


# ---------------------------------------------------------------------------
# graph matrices

def distance_matrix(g):
    return [list(row) for row in all_pairs_distances(g)]


def distance_laplacian_matrix(g):
    """diag(transmissions) - D(G); every row sums to zero."""
    dm = all_pairs_distances(g)
    return [[sum(row) if u == v else -d for v, d in enumerate(row)]
            for u, row in enumerate(dm)]


def distance_snf(g, with_transforms=False):
    return smith_normal_form(distance_matrix(g), with_transforms)


def distance_laplacian_snf(g, with_transforms=False):
    return smith_normal_form(distance_laplacian_matrix(g), with_transforms)


def phi_unit_count(g):
    """Number of invariant factors of D(G) equal to 1."""
    return sum(1 for f in distance_snf(g).factors if f == 1)
