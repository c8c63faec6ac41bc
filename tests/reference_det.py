"""The fraction-free determinant engine as it stood before the symbolic
matrices became integer matrices with a diagonal of variables: the
reference oracle for the differential tests of ``SymbolicMatrix.minor``,
``det_symbolic`` and ``char_poly_distance``.  ``integer_roots_by_divisors``
is the divisor scan that found the integer roots of the characteristic
polynomial before its Gershgorin-bounded Horner scan: the reference for
its roots.

``det_bareiss`` and ``exact_div`` below are kept verbatim.  Bareiss
elimination works on a matrix of ``Polynomial`` entries with exact
polynomial division, so it shares nothing with the integer Laplace memo
it checks.  ``PolyMatrix`` is the polynomial-entry matrix shape that
``det_bareiss`` reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop

from distideal.poly import ZZ, Polynomial
from poly_helpers import descending_key, mono_div, subtract_term_multiple


@dataclass(frozen=True)
class PolyMatrix:
    ring: str
    vars: tuple
    entries: tuple  # tuple of tuples of Polynomial

    @property
    def n(self):
        return len(self.entries)


def exact_div(f, g):
    """Exact quotient f / g in the polynomial domain; raises if inexact."""
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    f._check(g)
    gm, gc = g.leading()
    r = dict(f.terms)
    heap = [(descending_key(m), m) for m in r]
    heapify(heap)
    q = {}
    while heap:
        rm = heappop(heap)[1]
        rc = r.get(rm)
        if rc is None:
            continue
        m = mono_div(rm, gm)
        if f.ring == ZZ:
            if rc % gc:
                raise ValueError("inexact division")
            c = rc // gc
        else:
            c = rc / gc
        q[m] = c
        subtract_term_multiple(r, heap, c, m, g.terms.items())
    return Polynomial._make(f.ring, f.vars, q)


def det_bareiss(matrix):
    """Fraction-free Bareiss elimination; divisions are exact."""
    n = matrix.n
    if n == 0:
        return Polynomial.const(matrix.ring, matrix.vars, 1)
    M = [list(row) for row in matrix.entries]
    one = Polynomial.const(matrix.ring, matrix.vars, 1)
    zero = Polynomial(matrix.ring, matrix.vars, {})
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


def integer_roots_by_divisors(p):
    """The sorted integer roots of a monic univariate integer polynomial:
    0 when lam divides p, and the divisors d of its lowest nonzero
    coefficient at which p / lam^low vanishes (rational root theorem)."""
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
