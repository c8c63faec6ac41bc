"""Differential tests of the integer-memo minors and determinants, and of
the char polys up to n = 12, against the fraction-free Bareiss engine
of reference_det, of their integer roots against its divisor scan, of
the bitmask Laplace memo against a permutation-sum determinant, of the
symmetric halving in ``minors`` against the full rows x columns
enumeration, and of the mask enumeration of constant minor pairs against
the index-tuple one it replaced."""

import random
from itertools import chain, combinations, permutations
from math import gcd

import pytest

from distideal.families import (FamilySpec, _family_row, mdiag_matrix,
                                star_matrix, verification_table)
from distideal.graph import (all_pairs_distances, emit_graph6,
                             enumerate_connected, family)
from distideal.ideals import (CHAR_VAR, _constant_pairs, char_poly_distance,
                              det_symbolic, generalized_distance_matrix,
                              minors)
from distideal.poly import ZZ, Polynomial
from distideal.snf import LaplaceMemo, minors_gcd
from graph_helpers import random_connected
from poly_helpers import sort_key
from reference_det import PolyMatrix, det_bareiss, integer_roots_by_divisors


def _reference_minor(matrix, entries, rsub, csub):
    return det_bareiss(PolyMatrix(ZZ, matrix.vars, tuple(
        tuple(entries[r][c] for c in csub) for r in rsub)))


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5,
                                   pytest.param(6, marks=pytest.mark.slow)])
def test_every_minor_matches_bareiss(order):
    for g in enumerate_connected(order):
        if g.n != order:
            continue
        m = generalized_distance_matrix(g)
        entries = m.entries
        for i in range(1, g.n + 1):
            for rsub in combinations(range(g.n), i):
                for csub in combinations(range(g.n), i):
                    assert m.minor(rsub, csub) == \
                        _reference_minor(m, entries, rsub, csub)


def _reference_char_poly(g):
    # det(D - lam*I) = (-1)^n * charpoly(lam)
    dm = all_pairs_distances(g)
    variables = (CHAR_VAR,)
    lam = Polynomial.variable(ZZ, variables, CHAR_VAR)
    rows = tuple(tuple(-lam if u == v
                       else Polynomial.const(ZZ, variables, dm[u][v])
                       for v in range(g.n)) for u in range(g.n))
    p = det_bareiss(PolyMatrix(ZZ, variables, rows))
    return -p if g.n % 2 else p


def _graphs_past_the_minor_guard():
    """Seeded random connected graphs with 9 <= n <= 12, trees among
    them, and the path, cycle, complete graph and star of those sizes."""
    rng = random.Random(2026)
    graphs = [random_connected(rng, n, p) for n in range(9, 13)
              for p in (0.0, 0.15, 0.3, 0.5, 0.8)]
    for n in range(9, 13):
        graphs += [family("path", n), family("cycle", n),
                   family("complete", n), family("star", n - 1)]
    return graphs


def test_det_and_char_poly_match_bareiss():
    for g in enumerate_connected(6):
        m = generalized_distance_matrix(g)
        assert det_symbolic(m) == det_bareiss(PolyMatrix(ZZ, m.vars,
                                                         m.entries))
        assert char_poly_distance(g)[0] == _reference_char_poly(g)
    # the characteristic polynomial has no size guard
    for g in _graphs_past_the_minor_guard():
        assert char_poly_distance(g)[0] == _reference_char_poly(g), \
            emit_graph6(g)


def test_integer_roots_match_divisor_scan():
    for g in chain(enumerate_connected(7), _graphs_past_the_minor_guard()):
        p, roots = char_poly_distance(g)
        assert roots == integer_roots_by_divisors(p), emit_graph6(g)


def test_family_dets_match_bareiss():
    rows = verification_table()
    kinds = {row["kind"] for row in rows}
    assert kinds == {"complete", "mdiag", "star"}
    for row in rows:
        spec = FamilySpec(row["kind"], n=row["n"], m=row["m"])
        mat = _family_row(spec.kind, spec.n, spec.m)[0]
        assert det_symbolic(mat) == det_bareiss(PolyMatrix(ZZ, mat.vars,
                                                           mat.entries))


def _reference_minors(matrix, i):
    """Every rows x columns pair of index sets, deduplicated up to sign
    and sorted: ``minors`` before it used the symmetry of the matrix."""
    seen = set()
    for rsub in combinations(range(matrix.n), i):
        for csub in combinations(range(matrix.n), i):
            d = matrix.minor(rsub, csub)
            if not d.is_zero():
                seen.add(d if d.leading()[1] > 0 else -d)
    return sorted(seen, key=sort_key)


def _sweep_matrices():
    return [_family_row(row["kind"], row["n"], row["m"])[0]
            for row in verification_table()]


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5,
                                   pytest.param(6, marks=pytest.mark.slow)])
def test_minors_match_full_enumeration(order):
    for g in enumerate_connected(order):
        if g.n != order:
            continue
        m = generalized_distance_matrix(g)
        for i in range(1, g.n + 1):
            assert minors(m, i) == _reference_minors(m, i)


def test_family_minors_match_full_enumeration():
    for mat in _sweep_matrices():
        for i in range(1, mat.n + 1):
            assert minors(mat, i) == _reference_minors(mat, i)


def _is_symmetric(rows):
    return all(rows[u][v] == rows[v][u]
               for u in range(len(rows)) for v in range(u))


def test_matrix_constructors_are_symmetric():
    graphs = list(enumerate_connected(6)) + [
        family("complete_tripartite", 2, 2, 3), family("join_split", 2, 2, 3),
        family("cycle", 8), family("path", 8), family("star", 7)]
    matrices = [generalized_distance_matrix(g) for g in graphs]
    matrices += [mdiag_matrix(n, m) for n in range(1, 8) for m in range(5)]
    matrices += [star_matrix(m) for m in range(1, 8)] + _sweep_matrices()
    for mat in matrices:
        assert _is_symmetric(mat.const)


def _det_leibniz(rows, rsub, csub):
    """The determinant of rows rsub and columns csub as the signed sum
    over permutations, the sign read off the inversion count."""
    total = 0
    for perm in permutations(csub):
        inversions = sum(1 for a in range(len(perm))
                         for b in range(a + 1, len(perm)) if perm[a] > perm[b])
        term = -1 if inversions % 2 else 1
        for r, c in zip(rsub, perm):
            term *= rows[r][c]
        total += term
    return total


def _random_matrix(rng, nrows, ncols):
    """Small integers, not symmetric, with a zero row now and then."""
    rows = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1 and rng.random() < 0.3:
        rows[rng.randrange(nrows)] = [0] * ncols
    return rows


def _bits(indices):
    return sum(1 << k for k in indices)


def test_laplace_memo_matches_leibniz():
    rng = random.Random(41)
    for n in range(1, 6):
        for _ in range(8):
            rows = _random_matrix(rng, n, n)
            det = LaplaceMemo(rows).det
            assert det(0, 0) == 1
            for i in range(1, n + 1):
                for rsub in combinations(range(n), i):
                    for csub in combinations(range(n), i):
                        assert det(_bits(rsub), _bits(csub)) == \
                            _det_leibniz(rows, rsub, csub), (rows, rsub, csub)
    for _ in range(6):
        rows = _random_matrix(rng, 6, 6)
        full = tuple(range(6))
        assert LaplaceMemo(rows).det(63, 63) == _det_leibniz(rows, full, full)


def test_laplace_memo_rectangular_minors_gcd():
    rng = random.Random(43)
    for nrows, ncols in ((1, 4), (2, 5), (3, 6), (4, 3), (5, 2), (6, 4)):
        for _ in range(4):
            rows = _random_matrix(rng, nrows, ncols)
            det = LaplaceMemo(rows).det
            for i in range(1, min(nrows, ncols) + 1):
                want = 0
                for rsub in combinations(range(nrows), i):
                    for csub in combinations(range(ncols), i):
                        d = _det_leibniz(rows, rsub, csub)
                        assert det(_bits(rsub), _bits(csub)) == d
                        want = gcd(want, d)
                assert minors_gcd(rows, i) == want, (rows, i)


def _reference_constant_pairs(n, i):
    """The index-tuple enumeration that the mask one replaced."""
    for rsub in combinations(range(n), i):
        rest = [v for v in range(n) if v not in rsub]
        for csub in combinations(rest, i):
            if rsub < csub:
                yield rsub, csub


def test_constant_pairs_match_tuple_enumeration():
    def indices(mask):
        return tuple(k for k in range(n) if mask >> k & 1)

    for n in range(1, 9):
        for i in range(1, n // 2 + 1):
            got = [(indices(r), indices(c)) for r, c in _constant_pairs(n, i)]
            assert got == list(_reference_constant_pairs(n, i)), (n, i)


@pytest.mark.parametrize("spec", [("cycle", 7), ("path", 7),
                                  ("complete_bipartite", 3, 4)])
def test_seven_vertex_minors_match_full_enumeration(spec):
    m = generalized_distance_matrix(family(*spec))
    for i in range(1, m.n + 1):
        assert minors(m, i) == _reference_minors(m, i)
