import random

import pytest

from distideal.graph import build_graph, enumerate_connected, family
from distideal.snf import (SNFResult, distance_laplacian_matrix,
                           distance_laplacian_snf, distance_snf, minors_gcd,
                           phi_unit_count, smith_normal_form)
from graph_helpers import edge_set


def test_rank_deficient():
    res = smith_normal_form([[2, 4], [4, 8]])
    assert res.factors == (2, 0)


def test_identity():
    res = smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert res.factors == (1, 1, 1)


def test_diag_coprime():
    res = smith_normal_form([[2, 0], [0, 3]])
    assert res.factors == (1, 6)


def test_rectangular():
    res = smith_normal_form([[2, 4, 6]])
    assert res.factors == (2,)


def test_empty_transforms_are_empty_tuples():
    assert smith_normal_form([], with_transforms=True) == SNFResult((), (), ())
    assert (smith_normal_form([[]], with_transforms=True)
            == SNFResult((), ((1,),), ()))


def test_nonrectangular_rejected():
    with pytest.raises(ValueError):
        smith_normal_form([[1, 2], [3]])


def test_minors_gcd_range_check():
    # a 2 x 3 matrix has minors of sizes 1 and 2 only
    m = [[1, 2, 3], [4, 5, 6]]
    assert minors_gcd(m, 2) == 3
    for i in (0, 3, True):
        with pytest.raises(ValueError, match=r"out of range 1\.\.2"):
            minors_gcd(m, i)
    with pytest.raises(ValueError, match=r"out of range 1\.\.0"):
        minors_gcd([], 1)


def _check_transforms(matrix):
    res = smith_normal_form(matrix, with_transforms=True)
    r, c = len(matrix), len(matrix[0])
    prod = [[sum(res.U[i][k] * matrix[k][j] for k in range(r))
             for j in range(c)] for i in range(r)]
    prod = [[sum(prod[i][k] * res.V[k][j] for k in range(c))
             for j in range(c)] for i in range(r)]
    for i in range(r):
        for j in range(c):
            expected = res.factors[i] if i == j and i < len(res.factors) else 0
            assert prod[i][j] == expected
    assert abs(_det(res.U)) == 1
    assert abs(_det(res.V)) == 1


def _det(m):
    n = len(m)
    from itertools import permutations
    total = 0
    for p in permutations(range(n)):
        sign = 1
        seen = list(p)
        # parity by counting inversions
        inv = sum(1 for i in range(n) for j in range(i + 1, n)
                  if seen[i] > seen[j])
        sign = -1 if inv % 2 else 1
        prod = 1
        for i in range(n):
            prod *= m[i][p[i]]
        total += sign * prod
    return total


def test_transform_validity_random():
    rng = random.Random(3)
    for _ in range(25):
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        m = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        _check_transforms(m)


def test_divisibility_and_delta_random():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 5)
        m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        res = smith_normal_form(m)
        fac = [f for f in res.factors if f]
        for a, b in zip(fac, fac[1:]):
            assert b % a == 0
        # product of the first i factors equals the gcd of i-minors
        prod = 1
        for i, f in enumerate(fac, start=1):
            prod *= f
            assert prod == minors_gcd(m, i)
        if len(fac) < n:
            assert minors_gcd(m, len(fac) + 1) == 0


def test_distance_snf_complete():
    assert distance_snf(family("complete", 4)).factors == (1, 1, 1, 3)


def test_distance_snf_star():
    assert distance_snf(family("star", 3)).factors == (1, 1, 2, 6)


def test_distance_laplacian_snf_complete():
    assert distance_laplacian_snf(family("complete", 4)).factors == (1, 4, 4, 0)


def test_laplacian_row_sums_zero():
    for g in enumerate_connected(5):
        if g.n < 2:
            continue
        L = distance_laplacian_matrix(g)
        assert all(sum(row) == 0 for row in L)
        assert distance_laplacian_snf(g).factors[-1] == 0


def test_phi_unit_count():
    for n in range(3, 7):
        assert phi_unit_count(family("complete", n)) == n - 1
    assert phi_unit_count(family("star", 3)) == 2


def test_phi_trees():
    # distance matrices of trees have exactly two unit invariant factors
    trees = [g for g in enumerate_connected(7)
             if 2 <= g.n <= 7 and len(edge_set(g)) == g.n - 1]
    assert trees
    for t in trees:
        assert phi_unit_count(t) == 2, t


def test_snf_permutation_invariance():
    g = family("star", 4)
    perm = [3, 0, 4, 1, 2]
    relabeled = build_graph(5, [(perm[min(e)], perm[max(e)])
                                for e in edge_set(g)])
    assert distance_snf(g).factors == distance_snf(relabeled).factors
