import pytest

from distideal.families import (FamilySpec, complete_ideal_gens, mdiag_det,
                                mdiag_ideal_gens, mdiag_matrix, star_det,
                                star_ideal_gens, star_matrix, star_vars,
                                verify_family, verification_table)
from distideal.graph import family
from distideal.groebner import Ideal, ideals_equal
from distideal.ideals import (det_symbolic, distance_ideal,
                              generalized_distance_matrix, minors)
from distideal.poly import ZZ, Polynomial
from distideal.snf import distance_laplacian_snf, distance_snf, minors_gcd
from family_helpers import star_minor_det
from poly_helpers import compose, substitute


def test_complete_gens_k3_det():
    (g,) = complete_ideal_gens(3, 3)
    v = g.vars
    xs = [Polynomial.variable(ZZ, v, name) for name in v]
    assert g == xs[0] * xs[1] * xs[2] - xs[0] - xs[1] - xs[2] + 2


def test_complete_gens_first_is_unit():
    v = tuple("x%d" % (i + 1) for i in range(5))
    assert complete_ideal_gens(5, 1) == [Polynomial.const(ZZ, v, 1)]


def test_complete_gens_second():
    gens = complete_ideal_gens(4, 2)
    v = gens[0].vars
    xs = [Polynomial.variable(ZZ, v, name) for name in v]
    assert gens == [x - 1 for x in xs]


def test_mdiag_det_n2():
    d = mdiag_det(2, 3)
    v = d.vars
    x1 = Polynomial.variable(ZZ, v, "x1")
    x2 = Polynomial.variable(ZZ, v, "x2")
    assert d == x1 * x2 - 9


def test_mdiag_m1_is_complete_distance_det():
    for n in range(2, 5):
        closed = mdiag_det(n, 1)
        mat = generalized_distance_matrix(family("complete", n))
        brute = det_symbolic(mat)
        # registries differ only by names x_{i+1} vs x_i in the same order
        mapping = {"x%d" % (i + 1):
                   Polynomial.variable(ZZ, mat.vars, "x%d" % i)
                   for i in range(n)}
        assert compose(closed, mat.vars, mapping) == brute


def test_mdiag_cofactor_recursion():
    # expanding det(M_{n+1}) along its last row/column re-derives the form
    for n in range(1, 5):
        for m in (0, 2, 3):
            assert det_symbolic(mdiag_matrix(n, m)) == mdiag_det(n, m)


def test_mdiag_gens_match_minors():
    mat = mdiag_matrix(4, 2)
    for k in range(1, 4):
        brute = minors(mat, k)
        assert ideals_equal(Ideal(ZZ, mat.vars, brute),
                            Ideal(ZZ, mat.vars, mdiag_ideal_gens(4, 2, k)))


def test_star_det_matches_symbolic():
    for m in range(1, 6):
        assert det_symbolic(star_matrix(m)) == star_det(m)


def test_star_det_at_zero():
    d = substitute(star_det(2), {"x1": 0, "x2": 0, "y": 0})
    assert d.terms == {(0,) * len(d.vars): 4}  # det of D(P3) by hand cofactors


def test_star_minor_det_formula():
    v = star_vars(3)
    x2 = Polynomial.variable(ZZ, v, "x2")
    x3 = Polynomial.variable(ZZ, v, "x3")
    assert star_minor_det(3, 1) == (x2 - 2) * (x3 - 2)


def test_star_minor_det_vs_brute():
    for m in range(2, 5):
        mat = star_matrix(m)
        for i in range(1, m + 1):
            rows = tuple(r for r in range(m + 1) if r != m)
            cols = tuple(c for c in range(m + 1) if c != i - 1)
            assert mat.minor(rows, cols) == star_minor_det(m, i)


def test_star_interior_cancellation_claim():
    # sum over j of delta(i,j) * [sum of off-j products]_{x_i=2} vanishes
    for m in (2, 3, 4):
        v = star_vars(m)
        xs = [Polynomial.variable(ZZ, v, "x%d" % (j + 1)) for j in range(m)]
        for i in range(m):
            total = Polynomial(ZZ, v, {})
            for j in range(m):
                inner = Polynomial(ZZ, v, {})
                for k in range(m):
                    if k == j:
                        continue
                    term = Polynomial.const(ZZ, v, 1)
                    for l in range(m):
                        if l not in (k, j):
                            term = term * (xs[l] - 2)
                    inner = inner + term
                inner = substitute(inner, {"x%d" % (i + 1): 2})
                total = total + (inner if j != i else -inner)
            assert total.is_zero()


def test_star_gens_claw_ideal():
    gens = star_ideal_gens(3, 2)
    rendered = sorted(p.render() for p in gens)
    assert rendered == ["2*y - 1", "x1 - 2", "x2 - 2", "x3 - 2"]
    # ideal-equal to the claw's second distance ideal under renaming
    claw = family("star", 3)
    res = distance_ideal(claw, 2)
    mapping = {"x%d" % (i + 1):
               Polynomial.variable(ZZ, res.ideal.vars, "x%d" % i)
               for i in range(3)}
    mapping["y"] = Polynomial.variable(ZZ, res.ideal.vars, "x3")
    renamed = [compose(p, res.ideal.vars, mapping) for p in gens]
    assert ideals_equal(res.ideal, Ideal(ZZ, res.ideal.vars, renamed))


def test_star_gens_k1_unit():
    assert star_ideal_gens(4, 1) == [Polynomial.const(ZZ, star_vars(4), 1)]


def test_star_gens_match_minors():
    mat = star_matrix(4)
    for k in (2, 3):
        brute = minors(mat, k)
        assert ideals_equal(Ideal(ZZ, mat.vars, brute),
                            Ideal(ZZ, mat.vars, star_ideal_gens(4, k)))


def test_verify_family_units():
    assert verify_family(FamilySpec("complete", n=4))
    assert verify_family(FamilySpec("star", m=3))
    assert verify_family(FamilySpec("mdiag", n=4, m=2))


@pytest.mark.parametrize("kind,n,m", [
    ("complete", 6, 0), ("complete", 7, 0), ("star", 0, 5), ("star", 0, 6),
    ("mdiag", 5, 3), ("mdiag", 6, 4)])
def test_verify_family_any_size(kind, n, m):
    # the closed forms hold for every n and m, so any size is verified
    assert verify_family(FamilySpec(kind, n=n, m=m))


@pytest.mark.slow
@pytest.mark.parametrize("kind,n,m", [
    ("complete", 8, 0), ("complete", 9, 0), ("star", 0, 7), ("star", 0, 8),
    ("mdiag", 7, 3), ("mdiag", 8, 5)])
def test_verify_family_large(kind, n, m):
    assert verify_family(FamilySpec(kind, n=n, m=m))


def test_verification_table_all_pass():
    rows = verification_table()
    assert rows and all(r["ok"] for r in rows)


def test_snf_corollaries_from_evaluations():
    # complete graph: evaluating at 0 gives I_{n-1} + (n-1); at -(n-1)
    # the distance Laplacian 1 + n I_{n-2} + 0
    for n in range(2, 7):
        kn = family("complete", n)
        assert distance_snf(kn).factors == (1,) * (n - 1) + (n - 1,)
        if n >= 3:
            assert distance_laplacian_snf(kn).factors == \
                (1,) + (n,) * (n - 2) + (0,)
    # star: I_2 + 2 I_{m-2} + 2m
    for m in range(2, 7):
        st = family("star", m)
        assert distance_snf(st).factors == (1, 1) + (2,) * (m - 2) + (2 * m,)


def test_star_laplacian_discrepancy_ground_truth():
    # direct SNF of the star-with-2-leaves distance Laplacian; the
    # elimination and the gcd-of-minors route must agree
    st = family("star", 2)
    res = distance_laplacian_snf(st)
    assert res.factors == (1, 5, 0)
    from distideal.snf import distance_laplacian_matrix
    L = distance_laplacian_matrix(st)
    assert minors_gcd(L, 1) == 1
    assert minors_gcd(L, 2) == 5
    assert minors_gcd(L, 3) == 0
