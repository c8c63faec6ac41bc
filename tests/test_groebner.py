from fractions import Fraction
from math import comb, gcd

import pytest

from distideal import groebner
from distideal.graph import enumerate_connected, family
from distideal.groebner import (Ideal, buchberger,
                                gcd_polynomial, ideals_equal, reduce_poly,
                                s_polynomial)
from distideal.ideals import generalized_distance_matrix, minors
from distideal.poly import QQ, ZZ, Polynomial, make_vars, monomial_key
from ideal_helpers import contains
from poly_helpers import mono_lcm, mono_mul, power

V = make_vars(2)


def x(ring=ZZ):
    return Polynomial.variable(ring, V, "x0")


def y(ring=ZZ):
    return Polynomial.variable(ring, V, "x1")


def test_reduce_field_power():
    assert reduce_poly(power(x(QQ), 2), [x(QQ)]).is_zero()


def test_reduce_zz_euclidean():
    # 3x against 2x: subtract one copy, the unit remainder stops
    r = reduce_poly(3 * x(), [2 * x()])
    assert r == x()


def test_reduce_zz_negative_leading_divisor():
    # floor division by the lc -4 used to cycle the leading coefficient
    # between the divisors forever
    v3 = make_vars(3)
    x0, x1, x2 = (Polynomial.variable(ZZ, v3, v) for v in v3)
    f = 3 * power(x0, 3) * power(x1, 2) * power(x2, 2)
    basis = [-4 * x0 * power(x1, 2) * power(x2, 2), 2 * x2,
             4 * x0 * power(x1, 2)]
    assert reduce_poly(f, basis).render() == "x0^3*x1^2*x2^2"
    assert reduce_poly(f, basis) == reduce_poly(f, [-basis[0]] + basis[1:])


def test_reduce_qq_field_division():
    assert reduce_poly(3 * x(QQ), [2 * x(QQ)]).is_zero()


@pytest.mark.parametrize("names", [("a", "b", "c"), ("x0", "x1")],
                         ids=["other-names", "two-variables"])
def test_reduce_rejects_basis_over_other_registry(names):
    # c over (a, b, c) used to be read as x2, and x1 over two variables
    # as x1 over three, so x2 + 1 and x1 + 1 reduced to 1
    v3 = make_vars(3)
    divisor = Polynomial.variable(ZZ, names, names[-1])
    for ring in (ZZ, QQ):
        f = Polynomial.variable(ring, v3, v3[len(names) - 1]) + 1
        with pytest.raises(ValueError):
            reduce_poly(f, [divisor])
        with pytest.raises(ValueError):
            reduce_poly(Polynomial(ring, v3, {}), [divisor])


def test_reduce_idempotent():
    basis = [2 * x(), 3 * y() - 1]
    f = 7 * x() * y() + 5 * y() + 4
    r = reduce_poly(f, basis)
    assert reduce_poly(r, basis) == r


def test_s_polynomial_monomials():
    assert s_polynomial(2 * x(), 3 * y()).is_zero()


def test_s_polynomial_example():
    f = x() * y() - 1
    g = power(x(), 2)
    assert s_polynomial(f, g) == -x()


def test_gcd_polynomial_bezout():
    g = gcd_polynomial(2 * x(), 3 * x())
    assert g == x()


def test_gcd_polynomial_requires_zz():
    with pytest.raises(ValueError):
        gcd_polynomial(x(QQ), y(QQ))


def test_groebner_difference_gives_unit():
    basis = buchberger([x() - 1, x()], ZZ, V)
    assert [p.render() for p in basis] == ["1"]


def test_groebner_gcd_collapse():
    basis = buchberger([2 * x(), 3 * x()], ZZ, V)
    assert basis == [x()]
    ideal = Ideal(ZZ, V, [2 * x(), 3 * x()])
    assert contains(ideal, x())


def test_groebner_two_and_x():
    ideal = Ideal(ZZ, V, [Polynomial.const(ZZ, V, 2), x()])
    assert [p.render() for p in ideal.basis] == ["2", "x0"]
    # 1 is not reachable: the quotient is Z/2
    assert not contains(ideal, Polynomial.const(ZZ, V, 1))
    assert not ideal.is_trivial()


def test_trivial_c4_style_ideal():
    vars4 = make_vars(4)
    gens = [Polynomial.variable(ZZ, vars4, v) + 1 for v in vars4]
    gens.append(Polynomial.const(ZZ, vars4, 3))
    assert not Ideal(ZZ, vars4, gens).is_trivial()
    gens_q = [g.to_ring(QQ) for g in gens]
    assert Ideal(QQ, vars4, gens_q).is_trivial()


def test_nontrivial_despite_coprime_constants():
    # 2y - 1 and x - 2 generate a proper ideal over ZZ
    ideal = Ideal(ZZ, V, [2 * y() - 1, x() - 2])
    assert not ideal.is_trivial()
    # proper over the rationals too: the variety {x=2, y=1/2} is nonempty
    assert not Ideal(QQ, V, [2 * y(QQ) - 1, x(QQ) - 2]).is_trivial()


def test_contains_product_combination():
    ideal = Ideal(ZZ, V, [x() - 1, y() - 1])
    assert contains(ideal, x() * y() - 1)


def test_ideals_equal_orientation():
    a = Ideal(ZZ, V, [2 * x(), 3 * x()])
    b = Ideal(ZZ, V, [x()])
    assert ideals_equal(a, b)
    c = Ideal(ZZ, V, [2 * x()])
    assert not ideals_equal(b, c)


def test_basis_self_verify():
    gens = [x() * y() - 1, power(x(), 2) - y(), 2 * power(y(), 2) - 3]
    assert Ideal(ZZ, V, gens).verify()


def test_basis_self_verify_qq():
    gens = [x(QQ) * y(QQ) - 1, power(x(QQ), 2) - y(QQ)]
    assert Ideal(QQ, V, gens).verify()


def _with_basis(ring, gens, basis):
    """The ideal of ``gens``, claiming ``basis`` as its basis."""
    fake = Ideal(ring, V, gens)
    fake._basis = tuple(basis)
    return fake


VERIFY_CASES = [
    (ZZ, [x() * y() - 1, power(x(), 2) - y(), 2 * power(y(), 2) - 3]),
    (QQ, [x(QQ) * y(QQ) - 1, power(x(QQ), 2) - y(QQ)]),
]


@pytest.mark.parametrize("ring,gens", VERIFY_CASES)
def test_verify_rejects_dropped_element(ring, gens):
    # a reduced basis less one element is not a basis of the ideal
    basis = Ideal(ring, V, gens).basis
    assert len(basis) > 1
    for k in range(len(basis)):
        fake = _with_basis(ring, gens, basis[:k] + basis[k + 1:])
        assert fake.verify() is False, k


@pytest.mark.parametrize("ring,gens", VERIFY_CASES)
def test_verify_rejects_changed_coefficient(ring, gens):
    # doubling the coefficient of the last term (the leading one of a
    # constant) leaves a polynomial outside the ideal
    basis = Ideal(ring, V, gens).basis
    for k, p in enumerate(basis):
        terms = dict(p.terms)
        m = min(terms, key=monomial_key)
        terms[m] *= 2
        changed = Polynomial._make(ring, V, terms)
        fake = _with_basis(ring, gens, basis[:k] + (changed,) + basis[k + 1:])
        assert fake.verify() is False, k


def test_verify_needs_gcd_pairs():
    # every generator and the only S-pair of (2x0, 3x1) reduce to zero;
    # the gcd-pair x0*x1 does not, and the true basis holds it
    gens = [2 * x(), 3 * y()]
    assert [p.render() for p in Ideal(ZZ, V, gens).basis] == [
        "3*x1", "2*x0", "x0*x1"]
    assert _with_basis(ZZ, gens, gens).verify() is False


@pytest.mark.parametrize("ring", [ZZ, QQ])
def test_verify_rejects_zero_basis_element(ring):
    gens = [x(ring), y(ring)]
    zero = Polynomial(ring, V, {})
    assert _with_basis(ring, gens, gens + [zero]).verify() is False


@pytest.mark.parametrize("ring", [ZZ, QQ])
def test_verify_rejects_basis_over_other_variables(ring):
    # _reduce would zip the exponent tuples of different lengths
    wide = Polynomial.variable(ring, make_vars(3), "x0")
    assert _with_basis(ring, [x(ring)], [wide]).verify() is False


def test_verify_rejects_rational_basis_over_zz():
    # clearing x0/2 would give x0, which does divide 2*x0
    half = Polynomial(QQ, V, {(1, 0): Fraction(1, 2)})
    assert _with_basis(ZZ, [2 * x()], [half]).verify() is False


@pytest.mark.parametrize("ring, s_pairs, g_pairs, skipped", [
    (ZZ, 1360, 90, 1306), (QQ, 235, 0, 18)])
def test_verify_skips_pairs_by_the_loop_rule(monkeypatch, ring, s_pairs,
                                             g_pairs, skipped):
    # I_5 of K_{3,4}: verify forms exactly the pairs that the loop's
    # rule keeps, read here off the tuple leading terms of the basis
    m = generalized_distance_matrix(family("complete_bipartite", 3, 4))
    ideal = Ideal(ring, m.vars, minors(m, 5))
    basis = ideal.basis
    pair = groebner._pair
    formed = []

    def counted(f, g, L, kind):
        formed.append(kind)
        return pair(f, g, L, kind)

    monkeypatch.setattr(groebner, "_pair", counted)
    assert ideal.verify() is True
    lead = [p.leading() for p in basis]
    kept = []
    for i, (fm, fc) in enumerate(lead):
        for gm, gc in lead[:i]:
            if (mono_lcm(fm, gm) != mono_mul(fm, gm)
                    or (ring == ZZ and gcd(fc, gc) != 1)):
                kept.append("s")
            if ring == ZZ and fc % gc and gc % fc:
                kept.append("g")
    assert formed == kept
    assert (formed.count("s"), formed.count("g")) == (s_pairs, g_pairs)
    pairs = comb(len(basis), 2) * (2 if ring == ZZ else 1)
    assert pairs - len(formed) == skipped


def test_determinism():
    gens = [2 * x() * y() - 4, 3 * x() - y(), power(y(), 2) - 2]
    r1 = [p.render() for p in Ideal(ZZ, V, gens).basis]
    r2 = [p.render() for p in Ideal(ZZ, V, list(reversed(gens))).basis]
    assert r1 == r2


def test_zz_triviality_implies_qq():
    # corpus-wide coherence is covered in the acceptance suite; spot here
    from distideal.graph import enumerate_connected, family
    from distideal.ideals import distance_ideal
    for g in enumerate_connected(4):
        if g.n < 2:
            continue
        for i in (1, 2):
            if distance_ideal(g, i, ZZ).trivial:
                assert distance_ideal(g, i, QQ).trivial


def test_zz_basis_positive_leading_coefficients():
    gens = [-2 * x() + 4, -3 * y()]
    basis = buchberger(gens, ZZ, V)
    assert all(p.leading()[1] > 0 for p in basis)


def test_qq_ideal_keeps_integer_generators(monkeypatch):
    # the QQ loop runs on integer generators as they are, unit or not
    calls = []
    to_ring = Polynomial.to_ring

    def counted(self, ring):
        calls.append(ring)
        return to_ring(self, ring)

    monkeypatch.setattr(Polynomial, "to_ring", counted)
    ideal = Ideal(QQ, V, [Polynomial.const(ZZ, V, 3), x() - 1])
    assert [g.render() for g in ideal.gens] == ["3", "x0 - 1"]
    assert ideal.is_trivial()
    assert calls == []


def test_no_s_pair_with_coprime_leading_terms(monkeypatch):
    # the product criterion: over ZZ the leading coefficients must be
    # coprime too; over QQ the loop's integer polynomials have leading
    # coefficients other than 1, which the criterion ignores.  The loop
    # hands the pair routine working basis triples (lm, lc, terms) with
    # packed monomials, where the product of two monomials is their sum
    pair = groebner._pair
    formed = []
    run = {}

    def checked(f, g, L, kind):
        if kind == "s":
            (fm, fc, _), (gm, gc, _) = f, g
            assert (L != fm + gm
                    or (run["ring"] == ZZ and gcd(fc, gc) != 1)), (f, g)
            formed.append(run["ring"])
        return pair(f, g, L, kind)

    monkeypatch.setattr(groebner, "_pair", checked)
    for g in enumerate_connected(5):
        m = generalized_distance_matrix(g)
        for i in range(1, g.n + 1):
            gens = minors(m, i)
            for ring in (ZZ, QQ):
                run["ring"] = ring
                Ideal(ring, m.vars, gens).basis
    assert set(formed) == {ZZ, QQ}
