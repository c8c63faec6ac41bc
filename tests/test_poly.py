import random
from fractions import Fraction

import pytest

from distideal.families import (complete_ideal_gens, mdiag_det,
                                 mdiag_ideal_gens, star_det, star_ideal_gens)
from distideal.graph import enumerate_connected, family
from distideal.groebner import (Ideal, gcd_polynomial, reduce_poly,
                                s_polynomial)
from distideal.ideals import (char_poly_distance,
                              generalized_distance_matrix, minors)
from distideal.poly import QQ, ZZ, Polynomial, make_vars, monomial_key
from poly_helpers import compose, power, render_reference, substitute
from reference_det import exact_div

V = make_vars(3)


def x(i, ring=ZZ):
    return Polynomial.variable(ring, V, "x%d" % i)


def const(c, ring=ZZ):
    return Polynomial.const(ring, V, c)


def test_compare_grevlex():
    # x0^2 vs x0*x1: degree tie, rightmost differing exponent decides
    assert monomial_key((2, 0, 0)) > monomial_key((1, 1, 0))
    assert monomial_key((1, 1, 0)) < monomial_key((2, 0, 0))
    assert monomial_key((1, 1, 0)) == monomial_key((1, 1, 0))
    # degree dominates
    assert monomial_key((0, 0, 3)) > monomial_key((1, 0, 0))


def test_registry_mismatch():
    with pytest.raises(ValueError):
        Polynomial(ZZ, V, {(1, 0): 1})
    with pytest.raises(ValueError):
        x(0) + Polynomial.variable(ZZ, make_vars(2), "x0")
    with pytest.raises(ValueError, match="ring mismatch"):
        x(0) + x(0, QQ)
    with pytest.raises(ValueError, match="unknown variable 'y'"):
        Polynomial.variable(ZZ, V, "y")


def test_expand_product():
    f = (x(0) - 1) * (x(1) - 1)
    assert f == x(0) * x(1) - x(0) - x(1) + 1


def test_add_cancel():
    assert (x(1) * x(2) - 1) + 1 == x(1) * x(2)


def test_mul_by_zero():
    assert ((x(0) + 1) * const(0)).is_zero()


def test_substitute_to_constant():
    f = x(1) * x(2) - 1
    assert substitute(f, {"x1": 0, "x2": 0}) == const(-1)


def test_substitute_root():
    f = x(0) - 2
    assert substitute(f, {"x0": 2}).is_zero()


def test_substitute_unknown_var():
    with pytest.raises(ValueError):
        substitute(x(0), {"zz": 1})


def test_compose_fresh_variable():
    # x0*x1*x2 - x0 - x1 - x2 + 2 at all x_i = -lam
    f = x(0) * x(1) * x(2) - x(0) - x(1) - x(2) + 2
    lam_vars = ("lam",)
    lam = Polynomial.variable(ZZ, lam_vars, "lam")
    g = compose(f, lam_vars, {"x0": -lam, "x1": -lam, "x2": -lam})
    assert g == -power(lam, 3) + 3 * lam + 2


def test_exact_div():
    f = (x(0) + 1) * (x(1) - 2)
    assert exact_div(f, x(1) - 2) == x(0) + 1
    with pytest.raises(ValueError):
        exact_div(x(0) * x(1) + 1, x(0) + 1)


def _random_poly(rng, ring=ZZ):
    terms = {}
    for _ in range(rng.randint(0, 4)):
        mono = tuple(rng.randint(0, 2) for _ in V)
        terms[mono] = terms.get(mono, 0) + rng.randint(-4, 4)
    return Polynomial(ring, V, terms)


def _check_representation(p, ring):
    """No zero coefficient, ring-typed coefficients, terms kept leading
    first, and a leading term equal to a fresh max (asked twice, so the
    first read changes nothing); the zero polynomial has none."""
    assert p.ring == ring
    kind = int if ring == ZZ else Fraction
    assert all(c != 0 and type(c) is kind for c in p.terms.values())
    assert list(p.terms) == sorted(p.terms, key=monomial_key, reverse=True)
    if not p.terms:
        with pytest.raises(ValueError):
            p.leading()
        return
    m = max(p.terms, key=monomial_key)
    assert p.leading() == (m, p.terms[m])
    assert p.leading() == (m, p.terms[m])


@pytest.mark.parametrize("ring", [ZZ, QQ])
def test_representation_invariants(ring):
    rng = random.Random(17)
    scalar = 3 if ring == ZZ else Fraction(-2, 3)
    for _ in range(80):
        f, g = _random_poly(rng, ring), _random_poly(rng, ring)
        mono = tuple(rng.randint(0, 2) for _ in V)
        point = {v: rng.randint(-2, 2) for v in V[:rng.randint(0, 3)]}
        results = [Polynomial(ring, V, {}), f + g, f - g, f + (-f), -f,
                   f + 1, 1 - f, f * g, f * scalar, scalar * f, f * 0,
                   power(f, 0), power(f, 3), f.term_mul(mono, scalar),
                   f.term_mul(mono, 0),
                   substitute(f, point), f.to_ring(ring)]
        results.append(reduce_poly(f, [g, f * g + 1]))
        for p in results:
            _check_representation(p, ring)
        _check_representation(f.to_ring(ZZ), ZZ)
        _check_representation(f.to_ring(QQ), QQ)
        fz, gz = f.to_ring(ZZ), g.to_ring(ZZ)
        if not (fz.is_zero() or gz.is_zero()):
            _check_representation(s_polynomial(fz, gz), ZZ)
            _check_representation(gcd_polynomial(fz, gz), ZZ)
    # the polynomials that the rest of the program builds
    for kind, *params in (("cycle", 5), ("star", 3), ("path", 4),
                          ("complete_bipartite", 2, 3)):
        g = family(kind, *params)
        mat = generalized_distance_matrix(g)
        for row in mat.entries:
            for p in row:
                _check_representation(p, ZZ)
        for i in range(1, g.n + 1):
            gens = minors(mat, i)
            for p in gens:
                _check_representation(p, ZZ)
            for p in Ideal(ring, mat.vars, gens).basis:
                _check_representation(p, ring)
        _check_representation(char_poly_distance(g)[0], ZZ)
    closed_forms = [mdiag_det(3, 2), star_det(3)]
    for k in range(1, 5):
        closed_forms += complete_ideal_gens(4, k)
    for k in range(1, 4):
        closed_forms += mdiag_ideal_gens(4, 2, k) + star_ideal_gens(3, k)
    for p in closed_forms:
        _check_representation(p, ZZ)


def test_public_constructor_coerces():
    p = Polynomial(ZZ, V, {(1, 0, 0): Fraction(4, 2), (0, 1, 0): 0})
    assert p.terms == {(1, 0, 0): 2} and type(p.terms[(1, 0, 0)]) is int
    q = Polynomial(QQ, V, {(1, 0, 0): 2, (0, 0, 0): Fraction(0)})
    assert q.terms == {(1, 0, 0): Fraction(2)}
    assert type(q.terms[(1, 0, 0)]) is Fraction


def test_constant_hashes_as_its_value():
    # a constant equals its value, so a set or dict key holds them once
    for c, ring in ((1, ZZ), (-7, ZZ), (Fraction(3, 2), QQ), (Fraction(4), QQ),
                    (0, ZZ), (0, QQ)):
        p = const(c, ring)
        assert p == c and hash(p) == hash(c)
        assert len({p, c}) == 1
    assert Polynomial(ZZ, V, {}) == 0 and len({Polynomial(ZZ, V, {}), 0}) == 1
    # a nonconstant polynomial still hashes on its terms
    assert len({x(0), x(0) + 0, x(1)}) == 2
    assert hash(x(0) + 1) == hash(Polynomial(ZZ, V, {(1, 0, 0): 1, (0,) * 3: 1}))


def test_compare_with_number_never_raises():
    # a number is compared with the constant term, not coerced into the
    # ring: 1/2 is no ZZ coefficient, and hash(1/2) == hash(2**60)
    v = make_vars(2)
    assert not Polynomial.const(ZZ, v, 1) == Fraction(1, 2)
    assert Fraction(1, 2) not in {Polynomial.const(ZZ, v, 2 ** 60)}
    assert Polynomial.const(QQ, v, Fraction(1, 2)) == Fraction(1, 2)
    assert Polynomial.const(ZZ, v, 1) == Fraction(1) and x(0) != 0


@pytest.mark.parametrize("symbol,op", [
    ("*", lambda p: p * 0.5), ("*", lambda p: 0.5 * p),
    ("+", lambda p: p + 0.5), ("+", lambda p: p + None),
    ("-", lambda p: p - 0.5), ("-", lambda p: 0.5 - p)],
    ids=["mul", "rmul", "add", "add-None", "sub", "rsub"])
def test_foreign_operand_is_type_error(symbol, op):
    # NotImplemented, so that Python raises TypeError for the operator
    with pytest.raises(TypeError, match=r"for \%s:" % symbol):
        op(x(0))


@pytest.mark.parametrize("ring", [ZZ, QQ])
def test_exact_div_random(ring):
    rng = random.Random(19)
    for _ in range(60):
        f, g = _random_poly(rng, ring), _random_poly(rng, ring)
        if g.is_zero():
            continue
        q = exact_div(f * g, g)
        assert q == f
        _check_representation(q, ring)
        if not f.is_zero() and any(g.leading()[0]):
            with pytest.raises(ValueError):
                exact_div(f * g + 1, g)


def test_ring_axioms_random():
    rng = random.Random(7)
    for _ in range(60):
        f, g, h = (_random_poly(rng) for _ in range(3))
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


def test_substitute_is_homomorphism():
    rng = random.Random(11)
    for _ in range(40):
        f, g = _random_poly(rng), _random_poly(rng)
        point = {v: rng.randint(-3, 3) for v in V}
        assert substitute(f * g, point) == substitute(f, point) * substitute(g, point)
        assert substitute(f + g, point) == substitute(f, point) + substitute(g, point)


def test_substitute_matches_term_sum():
    rng = random.Random(13)
    for _ in range(20):
        f = _random_poly(rng)
        point = {v: rng.randint(-3, 3) for v in V}
        vg = substitute(f, point).terms.get((0,) * len(V), 0)
        total = 0
        for mono, coeff in f.terms.items():
            term = coeff
            for e, v in zip(mono, V):
                term *= point[v] ** e
            total += term
        assert total == vg


def test_render():
    f = 2 * x(0) * x(1) - 4 * x(0) - x(1) + 2
    assert f.render() == "2*x0*x1 - 4*x0 - x1 + 2"
    assert Polynomial(ZZ, V, {}).render() == "0"
    assert power(x(0), 2).render() == "x0^2"


@pytest.mark.parametrize("ring", [ZZ, QQ])
def test_render_matches_reference(ring):
    # terms inserted in random order, Fraction coefficients over QQ, and
    # as many negative leading coefficients as positive ones
    rng = random.Random(23)
    W = make_vars(4)
    for _ in range(200):
        terms = {}
        for _ in range(rng.randint(0, 6)):
            mono = tuple(rng.randint(0, 3) for _ in W)
            c = rng.choice([-3, -1, 1, 2, 5])
            if ring == QQ:
                c = Fraction(c, rng.choice([1, 1, 2, 3, 7]))
            terms[mono] = c
        f = Polynomial(ring, W, terms)
        if not f.is_zero() and (f.leading()[1] > 0) != (rng.random() < 0.5):
            f = -f
        for p in (f, f * f - f, f + 1, -f):
            assert p.render() == render_reference(p)


@pytest.mark.parametrize("ring", [ZZ, QQ])
def test_render_matches_reference_on_graph_ideals(ring):
    # every generator and every reduced basis element of the ideals of
    # the connected graphs with n <= 5
    rendered = 0
    for g in enumerate_connected(5):
        m = generalized_distance_matrix(g)
        for i in range(1, g.n + 1):
            ideal = Ideal(ring, m.vars, minors(m, i))
            for p in ideal.gens + list(ideal.basis):
                assert p.render() == render_reference(p), (g.adj, i)
                rendered += 1
    assert rendered > 1000


def test_render_keeps_strings_per_registry():
    # the same exponent tuples over two registries of three names,
    # rendered in turn: each shows its own names
    abc = ("a", "b", "c")
    rng = random.Random(31)
    for _ in range(100):
        terms = {tuple(rng.randint(0, 2) for _ in V): rng.choice([-2, 1, 3])
                 for _ in range(rng.randint(1, 4))}
        for names in (V, abc, abc, V):
            p = Polynomial(ZZ, names, terms)
            assert p.render() == render_reference(p)
    assert Polynomial(ZZ, V, {(1, 0, 2): 1}).render() == "x0*x2^2"
    assert Polynomial(ZZ, abc, {(1, 0, 2): 1}).render() == "a*c^2"
    assert Polynomial(ZZ, V, {(1, 0, 2): 1}).render() == "x0*x2^2"


@pytest.mark.parametrize("ring", [ZZ, QQ])
@pytest.mark.parametrize("coeff", [0.1, 2.0, "1/3", None],
                         ids=["float", "integral-float", "str", "None"])
def test_rejects_non_exact_coefficients(ring, coeff):
    # a float would be read as its binary expansion, a string parsed
    with pytest.raises(TypeError):
        Polynomial(ring, V, {(1, 0, 0): coeff})
    with pytest.raises(TypeError):
        Polynomial.const(ring, V, coeff)


@pytest.mark.parametrize("ring", [ZZ, QQ])
@pytest.mark.parametrize("exponent", [-1, 1.5, 1.0, "1", None],
                         ids=["negative", "float", "integral-float", "str",
                              "None"])
def test_rejects_bad_exponents(ring, exponent):
    # a negative exponent rendered as the constant 1, a float as x0^1
    with pytest.raises(ValueError):
        Polynomial(ring, V, {(exponent, 0, 0): 2})


@pytest.mark.parametrize("ring", [ZZ, QQ])
@pytest.mark.parametrize("mono", [(1,), (1, 0, 0, 0), (-1, 0, 0), (1.0, 0, 0)],
                         ids=["short", "long", "negative", "float"])
def test_term_mul_rejects_bad_monomials(ring, mono):
    # a short monomial used to move the terms of x1 and x2 onto x0:
    # (x0 + 2*x1).term_mul((1,), 2) came out 2*x0^2 + 4*x0
    f = x(0, ring) + 2 * x(1, ring)
    with pytest.raises(ValueError):
        f.term_mul(mono, 2)
    assert f.term_mul((1, 0, 0), 2) == 2 * x(0, ring) * (x(0, ring)
                                                         + 2 * x(1, ring))


def test_zz_rejects_fractions():
    with pytest.raises((TypeError, ValueError)):
        Polynomial.const(ZZ, V, Fraction(1, 2))
    with pytest.raises(ValueError):
        x(0) * Fraction(1, 2)
