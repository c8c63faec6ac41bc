import hashlib
import random
import time
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

from distideal import ideals as ideals_mod
from distideal.graph import (all_pairs_distances, build_graph,
                             enumerate_connected, family, is_connected)
from distideal.groebner import Ideal, ideals_equal
from distideal.ideals import (Bezout, Point, _vanishes, certify,
                              char_poly_distance, check, det_symbolic,
                              distance_ideal, evaluate_ideal,
                              generalized_distance_matrix, ideal_chain,
                              ideal_report, minors, trivial_count_phi)
from distideal.poly import QQ, ZZ, Polynomial, make_vars
from distideal.snf import minors_gcd, smith_normal_form
from graph_helpers import diameter, random_connected, random_prufer_tree
from ideal_helpers import contains
from poly_helpers import compose, power, sort_key, substitute
from reference_det import PolyMatrix, det_bareiss

CLAW = build_graph(4, [(0, 1), (0, 2), (0, 3)])  # center 0, as in the example


def _poly(variables, ring, spec):
    """spec: list of (coeff, {var: exp})"""
    total = Polynomial(ring, variables, {})
    for coeff, monos in spec:
        term = Polynomial.const(ring, variables, coeff)
        for name, e in monos.items():
            term = term * power(Polynomial.variable(ring, variables, name), e)
        total = total + term
    return total


def test_generalized_distance_matrix_claw():
    m = generalized_distance_matrix(CLAW)
    rendered = [[e.render() for e in row] for row in m.entries]
    assert rendered == [
        ["x0", "1", "1", "1"],
        ["1", "x1", "2", "2"],
        ["1", "2", "x2", "2"],
        ["1", "2", "2", "x3"],
    ]


def test_generalized_distance_matrix_k2():
    m = generalized_distance_matrix(family("complete", 2))
    assert [[e.render() for e in row] for row in m.entries] == \
        [["x0", "1"], ["1", "x1"]]


def test_generalized_distance_matrix_c4():
    m = generalized_distance_matrix(family("cycle", 4))
    assert [e.render() for e in m.entries[0]] == ["x0", "1", "2", "1"]


def test_det_k2():
    m = generalized_distance_matrix(family("complete", 2))
    v = m.vars
    expected = _poly(v, ZZ, [(1, {"x0": 1, "x1": 1}), (-1, {})])
    assert det_symbolic(m) == expected


def test_det_k3():
    m = generalized_distance_matrix(family("complete", 3))
    v = m.vars
    expected = _poly(v, ZZ, [(1, {"x0": 1, "x1": 1, "x2": 1}),
                             (-1, {"x0": 1}), (-1, {"x1": 1}),
                             (-1, {"x2": 1}), (2, {})])
    assert det_symbolic(m) == expected


def test_det_c4_singular_at_zero():
    m = generalized_distance_matrix(family("cycle", 4))
    d = det_symbolic(m)
    assert substitute(d, {v: 0 for v in m.vars}).is_zero()


def test_minors_k2():
    m = generalized_distance_matrix(family("complete", 2))
    out = minors(m, 2)
    assert out == [det_symbolic(m)]


def test_minors_claw_contains_unit():
    m = generalized_distance_matrix(CLAW)
    assert Polynomial.const(ZZ, m.vars, 1) in minors(m, 1)


def test_minor_p4_with_dominating_vertex():
    # P4 v1..v4 plus a vertex adjacent to v1 and v4: the mixed 2x2 minor
    # on rows {v2,v4}, cols {v1,v3} is -1
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (0, 4), (3, 4)])
    m = generalized_distance_matrix(g)
    assert m.minor((1, 3), (0, 2)) == Polynomial.const(ZZ, m.vars, -1)


def test_minors_range_guard():
    m = generalized_distance_matrix(family("cycle", 6))
    with pytest.raises(ValueError):
        minors(m, 0)
    assert minors(m, 5)
    # the n <= 8 bound belongs to the `ideals` command: the library takes
    # a 9-vertex graph as it is
    big = family("path", 9)
    assert minors(generalized_distance_matrix(big), 1)
    assert distance_ideal(big, 1).trivial
    assert ideal_report(big, ZZ, [1])["phi"] == 2


def test_claw_i2_golden():
    res = distance_ideal(CLAW, 2)
    v = res.ideal.vars
    expected = [
        _poly(v, ZZ, [(2, {"x0": 1}), (-1, {})]),
        _poly(v, ZZ, [(1, {"x1": 1}), (-2, {})]),
        _poly(v, ZZ, [(1, {"x2": 1}), (-2, {})]),
        _poly(v, ZZ, [(1, {"x3": 1}), (-2, {})]),
    ]
    assert ideals_equal(res.ideal, Ideal(ZZ, v, expected))
    assert not res.trivial


def test_c4_i2_golden():
    res = distance_ideal(family("cycle", 4), 2)
    v = res.ideal.vars
    expected = [_poly(v, ZZ, [(1, {name: 1}), (1, {})]) for name in v]
    expected.append(Polynomial.const(ZZ, v, 3))
    assert ideals_equal(res.ideal, Ideal(ZZ, v, expected))


def test_k3_i2_rational_golden():
    res = distance_ideal(family("complete", 3), 2, QQ)
    v = res.ideal.vars
    expected = [_poly(v, QQ, [(1, {name: 1}), (-1, {})]) for name in v]
    assert ideals_equal(res.ideal, Ideal(QQ, v, expected))


def test_phi_values():
    assert trivial_count_phi(family("path", 4), ZZ) == 2
    for m, n in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)]:
        assert trivial_count_phi(family("complete_bipartite", m, n), ZZ) == 1
    assert trivial_count_phi(family("cycle", 4), QQ) == 2


def test_phi_k1():
    g = build_graph(1, [])
    assert trivial_count_phi(g, ZZ) == 0


def test_phi_max_i_cap():
    g = family("path", 4)
    assert trivial_count_phi(g, ZZ, max_i=1) == 1
    assert trivial_count_phi(g, ZZ, max_i=2) == 2


@pytest.mark.parametrize("ring", [ZZ, QQ])
def test_phi_max_i_edges(ring):
    k1 = build_graph(1, [])
    for g in (family("path", 4), family("cycle", 4), k1):
        phi = trivial_count_phi(g, ring)
        assert trivial_count_phi(g, ring, max_i=0) == 0
        # a cap past n is no cap
        assert trivial_count_phi(g, ring, max_i=g.n + 3) == phi
        assert trivial_count_phi(g, ring, max_i=g.n) == phi
        with pytest.raises(ValueError):
            trivial_count_phi(g, ring, max_i=-1)
    assert trivial_count_phi(k1, ring, max_i=1) == 0


def test_evaluate_ideal_values():
    assert evaluate_ideal(family("complete", 3), 3, [0, 0, 0]) == 2
    assert evaluate_ideal(family("star", 3), 2, [0, 0, 0, 0]) == 1
    assert evaluate_ideal(family("cycle", 4), 4, [0, 0, 0, 0]) == 0


def test_evaluate_ideal_bad_point():
    with pytest.raises(ValueError):
        evaluate_ideal(family("complete", 3), 1, [0, 0])
    for i in (0, 4):
        with pytest.raises(ValueError):
            evaluate_ideal(family("complete", 3), i, [0, 0, 0])
    with pytest.raises(TypeError):
        evaluate_ideal(family("complete", 2), 2, [0.5, 0.5])


def _assert_evaluation_matches_minors_gcd(graphs, seed):
    """evaluate_ideal reads Δ_i off the Smith normal form; minors_gcd
    expands every i-minor, so it is an independent oracle."""
    rng = random.Random(seed)
    for g in graphs:
        dm = all_pairs_distances(g)
        points = [[0] * g.n]
        for _ in range(3):
            point = [rng.randint(-4, 4) for _ in range(g.n)]
            point[rng.randrange(g.n)] = 0
            points.append(point)
        for point in points:
            M = [[point[u] if u == v else dm[u][v] for v in range(g.n)]
                 for u in range(g.n)]
            for i in range(1, g.n + 1):
                assert evaluate_ideal(g, i, point) == minors_gcd(M, i), (
                    g.adj, point, i)


def test_evaluate_ideal_matches_minors_gcd():
    _assert_evaluation_matches_minors_gcd(enumerate_connected(5), 23)


@pytest.mark.slow
def test_evaluate_ideal_matches_minors_gcd_six_vertices():
    graphs = [g for g in enumerate_connected(6) if g.n == 6]
    assert len(graphs) == 112
    _assert_evaluation_matches_minors_gcd(graphs, 29)


def test_evaluation_coherence_random_points():
    rng = random.Random(17)
    for g in enumerate_connected(4):
        if g.n < 2:
            continue
        for _ in range(5):
            point = [rng.randint(-5, 5) for _ in range(g.n)]
            dm = all_pairs_distances(g)
            M = [[point[u] if u == v else dm[u][v] for v in range(g.n)]
                 for u in range(g.n)]
            factors = smith_normal_form(M).factors
            prod = 1
            for i, f in enumerate(factors, start=1):
                if f == 0:
                    break
                prod *= f
                assert evaluate_ideal(g, i, point) == prod


def test_char_poly_k3():
    p, roots = char_poly_distance(family("complete", 3))
    v = p.vars
    assert p == _poly(v, ZZ, [(1, {"lam": 3}), (-3, {"lam": 1}), (-2, {})])
    assert roots == [-1, 2]


def test_char_poly_k2():
    p, roots = char_poly_distance(family("complete", 2))
    assert p.render() == "lam^2 - 1"
    assert roots == [-1, 1]


def test_char_poly_c4():
    p, roots = char_poly_distance(family("cycle", 4))
    assert p.render() == "lam^4 - 12*lam^2 - 16*lam"
    assert roots == [-2, 0, 4]


def _identity_graph(spec):
    """A family graph, or ("random", n, seed, p) for a seeded
    ``random_connected`` graph (a tree for p = 0)."""
    if spec[0] == "random":
        return random_connected(random.Random(spec[2]), spec[1], spec[3])
    return family(*spec)


@pytest.mark.parametrize("spec", [
    ("path", 30), ("cycle", 30), ("complete", 30), ("star", 29),
    ("random", 30, 1, 0.0), ("random", 31, 2, 0.0), ("random", 30, 3, 0.2),
    pytest.param(("path", 62), marks=pytest.mark.slow),
    pytest.param(("cycle", 62), marks=pytest.mark.slow),
    pytest.param(("complete", 62), marks=pytest.mark.slow),
    pytest.param(("star", 61), marks=pytest.mark.slow),
    pytest.param(("random", 62, 4, 0.0), marks=pytest.mark.slow)],
    ids=lambda spec: "-".join(map(str, spec)))
def test_char_poly_identities_at_large_n(spec):
    g = _identity_graph(spec)
    n = g.n
    p, roots = char_poly_distance(g)
    coeff = {e: c for (e,), c in p.terms.items()}
    dm = all_pairs_distances(g)
    # monic, zero trace, and the sum of the principal 2-minors -d_uv^2
    assert max(coeff) == n and coeff[n] == 1
    assert n - 1 not in coeff
    assert coeff[n - 2] == -sum(dm[u][v] ** 2
                                for u in range(n) for v in range(u))
    assert all(sum(c * r ** e for e, c in coeff.items()) == 0 for r in roots)
    if sum(map(len, g.adj)) == 2 * (n - 1):
        # a tree; Graham-Pollak: det D(T) = (-1)^(n-1) (n-1) 2^(n-2)
        assert coeff[0] == -(n - 1) * 2 ** (n - 2)
    if spec[0] == "complete":
        assert roots == [-1, n - 1]
    if spec[0] == "star":
        assert roots == [-2]
    if spec[0] == "cycle":
        k = n // 2
        assert 0 in roots and k * k in roots


def test_distance_ideal_certifies_its_step_alone(monkeypatch):
    c6 = family("cycle", 6)
    chain = [step.trivial for step in ideal_chain(c6)]
    calls = []

    def counting(m, i, ring=ZZ):
        calls.append(i)
        return certify(m, i, ring)

    monkeypatch.setattr(ideals_mod, "certify", counting)
    step = distance_ideal(c6, 5)
    assert calls == []
    assert step.trivial == chain[4]
    assert step.trivial == chain[4]
    assert calls == [5]
    for g in enumerate_connected(4):
        steps = list(ideal_chain(g))
        for i in range(1, g.n + 1):
            assert distance_ideal(g, i).trivial == steps[i - 1].trivial


# ---------------------------------------------------------------------------
# monotonicity and chain invariants (small corpus; the full n<=5 sweep
# lives in the acceptance suite)

def _embed(p, sub_vars, big_vars, mapping):
    return compose(p, big_vars, {sv: Polynomial.variable(p.ring, big_vars, bv)
                                 for sv, bv in mapping.items()})


def test_chain_containment_small():
    for g in enumerate_connected(4):
        results = {i: distance_ideal(g, i, ZZ) for i in range(1, g.n + 1)}
        for i in range(1, g.n):
            for gen in results[i + 1].ideal.gens:
                assert contains(results[i].ideal, gen)


def test_diameter2_induced_monotone():
    for g in enumerate_connected(4):
        if g.n < 3:
            continue
        big = distance_ideal(g, 2, ZZ)
        big_vars = big.ideal.vars
        for size in range(2, g.n):
            for subset in combinations(range(g.n), size):
                h = g.induced(subset)
                if not is_connected(h) or diameter(h) > 2:
                    continue
                small = distance_ideal(h, 2, ZZ)
                mapping = {"x%d" % j: "x%d" % v
                           for j, v in enumerate(sorted(subset))}
                for gen in small.ideal.gens:
                    assert contains(big.ideal, _embed(gen, small.ideal.vars,
                                                     big_vars, mapping))


def test_distance_hereditary_monotone():
    for g in enumerate_connected(4):
        if g.n < 3:
            continue
        dm = all_pairs_distances(g)
        hereditary = True
        subs = []
        for size in range(2, g.n):
            for subset in combinations(range(g.n), size):
                h = g.induced(subset)
                if not is_connected(h):
                    continue
                hm = all_pairs_distances(h)
                order = sorted(subset)
                if any(hm[a][b] != dm[order[a]][order[b]]
                       for a in range(size) for b in range(size)):
                    hereditary = False
                subs.append((h, order))
        if not hereditary:
            continue
        big = distance_ideal(g, 2, ZZ)
        for h, order in subs:
            small = distance_ideal(h, 2, ZZ)
            mapping = {"x%d" % j: "x%d" % v for j, v in enumerate(order)}
            for gen in small.ideal.gens:
                assert contains(big.ideal, _embed(gen, small.ideal.vars,
                                                 big.ideal.vars, mapping))


def test_p4_propagation_small():
    from distideal.graph import contains_induced
    for g in enumerate_connected(5):
        if g.n >= 4 and contains_induced(g, "P4"):
            assert distance_ideal(g, 2, ZZ).trivial


def test_phi_le_unit_count_small():
    from distideal.snf import phi_unit_count
    for g in enumerate_connected(5):
        if g.n < 2:
            continue
        assert trivial_count_phi(g, ZZ) <= phi_unit_count(g)
        assert phi_unit_count(g) != 1


def test_ideal_report_shape():
    rep = ideal_report(family("cycle", 4))
    assert rep["phi"] == 1
    assert [r["trivial"] for r in rep["ideals"]] == [True, False, False, False]
    assert rep["graph6"]


# ---------------------------------------------------------------------------
# one pass per chain, and the shared minor engine against its references

def test_ideal_report_computes_each_index_once(monkeypatch):
    import distideal.ideals as ideals_mod
    asked = []
    real = ideals_mod.minors

    def counting(matrix, i, *args, **kwargs):
        asked.append(i)
        return real(matrix, i, *args, **kwargs)

    monkeypatch.setattr(ideals_mod, "minors", counting)
    for g in (family("cycle", 4), family("path", 5), family("star", 3)):
        for indices in (None, [2], [g.n]):
            asked.clear()
            ideal_report(g, ZZ, indices)
            assert asked and len(asked) == len(set(asked)), asked


def _groebner_ideal(g, i, ring):
    """I_i with its verdict from the Groebner basis alone, not from a
    certificate: the reference the walker's verdicts are checked
    against."""
    m = generalized_distance_matrix(g)
    return Ideal(ring, m.vars, minors(m, i))


@pytest.mark.parametrize("ring", [ZZ, QQ])
def test_ideal_report_matches_per_index_references(ring):
    for g in enumerate_connected(5):
        rep = ideal_report(g, ring)
        refs = [_groebner_ideal(g, i, ring) for i in range(1, g.n + 1)]
        verdicts = [ref.is_trivial() for ref in refs] + [False]
        assert rep["phi"] == verdicts.index(False) == \
            trivial_count_phi(g, ring)
        for rec, ref in zip(rep["ideals"], refs):
            assert rec["generators"] == [p.render() for p in ref.gens]
            assert rec["groebner_basis"] == [p.render() for p in ref.basis]
            assert rec["trivial"] == ref.is_trivial()


def test_walk_runs_buchberger_only_where_asked(monkeypatch):
    import distideal.groebner as groebner_mod
    calls = []
    real = groebner_mod.buchberger

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    c4 = family("cycle", 4)
    monkeypatch.setattr(groebner_mod, "buchberger", counting)
    # the record for I_1 needs its basis; certificates settle I_1 and
    # I_2, so Φ needs none
    rep = ideal_report(c4, ZZ, [1])
    assert len(calls) == 1 and rep["phi"] == 1

    def refuse(*args, **kwargs):
        raise AssertionError("buchberger called")

    monkeypatch.setattr(groebner_mod, "buchberger", refuse)
    assert distance_ideal(c4, 2, ZZ).trivial is False
    assert trivial_count_phi(c4, ZZ) == 1


@pytest.mark.parametrize("ring", [ZZ, QQ])
@pytest.mark.parametrize("orders", [(1, 2, 3, 4),
                                    pytest.param((5,), marks=pytest.mark.slow)])
def test_single_index_report_keeps_full_chain_phi(ring, orders):
    for g in enumerate_connected(max(orders)):
        if g.n not in orders:
            continue
        rep = ideal_report(g, ring)
        for k in range(1, g.n + 1):
            single = ideal_report(g, ring, [k])
            assert single["phi"] == rep["phi"]
            assert single["ideals"] == [rep["ideals"][k - 1]]


def test_rational_minors_are_integer_minors_converted():
    # the i-minors of D(G, X) with entries over QQ, by Bareiss over QQ,
    # are the integer minors converted
    for g in (family("cycle", 5), family("path", 5),
              family("complete_bipartite", 2, 3)):
        mz = generalized_distance_matrix(g)
        rows = [[e.to_ring(QQ) for e in row] for row in mz.entries]
        for i in range(1, g.n + 1):
            seen = set()
            for rsub in combinations(range(g.n), i):
                for csub in combinations(range(g.n), i):
                    d = det_bareiss(PolyMatrix(QQ, mz.vars, tuple(
                        tuple(rows[r][c] for c in csub) for r in rsub)))
                    if not d.is_zero():
                        seen.add(d if d.leading()[1] > 0 else -d)
            assert sorted(seen, key=sort_key) == \
                [p.to_ring(QQ) for p in minors(mz, i)]


# ---------------------------------------------------------------------------
# certificates against the Groebner verdicts

def _certificates(n_min, n_max, i_max, ring):
    """(g, i, certificate) for every certified index i <= i_max of the
    graphs with n_min <= n <= n_max."""
    for g in enumerate_connected(n_max):
        if g.n < n_min:
            continue
        m = generalized_distance_matrix(g)
        for i in range(1, min(i_max, g.n) + 1):
            cert = certify(m, i, ring)
            if cert is not None:
                yield g, i, cert


def _assert_certified_verdicts(n_min, n_max, i_max, ring):
    settled = set()
    for g, i, cert in _certificates(n_min, n_max, i_max, ring):
        assert check(cert, g, i, ring), (g, i, cert)
        assert isinstance(cert, Bezout) == \
            _groebner_ideal(g, i, ring).is_trivial(), (g, i, cert)
        settled.add((g, i))
    return settled


@pytest.mark.parametrize("ring", [ZZ, QQ])
def test_certified_verdicts_match_groebner(ring):
    settled = _assert_certified_verdicts(1, 6, 6, ring)
    # the two verdicts classify needs are settled for every graph with
    # n >= 3; I_2 of K2 is left to the Groebner basis
    for g in enumerate_connected(6):
        wanted = [i for i in (1, 2) if g.n >= 3 or (g.n == 2 and i == 1)]
        assert all((g, i) in settled for i in wanted), g


@pytest.mark.slow
@pytest.mark.parametrize("ring", [ZZ, QQ])
def test_certified_verdicts_match_groebner_seven_vertices(ring):
    _assert_certified_verdicts(7, 7, 3, ring)


def test_certificates_match_digest():
    # sha256 of the certificates certify gave for every graph with n <= 6,
    # every i and both rings, before its scan kept only masks and gcds
    digest = hashlib.sha256()
    count = 0
    for g in enumerate_connected(6):
        for ring in (ZZ, QQ):
            m = generalized_distance_matrix(g)
            for i in range(1, g.n + 1):
                digest.update(repr(certify(m, i, ring)).encode() + b"\n")
                count += 1
    assert count == 1620
    assert digest.hexdigest() == \
        "8c24f1ffe70f2fb9ec486f8fb6aac3848f49efe25c83c4e235ba34faea3cd564"


def test_certificate_examples():
    # over ZZ, I_2 of C4 is nontrivial at a point mod 3, over QQ trivial
    m = generalized_distance_matrix(family("cycle", 4))
    assert certify(m, 2, ZZ) == Point(3, (2, 2, 2, 2))
    assert certify(m, 2, QQ) == Bezout((((0, 1), (2, 3)),),
                                       (Fraction(1, 3),))
    # a rational point settles K3 in both rings
    m = generalized_distance_matrix(family("complete", 3))
    assert certify(m, 2, ZZ) == Point(0, (1, 1, 1))
    # I_2 of K2 has no constant minor, and the point rule needs n >= 3
    assert certify(generalized_distance_matrix(family("complete", 2)), 2) \
        is None


def _small_certificates(kind, ring):
    return [(g, i, c) for g, i, c in _certificates(4, 6, 3, ring)
            if isinstance(c, kind)]


@pytest.mark.parametrize("ring", [ZZ, QQ])
def test_check_rejects_changed_coefficient(ring):
    certs = _small_certificates(Bezout, ring)
    assert certs
    for g, i, cert in certs:
        coeffs = (cert.coeffs[0] + 1,) + cert.coeffs[1:]
        assert not check(Bezout(cert.pairs, coeffs), g, i, ring)
        # ZZ certificates need integer coefficients
        if ring == QQ and any(Fraction(c).denominator > 1
                              for c in cert.coeffs):
            assert not check(cert, g, i, ZZ)


def test_check_rejects_overlapping_index_sets():
    for g in enumerate_connected(5):
        if g.n < 2:
            continue
        cert = certify(generalized_distance_matrix(g), 1, ZZ)
        # the (u, u) entry of D(G) is 0, so the sum is still 1, but in
        # D(G, X) that 1-minor is x_u, not an integer
        for u in range(g.n):
            bad = Bezout(cert.pairs + (((u,), (u,)),), cert.coeffs + (7,))
            assert not check(bad, g, 1, ZZ)
    g = family("cycle", 4)
    cert = certify(generalized_distance_matrix(g), 2, QQ)
    (rsub, csub), = cert.pairs
    assert check(cert, g, 2, QQ)
    assert not check(Bezout(((rsub, (csub[0], rsub[0])),), cert.coeffs),
                     g, 2, QQ)
    assert not check(Bezout(((rsub, csub[:1]),), cert.coeffs), g, 2, QQ)
    # an index set holds ints, and a pair is two index sets
    k4 = family("complete", 4)
    assert not check(Bezout((((0.0,), (1,)),), (1,)), k4, 1, ZZ)
    assert not check(Bezout(((1, 2, 3),), (1,)), k4, 1, ZZ)


def _divides(p, d):
    """Whether p divides d, with p = 0 asking d = 0."""
    return d % p == 0 if p else d == 0


def _point_holds(g, i, p, a):
    """The oracle for a point, apart from check's Smith form: whether p
    divides the gcd of every i-minor of D(G, a), after a's denominators
    are cleared."""
    L = lcm(*(Fraction(x).denominator for x in a))
    dm = all_pairs_distances(g)
    return _divides(p, minors_gcd(
        [[int(a[u] * L) if u == v else dm[u][v] * L for v in range(g.n)]
         for u in range(g.n)], i))


@pytest.mark.parametrize("ring", [ZZ, QQ])
def test_check_rejects_shifted_point(ring):
    # a shifted point need not fail: a zero point at i >= 3 is not the
    # only point (K_{1,3} at i = 3, centre 0, also holds at (1, 0, 0, 0)
    # mod 2), so the oracle judges each mutant
    certs = _small_certificates(Point, ring)
    assert certs
    rejected = 0
    for g, i, cert in certs:
        for u in range(g.n):
            a = list(cert.a)
            a[u] = (a[u] + 1) % cert.p if cert.p else a[u] + 1
            holds = _point_holds(g, i, cert.p, a)
            assert check(Point(cert.p, tuple(a)), g, i, ring) == holds, \
                (g, i, cert, u)
            rejected += not holds
    assert rejected


def test_check_rejects_wrong_modulus():
    # a rational point with integer coordinates is a point mod every
    # modulus too, so only the points mod p >= 2 have a wrong modulus;
    # a divisor of p still holds (C4 at i = 3: 2 divides the 4 of
    # Point(4, 0)), so the oracle judges each
    certs = [(g, i, c) for g, i, c in _small_certificates(Point, ZZ) if c.p]
    assert certs
    rejected = 0
    for g, i, cert in certs:
        for q in (0, 2, 3, 4, 5, 7, 8, 9):
            if q != cert.p:
                holds = _point_holds(g, i, q, cert.a)
                assert check(Point(q, cert.a), g, i, ZZ) == holds, \
                    (g, i, cert, q)
                rejected += not holds
        # a modulus is 0 or at least 2, and a point mod p says nothing
        # over QQ
        for q in (1, -3, -cert.p):
            assert not check(Point(q, cert.a), g, i, ZZ), (g, cert, q)
        assert not check(cert, g, i, QQ)
    assert rejected


def test_point_modulus_table():
    # Δ_3(D(C4)) = 4 and det D(C4) = 0
    c4 = family("cycle", 4)
    zero = (0,) * 4
    m = generalized_distance_matrix(c4)
    assert m.delta(3) == 4 and m.delta(4) == 0
    assert certify(m, 3, ZZ) == Point(4, zero)
    assert certify(m, 3, QQ) is None
    for p, holds in ((4, True), (2, True), (8, False), (1, False),
                     (-4, False)):
        assert check(Point(p, zero), c4, 3, ZZ) == holds, p
    for p in (2, 4):
        assert not check(Point(p, zero), c4, 3, QQ), p
    for ring in (ZZ, QQ):
        assert certify(m, 4, ring) == Point(0, zero)
        assert check(Point(0, zero), c4, 4, ring)
        assert not check(Point(0, zero), c4, 3, ring)


def test_tree_points_from_the_smith_form():
    # the Smith form of D(T) is diag(1, 1, 2, ..., 2, 2(n - 1)) (Hou &
    # Woo), so Δ_3 = 2 and Δ_n = |det D(T)| = (n - 1) * 2^(n - 2)
    # (Graham-Pollak)
    rng = random.Random(29)
    for n in list(range(4, 13)) + [20, 40, 62]:
        t = random_prufer_tree(rng, n)
        zero = (0,) * n
        m = generalized_distance_matrix(t)
        assert certify(m, 3, ZZ) == Point(2, zero)
        cert = certify(m, n, ZZ)
        assert cert == Point((n - 1) * 2 ** (n - 2), zero)
        assert check(cert, t, n, ZZ)


def _assert_tree_phi_without_groebner(monkeypatch, sizes, seed):
    """Φ_ℤ = 2 for a seeded non-star tree of each size, every verdict
    certified: I_1 and I_2 by Bezout, I_3 by Point(2, 0)."""
    import distideal.groebner as groebner_mod

    def refuse(*args, **kwargs):
        raise AssertionError("buchberger called")

    monkeypatch.setattr(groebner_mod, "buchberger", refuse)
    rng = random.Random(seed)
    for n in sizes:
        t = random_prufer_tree(rng, n)
        while max(map(len, t.adj)) == n - 1:
            t = random_prufer_tree(rng, n)
        assert trivial_count_phi(t, ZZ) == 2, t


def test_tree_phi_without_groebner(monkeypatch):
    _assert_tree_phi_without_groebner(monkeypatch, range(10, 41), 30)


@pytest.mark.slow
def test_tree_phi_without_groebner_to_62(monkeypatch):
    _assert_tree_phi_without_groebner(monkeypatch, range(41, 63), 31)


def test_check_rejects_float_coefficient():
    # 1/3 * 3 rounds to 1.0 in floats, but 0.333...·3 is not 1
    g = family("path", 4)
    pair = ((0,), (3,))
    assert check(Bezout((pair,), (Fraction(1, 3),)), g, 1, QQ)
    assert not check(Bezout((pair,), (1 / 3,)), g, 1, QQ)


def test_check_rejects_float_coefficient_over_zz():
    g = family("complete", 4)
    pair = ((0,), (1,))
    assert check(Bezout((pair,), (1,)), g, 1, ZZ)
    assert not check(Bezout((pair,), (1.0,)), g, 1, ZZ)


@pytest.mark.parametrize("ring", [ZZ, QQ])
def test_check_rejects_string_coefficient(ring):
    g = family("complete", 4)
    assert not check(Bezout((((0,), (1,)),), ("1",)), g, 1, ring)
    # the pairs and the coefficients are tuples
    assert not check(Bezout(None, ()), g, 1, ring)


def test_check_rejects_non_exact_point():
    g = family("complete", 3)
    assert check(Point(0, (1, 1, 1)), g, 2, QQ)
    for a in (("1", "1", "1"), (1.0, 1.0, 1.0)):
        assert not check(Point(0, a), g, 2, QQ), a
        assert not check(Point(0, a), g, 2, ZZ), a
    # mod p only integer coordinates, and p itself an int
    c4 = family("cycle", 4)
    assert check(Point(3, (2, 2, 2, 2)), c4, 2, ZZ)
    assert not check(Point(3, (Fraction(2), 2, 2, 2)), c4, 2, ZZ)
    assert not check(Point(3.0, (2, 2, 2, 2)), c4, 2, ZZ)
    # the coordinates are a tuple, and the index an int
    assert not check(Point(0, None), g, 2, QQ)
    assert not check(Point(0, (1, 1, 1)), g, 1.5, QQ)
    assert not check(Point(2, 5), family("complete", 4), 2, ZZ)


def test_check_takes_a_huge_modulus_at_once():
    # a modulus costs one Smith form and one remainder, prime or not
    start = time.perf_counter()
    # D(K3, (1, 1, 1)) = J, whose 2-minors are all 0
    assert check(Point(2**61 - 1, (1, 1, 1)), family("complete", 3), 2, ZZ)
    assert not check(Point(1099511627791, (2, 2, 2, 2)),
                     family("cycle", 4), 2, ZZ)
    assert time.perf_counter() - start < 1


def test_report_certifies_only_the_steps_it_reads(monkeypatch):
    # K_n: I_1 is trivial and I_2 is not, so a report of I_1 reads steps
    # 1 and 2 only, and certifies no step above them
    calls = []

    def counting(m, i, ring=ZZ):
        calls.append(i)
        return certify(m, i, ring)

    monkeypatch.setattr(ideals_mod, "certify", counting)
    assert ideal_report(family("complete", 8), ZZ, [1])["phi"] == 1
    assert calls == [1, 2]


def test_report_of_a_large_complete_graph():
    # 20 vertices: the constant 2-minors are all 0, and nothing above
    # I_2 is certified
    assert ideal_report(family("complete", 20), ZZ, [1])["phi"] == 1


def test_vanishes_matches_minors_gcd():
    # _vanishes reads Δ_i off the Smith form; the oracle takes the gcd of
    # every i-minor by Laplace expansion
    rnd = random.Random(12)
    outcomes = set()
    for g in enumerate_connected(5):
        dm = all_pairs_distances(g)
        for _ in range(4):
            a = tuple(rnd.randint(-3, 3) for _ in range(g.n))
            M = [[a[u] if u == v else dm[u][v] for v in range(g.n)]
                 for u in range(g.n)]
            for p in (0, 2, 3, 5):
                for i in range(1, g.n + 1):
                    want = _divides(p, minors_gcd(M, i))
                    assert _vanishes(dm, a, p, i) == want, (g.adj, a, p, i)
                    outcomes.add(want)
    assert outcomes == {False, True}
