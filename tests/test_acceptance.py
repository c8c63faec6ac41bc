"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
pass/fail line (visible with `pytest -s` or in the captured output).
All arithmetic is exact; timing limits are asserted where stated.
"""

import random
import sys
import time
from itertools import combinations

import pytest

from distideal.classify import corpus_report
from distideal.families import verification_table
from distideal.graph import (build_graph, contains_induced,
                             enumerate_connected, family, is_connected)
from distideal.groebner import Ideal, ideals_equal
from distideal.ideals import (char_poly_distance, distance_ideal,
                              evaluate_ideal, trivial_count_phi)
from distideal.poly import QQ, ZZ, Polynomial
from distideal.snf import (distance_laplacian_matrix, distance_laplacian_snf,
                           distance_snf, minors_gcd, phi_unit_count,
                           smith_normal_form)
from graph_helpers import diameter
from ideal_helpers import contains
from poly_helpers import compose, power, substitute

CLAW = build_graph(4, [(0, 1), (0, 2), (0, 3)])
C4 = family("cycle", 4)


@pytest.fixture(scope="module", autouse=True)
def verified_bases():
    # criterion 10: every basis completed while this module runs is
    # verified (generators, S-polynomials and gcd-polynomials reduce to
    # zero); the rings of the verified bases are collected
    basis = Ideal.basis
    rings = []

    def checked(ideal):
        fresh = ideal._basis is None
        result = basis.fget(ideal)
        if fresh:
            assert ideal.verify(), "basis fails verification: %r" % (
                [g.render() for g in ideal.gens],)
            rings.append(ideal.ring)
        return result

    Ideal.basis = property(checked, doc=basis.__doc__)
    try:
        yield rings
    finally:
        Ideal.basis = basis


def _report(num, label, fn):
    start = time.monotonic()
    try:
        fn()
    except Exception:
        print("criterion %2d %-38s FAIL" % (num, label), file=sys.stderr)
        raise
    elapsed = time.monotonic() - start
    print("criterion %2d %-38s PASS (%.2fs)" % (num, label, elapsed))
    return elapsed


def _poly(variables, ring, spec):
    total = Polynomial(ring, variables, {})
    for coeff, monos in spec:
        term = Polynomial.const(ring, variables, coeff)
        for name, e in monos.items():
            term = term * power(Polynomial.variable(ring, variables, name), e)
        total = total + term
    return total


def test_criterion_01_claw_example():
    def body():
        v = tuple("x%d" % i for i in range(4))
        x0, x1, x2, x3 = (Polynomial.variable(ZZ, v, n) for n in v)
        one = Polynomial.const(ZZ, v, 1)
        golden = {
            1: [one],
            2: [2 * x0 - 1, x1 - 2, x2 - 2, x3 - 2],
            3: [2 * x0 * x1 - 4 * x0 - x1 + 2,
                2 * x0 * x2 - 4 * x0 - x2 + 2,
                2 * x0 * x3 - 4 * x0 - x3 + 2,
                x1 * x2 - 2 * x1 - 2 * x2 + 4,
                x1 * x3 - 2 * x1 - 2 * x3 + 4,
                x2 * x3 - 2 * x2 - 2 * x3 + 4],
            4: [x0 * x1 * x2 * x3 - 4 * x0 * x1 - 4 * x0 * x2 - 4 * x0 * x3
                + 16 * x0 - x1 * x2 - x1 * x3 + 4 * x1 - x2 * x3 + 4 * x2
                + 4 * x3 - 12],
        }
        for i, gens in golden.items():
            res = distance_ideal(CLAW, i, ZZ)
            assert ideals_equal(res.ideal, Ideal(ZZ, v, gens)), i
    elapsed = _report(1, "claw distance ideals", body)
    assert elapsed < 1.0


def test_criterion_02_c4_session():
    def body():
        v = tuple("x%d" % i for i in range(4))
        x0, x1, x2, x3 = (Polynomial.variable(ZZ, v, n) for n in v)
        one = Polynomial.const(ZZ, v, 1)
        three = Polynomial.const(ZZ, v, 3)
        golden = {
            1: [one],
            2: [x0 + 1, x1 + 1, x2 + 1, x3 + 1, three],
            3: [x0 * x1 - 2 * x0 - 2 * x1 + 4,
                2 * x0 * x2 - x0 - x2 - 4,
                x0 * x3 - 2 * x0 - 2 * x3 + 4,
                x1 * x2 - 2 * x1 - 2 * x2 + 4,
                2 * x1 * x3 - x1 - x3 - 4,
                x2 * x3 - 2 * x2 - 2 * x3 + 4],
            4: [x0 * x1 * x2 * x3 - x0 * x1 - 4 * x0 * x2 - x0 * x3 + 4 * x0
                - x1 * x2 - 4 * x1 * x3 + 4 * x1 - x2 * x3 + 4 * x2 + 4 * x3],
        }
        for i, gens in golden.items():
            res = distance_ideal(C4, i, ZZ)
            assert ideals_equal(res.ideal, Ideal(ZZ, v, gens)), i
        assert distance_ideal(C4, 2, QQ).trivial
        assert not distance_ideal(C4, 2, ZZ).trivial
    elapsed = _report(2, "4-cycle distance ideals", body)
    assert elapsed < 1.0


def test_criterion_03_k3_spectra():
    def body():
        p, roots = char_poly_distance(family("complete", 3))
        v = p.vars
        assert p == _poly(v, ZZ, [(1, {"lam": 3}), (-3, {"lam": 1}),
                                  (-2, {})])
        assert roots == [-1, 2]
        res = distance_ideal(family("complete", 3), 2, ZZ)
        for gen in res.ideal.gens:
            assert substitute(gen, {n: 1 for n in res.ideal.vars}).is_zero()
    _report(3, "triangle spectra and variety", body)


def test_criterion_04_snf_corollaries():
    def body():
        for n in range(2, 11):
            assert distance_snf(family("complete", n)).factors == \
                (1,) * (n - 1) + (n - 1,)
        for n in range(3, 11):
            assert distance_laplacian_snf(family("complete", n)).factors == \
                (1,) + (n,) * (n - 2) + (0,)
        for m in range(2, 9):
            assert distance_snf(family("star", m)).factors == \
                (1, 1) + (2,) * (m - 2) + (2 * m,)
    elapsed = _report(4, "Smith normal form corollaries", body)
    assert elapsed < 5.0


def test_criterion_05_family_theorems():
    def body():
        rows = verification_table()
        assert all(r["ok"] for r in rows)
        kinds = {(r["kind"], r["n"], r["m"]) for r in rows}
        assert all(("complete", n, 0) in kinds for n in range(2, 6))
        assert all(("star", 0, m) in kinds for m in range(2, 5))
        assert all(("mdiag", n, m) in kinds
                   for n in range(2, 5) for m in range(0, 4))
    elapsed = _report(5, "closed-form family theorems", body)
    assert elapsed < 120.0


def test_criterion_06_classification_corpus():
    def body():
        rz = corpus_report(6, "Z")
        assert rz.total == 143
        assert rz.disagreements == [] and rz.minimal_forbidden
        assert [rz.per_size[n]["passing"] for n in range(1, 7)] == \
            [1, 1, 2, 3, 3, 4]
        rr = corpus_report(6, "R")
        assert rr.disagreements == [] and rr.minimal_forbidden
        assert [rr.per_size[n]["passing"] for n in range(1, 7)] == \
            [1, 1, 2, 2, 2, 2]
    elapsed = _report(6, "classification over n<=6 corpus", body)
    assert elapsed < 600.0


def test_criterion_07_evaluation_property():
    def body():
        rng = random.Random(2024)
        for g in enumerate_connected(5):
            if g.n < 2:
                continue
            for _ in range(20):
                point = [rng.randint(-5, 5) for _ in range(g.n)]
                from distideal.graph import all_pairs_distances
                dm = all_pairs_distances(g)
                M = [[point[u] if u == v else dm[u][v]
                      for v in range(g.n)] for u in range(g.n)]
                factors = smith_normal_form(M).factors
                prod = 1
                for i, f in enumerate(factors, start=1):
                    if f == 0:
                        break
                    prod *= f
                    assert evaluate_ideal(g, i, point) == prod
    _report(7, "evaluation coherence (random diagonals)", body)


def test_criterion_08_monotonicity_suites():
    def body():
        corpus = [g for g in enumerate_connected(5) if g.n >= 2]

        def embed(p, big_vars, mapping):
            return compose(p, big_vars,
                           {sv: Polynomial.variable(p.ring, big_vars, bv)
                            for sv, bv in mapping.items()})

        for g in corpus:
            # chain I_{i+1} subseteq I_i
            chain = [distance_ideal(g, i, ZZ) for i in range(1, g.n + 1)]
            for lower, upper in zip(chain, chain[1:]):
                for gen in upper.ideal.gens:
                    assert contains(lower.ideal, gen)
            # Phi <= phi
            assert trivial_count_phi(g, ZZ) <= phi_unit_count(g)
            # P4 propagation
            if contains_induced(g, "P4"):
                assert distance_ideal(g, 2, ZZ).trivial
            # diameter-2 induced-subgraph containment
            if g.n < 3:
                continue
            big = distance_ideal(g, 2, ZZ)
            for size in range(2, g.n):
                for subset in combinations(range(g.n), size):
                    h = g.induced(subset)
                    if not is_connected(h) or diameter(h) > 2:
                        continue
                    small = distance_ideal(h, 2, ZZ)
                    mapping = {"x%d" % j: "x%d" % vtx
                               for j, vtx in enumerate(sorted(subset))}
                    for gen in small.ideal.gens:
                        assert contains(big.ideal, 
                            embed(gen, big.ideal.vars, mapping))
    _report(8, "monotonicity suites over n<=5 corpus", body)


def test_criterion_09_negative_control():
    def body():
        st = family("star", 2)
        res = distance_laplacian_snf(st)
        L = distance_laplacian_matrix(st)
        oracle = []
        prev = 1
        for i in range(1, 4):
            d = minors_gcd(L, i)
            oracle.append(0 if d == 0 else d // prev)
            prev = d or prev
        assert res.factors == tuple(oracle), \
            "elimination and gcd-of-minors oracle disagree"
        assert res.factors == (1, 5, 0)
        print("note: distance Laplacian of the 2-leaf star has invariant "
              "factors (1, 5, 0); the published closed form predicts "
              "I_2 + 2m(m-1) = (1, 1, 4), which matches neither independent "
              "computation here")
    _report(9, "negative control (documented discrepancy)", body)


def test_criterion_10_groebner_self_checks(verified_bases):
    def body():
        # the module fixture verifies every completed basis; complete
        # representative bases in both rings here, so that this criterion
        # checks some when it runs alone
        scenarios = [(CLAW, ZZ), (C4, ZZ), (C4, QQ),
                     (family("path", 4), ZZ),
                     (build_graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)]), ZZ)]
        for g, ring in scenarios:
            for i in range(1, g.n + 1):
                distance_ideal(g, i, ring).ideal.basis
        assert {ZZ, QQ} <= set(verified_bases)
    _report(10, "Groebner engine self-checks", body)
