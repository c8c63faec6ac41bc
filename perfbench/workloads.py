"""The benchmark's workloads.

Each builder takes the program's modules and a seed and returns the
items of one pass.  An item is a label, a ``run`` callable that is the
timed call into the program, and a ``check`` that verifies its output
afterwards, untimed, against reference data or an independent
invariant.  Inputs reach the program only as graph6 strings.

Why these three (numbers measured on the seed commit):

- corpus: what ``distideal classify`` does.  One enumerate_connected(7)
  call, then the three deciders over Z and over R on every n<=6 graph and
  a sample of the 853 seven-vertex graphs, then minimal_forbidden_ok for
  both rings.  Dominated by graph (enumeration, contains_induced) and by
  ideals.minors over Fractions; Groebner work is ~5%.
- chains: the full ``distideal ideals --format json`` report a user asks
  for, through cli.main in process: all 5-vertex graphs and a sample of
  6-vertex graphs, in both rings.  ~75-80% groebner.  7-vertex Z chains
  are left out: 3-24 s each at the seed commit.
- invariants: SNFs with transforms, gcds of minors, evaluation at an
  integer point and the characteristic polynomial of 6- and 7-vertex
  graphs.  The same minor-expansion idea over plain ints, bypassing
  groebner entirely.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction

import common
from tracer import parse_rendered

Item = namedtuple("Item", "label run check")

CORPUS_SAMPLE_7 = 200
CHAINS_SAMPLE_6 = 8
INVARIANTS_SAMPLE = {6: 40, 7: 80}
# nonzero, so that every item does the full minor expansion: a zero on
# the diagonal lets minors_gcd skip work
POINT_VALUES = (-4, -3, -2, -1, 1, 2, 3, 4)


def systematic_sample(rows, k, rnd=None):
    """k rows spread evenly over ``rows``, so every stratum of the
    ordering is represented in every sample: from a seeded offset, or
    without ``rnd`` the middle row of each stratum."""
    step = len(rows) / k
    offset = (rnd.random() if rnd else 0.5) * step
    return [rows[int(offset + j * step)] for j in range(k)]


def _expect(cond, message):
    if not cond:
        raise AssertionError(message)


# ---------------------------------------------------------------------------
# corpus

def build_corpus(mods, seed):
    rnd = random.Random(seed)
    rows = common.load_corpus()
    small = [r for r in rows if common.graph6_order(r[0]) <= 6]
    seven = [r for r in rows if common.graph6_order(r[0]) == 7]
    chosen = small + systematic_sample(seven, CORPUS_SAMPLE_7, rnd)
    rnd.shuffle(chosen)

    items = [Item("enumerate_connected(7)",
                  lambda: list(mods.graph.enumerate_connected(7)),
                  _check_enumeration(mods))]
    # one item classifies one graph over both rings: per-ring items would
    # put the median between the Z and R cost clusters, where it jumps
    for g6, verdict_z, verdict_r in chosen:
        items.append(Item("classify %s" % g6, _classify_run(mods, g6),
                          _classify_check(verdict_z, verdict_r)))
    for ring in ("Z", "R"):
        items.append(Item("minimal_forbidden_ok %s" % ring,
                          _minimal_run(mods, ring), _minimal_check))
    return items


def _check_enumeration(mods):
    def check(graphs, counts):
        sizes = [0] * len(common.CORPUS_COUNTS)
        for g in graphs:
            sizes[g.n - 1] += 1
        _expect(tuple(sizes) == common.CORPUS_COUNTS,
                "connected graph counts %s" % (sizes,))
        _expect(all(mods.graph.is_connected(g) for g in graphs),
                "enumeration yielded a disconnected graph")
    return check


def _classify_run(mods, g6):
    # the deciders are looked up on every call, so a traced run sees its
    # wrappers
    def run():
        g = mods.graph.parse_graph6(g6)
        return mods.classify.classify_Z(g), mods.classify.classify_R(g)
    return run


def _classify_check(verdict_z, verdict_r):
    def check(reports, counts):
        for report, expected in zip(reports, (verdict_z, verdict_r)):
            _expect(report.ideal_based == report.forbidden_based
                    == report.structural, "deciders disagree")
            _expect(report.ideal_based == expected,
                    "verdict differs from reference")
    return check


def _minimal_run(mods, ring):
    return lambda: mods.classify.minimal_forbidden_ok(ring)


def _minimal_check(ok, counts):
    _expect(ok is True, "forbidden patterns are not minimal")


# ---------------------------------------------------------------------------
# chains

def build_chains(mods, seed):
    rnd = random.Random(seed)
    golden = common.load_golden()
    graphs = sorted({g6 for g6, _ in golden})
    five = [g6 for g6 in graphs if common.graph6_order(g6) == 5]
    # the 6-vertex graphs are the middles of equal strata by how long
    # their reports took when the reference data was made, the same for
    # every seed: per-graph costs spread over 3x, and the p90 falls among
    # these few graphs, so a seeded sample moved it by 0.11 from seed to
    # seed.  The seed orders the items.
    six = sorted((g6 for g6 in graphs if common.graph6_order(g6) == 6),
                 key=lambda g6: (sum(golden[g6, r]["seed_ms"]
                                     for r in common.CHAIN_RINGS), g6))
    chosen = five + systematic_sample(six, CHAINS_SAMPLE_6)
    rnd.shuffle(chosen)
    phis = {}
    items = []
    # both rings of a graph run back to back, so Phi_Z <= Phi_Q is checked
    # on the program's own outputs
    for g6 in chosen:
        for ring in common.CHAIN_RINGS:
            items.append(Item("ideals %s %s" % (g6, ring),
                              _chain_run(mods, g6, ring),
                              _chain_check(golden[g6, ring], phis)))
    return items


def _chain_run(mods, g6, ring):
    return lambda: common.run_ideals_cli(mods.cli, g6, ring)


def _chain_check(entry, phis):
    g6, ring = entry["graph6"], entry["ring"]

    def check(value, counts):
        report, nbytes = value
        counts["cli.out_bytes"] += nbytes
        _expect(report["graph6"] == g6, "report is for another graph")
        _expect(common.report_digest(report) == entry["digest"],
                "reduced bases differ from reference")
        _expect(report["phi"] == entry["phi"], "phi differs from reference")
        phis[g6, ring] = report["phi"]
        if ring == "Q" and (g6, "Z") in phis:
            _expect(phis[g6, "Z"] <= report["phi"], "Phi_Z > Phi_Q")
    return check


# ---------------------------------------------------------------------------
# invariants

def build_invariants(mods, seed):
    rnd = random.Random(seed)
    rows = common.load_corpus()
    chosen = []
    for n, k in sorted(INVARIANTS_SAMPLE.items()):
        pool = [r[0] for r in rows if common.graph6_order(r[0]) == n]
        chosen += systematic_sample(pool, k, rnd)
    rnd.shuffle(chosen)
    items = []
    for g6 in chosen:
        n = common.graph6_order(g6)
        point = tuple(rnd.choice(POINT_VALUES) for _ in range(n))
        items.append(Item("invariants %s at %s" % (g6, point),
                          _invariants_run(mods, g6, point),
                          _invariants_check(mods, point)))
    return items


def _invariants_run(mods, g6, point):
    def run():
        g = mods.graph.parse_graph6(g6)
        n = g.n
        d = mods.snf.distance_snf(g, with_transforms=True)
        lap = mods.snf.distance_laplacian_snf(g, with_transforms=True)
        dm = mods.snf.distance_matrix(g)
        gcds = [mods.snf.minors_gcd(dm, i) for i in range(1, n + 1)]
        evals = [mods.ideals.evaluate_ideal(g, i, point)
                 for i in range(1, n + 1)]
        poly, roots = mods.ideals.char_poly_distance(g)
        return g, d, lap, gcds, evals, poly, roots
    return run


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def _diagonal_ok(snf_result, matrix):
    uav = _matmul(_matmul(snf_result.U, matrix), snf_result.V)
    n = len(matrix)
    return all(uav[r][c] == (snf_result.factors[r] if r == c else 0)
               for r in range(n) for c in range(n))


def _invariants_check(mods, point):
    def check(value, counts):
        g, d, lap, gcds, evals, poly, roots = value
        n = g.n
        dm = mods.snf.distance_matrix(g)
        _expect(all(gcds[i - 1] == d.delta(i) for i in range(1, n + 1)),
                "minors_gcd differs from SNF delta")
        _expect(_diagonal_ok(d, dm), "U*D*V is not diag(factors)")
        _expect(_diagonal_ok(lap, mods.snf.distance_laplacian_matrix(g)),
                "U*L*V is not diag(factors)")
        at_point = [[point[r] if r == c else dm[r][c] for c in range(n)]
                    for r in range(n)]
        snf_point = mods.snf.smith_normal_form(at_point)
        _expect(all(evals[i - 1] == snf_point.delta(i) for i in range(1, n + 1)),
                "evaluate_ideal differs from SNF delta at the point")
        terms = parse_rendered(poly.render())
        coeffs = {}
        for c, exps in terms:
            coeffs[exps.get("lam", 0)] = c
        _expect(coeffs.get(n) == 1 and coeffs.get(n - 1, 0) == 0,
                "char poly is not monic with zero trace term")
        _expect(abs(coeffs.get(0, 0)) == d.delta(n),
                "|charpoly(0)| differs from |det D|")
        for r in roots:
            _expect(sum(c * Fraction(r) ** e for e, c in coeffs.items()) == 0,
                    "integer root %d does not zero the char poly" % r)
    return check


BUILDERS = {
    "corpus": build_corpus,
    "chains": build_chains,
    "invariants": build_invariants,
}
