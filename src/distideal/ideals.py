"""Generalized distance matrices, exact symbolic determinants and
minors, the distance-ideal chain, integer-point evaluation, and the
distance characteristic polynomial.

D(G, X) is built one way, as a ``SymbolicMatrix`` that makes its one
integer minor memo, ``snf.LaplaceMemo``, when it is made.  Every reader
of minors (the symbolic minors and the constant minors of a certificate)
names a row and a column set by bitmasks, bit k for index k, and asks
that one memo.  Δ_i at a point is read off the Smith form by one
routine, ``_delta``, and Δ_i of D(G) off one Smith form per matrix,
``SymbolicMatrix.delta``.  The characteristic polynomial reads no
minors: an integer recurrence on D(G) gives it in O(n^4) steps.

Every distance-ideal verdict is read off a ``Step``, I_i for one index
i over ZZ or QQ, which does no work until it is read.  Its verdict
comes from ``certify`` when it finds a certificate that integer
arithmetic can ``check``, and from the Groebner basis of the i-minors
otherwise; the minors are expanded only when a caller reads the step's
ideal.  One walker, ``ideal_chain``, builds one symbolic matrix per
graph and one step per index, and ``trivial_count_phi`` (Φ) and
``ideal_report`` read their steps off one walk; ``distance_ideal``
builds its one step alone.  The chain I_1 ⊇ I_2 ⊇ ... ⊇ I_n makes the
trivial ideals a prefix of length Φ, so a report reads every verdict
off Φ: I_i is trivial exactly when i <= Φ, and only the steps 1..Φ + 1
are ever certified.

Φ keeps the trivial prefix its walks prove on the graph object, as
``Graph.ideal_bounds``, one count per ring, and a later walk starts
past it.  An ideal trivial over ZZ is trivial over QQ, so the ZZ
prefix counts over QQ too; the record holds these counts only, never
D(G) or a basis.  No function here bounds n: the n <= 8 bound belongs
to the CLI.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, islice
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

from . import snf
from .graph import MAX_N, all_pairs_distances, emit_graph6
from .groebner import Ideal, _ext_gcd
from .poly import QQ, ZZ, Polynomial, check_ring, make_vars


class SymbolicMatrix:
    """diag(vars) + const: an integer matrix with the variable vars[k]
    added to its k-th diagonal entry.  Every minor is read off the
    integer minors of ``const`` by ``det``, its one memo, which takes
    row and column sets as bitmasks.

    ``const`` is symmetric (a distance matrix, or one of the family
    matrices), so minor(C, R) = minor(R, C)."""

    __slots__ = ("vars", "const", "n", "det", "_monos", "_snf")

    def __init__(self, vars, const):
        self.vars, self.const, self.n = vars, const, len(const)
        self.det = snf.LaplaceMemo(const).det
        self._monos, self._snf = {}, None

    def delta(self, i):
        """Δ_i of ``const``, off its one Smith form, made on first call."""
        if self._snf is None:
            self._snf = snf.smith_normal_form(self.const)
        return self._snf.delta(i)

    def minor(self, rsub, csub):
        """Determinant of rows ``rsub`` and columns ``csub`` (sorted)."""
        R, C = _mask(rsub), _mask(csub)
        return self._polynomial(
            self._terms(R, C, (_parity(R) ^ _parity(C)) & R & C))

    def _terms(self, R, C, P):
        """The minor on row mask R and column mask C as (rank, coefficient)
        pairs, leading term first.

        It is multilinear in the variables x_k with k in both: the
        coefficient of x^S, the product over a set S of them, is the
        integer minor without the rows and columns S, negated when S
        holds an odd number of the indices marked in P, those whose
        positions in R and C sum to an odd number.  S = {} gives the
        constant term.  rank(S) = (|S| << n) - S grows with x^S in
        grevlex, since among squarefree monomials of one degree the
        larger is the one without the highest index where they differ."""
        det, n = self.det, self.n
        common = R & C
        terms = []
        S = common
        while True:
            d = det(R ^ S, C ^ S)
            if d:
                terms.append(((S.bit_count() << n) - S,
                              -d if (S & P).bit_count() & 1 else d))
            if not S:
                break
            S = (S - 1) & common
        terms.sort(reverse=True)
        return terms

    def _polynomial(self, terms):
        """The Polynomial of (rank, coefficient) pairs; x^S is recovered
        from its rank as -rank mod 2^n."""
        monos, n = self._monos, self.n
        full = (1 << n) - 1
        out = {}
        for rank, c in terms:
            S = -rank & full
            mono = monos.get(S)
            if mono is None:
                mono = monos[S] = tuple((S >> k) & 1 for k in range(n))
            out[mono] = c
        return Polynomial._make(ZZ, self.vars, out)

    @property
    def entries(self):
        """The matrix as rows of polynomial entries (its 1 x 1 minors)."""
        idx = range(self.n)
        return tuple(tuple(self.minor((r,), (c,)) for c in idx) for r in idx)


def _mask(indices):
    """The bitmask of a set of indices."""
    return sum(1 << k for k in indices)


def _indices(mask):
    """The sorted index tuple of a bitmask."""
    out = []
    while mask:
        b = mask & -mask
        mask ^= b
        out.append(b.bit_length() - 1)
    return tuple(out)


def _parity(mask):
    """The bits of ``mask`` at odd positions within it (0-based)."""
    return _mask(_indices(mask)[1::2])


def generalized_distance_matrix(g):
    """diag(x_0..x_{n-1}) + D(G) over ZZ."""
    return SymbolicMatrix(make_vars(g.n), all_pairs_distances(g))


def det_symbolic(matrix):
    idx = tuple(range(matrix.n))
    return matrix.minor(idx, idx)


def minors(matrix, i):
    """All nonzero i x i minors, deduplicated up to sign and sorted.

    The output compares minors term by term, leading term first: the
    smaller term first, by monomial in grevlex and then by coefficient,
    and a minor whose terms begin another's before it.  By symmetry
    each unordered pair of index sets is visited once.  A minor is kept
    as its (rank, coefficient) terms, leading term first and with a
    positive leading coefficient; those tuples sort in that order, so
    each kept minor becomes a Polynomial only once, in its place in the
    output.  The Groebner loop takes the minors in this order, constants
    first, so a unit minor ends it at once."""
    n = matrix.n
    snf.check_index(i, n)
    terms = matrix._terms
    masks = snf.subset_masks(n, i)
    parities = [_parity(R) for R in masks]
    seen = set()
    for a, R in enumerate(masks):
        pr = parities[a]
        for b in range(a, len(masks)):
            C = masks[b]
            t = terms(R, C, (pr ^ parities[b]) & R & C)
            if t:
                if t[0][1] < 0:
                    t = [(rank, -c) for rank, c in t]
                seen.add(tuple(t))
    return [matrix._polynomial(t) for t in sorted(seen)]


# ---------------------------------------------------------------------------
# distance ideals

class Step:
    """I_i of the distance-ideal chain of ``matrix`` over ``ring``, doing
    nothing until read: ``trivial`` runs ``certify`` once and caches the
    verdict, and the ideal of the i-minors is computed on first read.
    A ring other than ZZ or QQ raises ValueError."""

    __slots__ = ("matrix", "index", "ring", "_trivial", "_ideal")

    def __init__(self, matrix, index, ring):
        check_ring(ring)
        self.matrix, self.index, self.ring = matrix, index, ring
        self._trivial = self._ideal = None

    @property
    def ideal(self):
        # minors are integer polynomials, which buchberger takes as they
        # are in both rings
        if self._ideal is None:
            m = self.matrix
            self._ideal = Ideal(self.ring, m.vars, minors(m, self.index))
        return self._ideal

    @property
    def trivial(self):
        if self._trivial is None:
            cert = certify(self.matrix, self.index, self.ring)
            self._trivial = (self.ideal.is_trivial() if cert is None
                             else isinstance(cert, Bezout))
        return self._trivial


def ideal_chain(g, ring=ZZ):
    """The steps I_1, ..., I_n of g, all off one matrix and its minor
    memo, each built when the walk reaches it."""
    m = generalized_distance_matrix(g)
    return (Step(m, i, ring) for i in range(1, g.n + 1))


def _leading_trivial(steps):
    """How many steps lead the chain with trivial ideals.  Triviality is
    downward-closed along the chain, so this is Φ when steps is the
    whole chain, and it stops at the first nontrivial step."""
    count = 0
    for step in steps:
        if not step.trivial:
            break
        count += 1
    return count


def distance_ideal(g, i, ring=ZZ):
    snf.check_index(i, g.n)
    return Step(generalized_distance_matrix(g), i, ring)


def trivial_count_phi(g, ring=ZZ, max_i=None):
    """Largest i with trivial i-th distance ideal (0 if none); max_i
    caps the scan for callers that only need a threshold comparison.

    The walk starts past the trivial prefix already proved for this
    graph object, ``g.ideal_bounds``, and records the prefix it ends
    with.  Trivial over ZZ is trivial over QQ, so a ZZ prefix counts
    over QQ too.  A call whose cap that prefix reaches builds no
    matrix; so max_i=0 reads nothing of g and checks nothing, not even
    that g is connected."""
    if max_i is not None and not (type(max_i) is int and max_i >= 0):
        raise ValueError("max_i must be None or a nonnegative int")
    check_ring(ring)
    proved = g.ideal_bounds
    # the ZZ prefix counts in both rings
    lo = max(proved.get(ZZ, 0), proved.get(ring, 0))
    top = g.n if max_i is None else min(g.n, max_i)
    if lo < top:
        lo += _leading_trivial(islice(ideal_chain(g, ring), lo, top))
        proved[ring] = lo
    return min(lo, top)


# ---------------------------------------------------------------------------
# certificates: verdicts that integer arithmetic can check

class Bezout(NamedTuple):
    """I_i is trivial: 1 = sum of coeffs[j] * det D(G)[rows, cols] over
    pairs[j] = (rows, cols).  Rows and columns are disjoint i-sets, so
    the minor has no variable and is an integer in I_i.  The
    coefficients are integers over ZZ and may be Fractions over QQ."""
    pairs: tuple
    coeffs: tuple


class Point(NamedTuple):
    """I_i is nontrivial: every i-minor of D(G, a) is 0 mod p, so I_i
    lies in (p, x_0 - a_0, ..., x_{n-1} - a_{n-1}), proper for any p >= 2
    since ZZ[x]/(p, x - a) is ZZ/p; that settles ZZ only.  p = 0: they
    are exactly 0 at a rational point, which settles QQ too."""
    p: int
    a: tuple


def certify(m, i, ring=ZZ):
    """A ``Bezout`` or ``Point`` for I_i of m = diag(vars) + D(G), or
    None when neither cheap proof applies.

    Nontrivial for i >= 3 when d = Δ_i(D(G)) is 0, or over ZZ not 1:
    I_i at x = 0 lies in (d), so ``Point(d, (0,)*n)``.

    Trivial: over ZZ, the constant i-minors are scanned until their gcd
    is 1; over QQ one nonzero constant minor is enough.  Constant minors
    need n >= 2i.

    Nontrivial at i = 2 and n >= 3 by the rule of i >= 3 at one point:
    the scan leaves g_2, the gcd of the constant 2-minors, at 0 or, over
    ZZ only, at >= 2, and a is the one candidate point mod g_2 of
    ``_rank_one_point``.  With d = Δ_2(D(G, a)), the gcd of the 2-minors
    of D(G, a), it is ``Point(d, a)`` when d != 1:

    - g_2 != 0: the constant 2-minors of D(G, a) are those of D(G), so
      d divides g_2; it is not 0, and d != 1 makes it >= 2.
    - g_2 = 0: D(G, a) has rank <= 1, so d = 0 with no Smith form.  The
      constant minor on rows u, v and columns w, x is
      d_uw d_vx - d_ux d_vw = 0, so a_u = d_uv d_uw / d_vw is the same
      for every pair v, w (change one at a time); then every 2-minor
      vanishes: a_u d_vw - d_uv d_uw on rows u, v and columns u, w, and
      a_u a_v - d_uv^2 on rows and columns u, v (a_v off the pair u, w).
      Over QQ, where one nonzero constant minor is a Bezout, this is the
      only case that reaches the point."""
    if i >= 3:
        d = m.delta(i)
        if d == 0 or (d > 1 and ring == ZZ):
            return Point(d, (0,) * m.n)
    det = m.det
    pairs, coeffs, g = [], [], 0
    for R, C in _constant_pairs(m.n, i):
        d = det(R, C)
        if not d:
            continue
        if ring == QQ:
            return Bezout(((_indices(R), _indices(C)),), (Fraction(1, d),))
        h, s, t = _ext_gcd(g, d)
        if h != g:
            pairs.append((_indices(R), _indices(C)))
            coeffs = [s * c for c in coeffs] + [t]
            g = h
            if g == 1:
                return Bezout(tuple(pairs), tuple(coeffs))
    if i == 2 and m.n >= 3:
        a = _rank_one_point(m.const, g)
        d = _delta(m.const, a, 2) if g else 0
        if d != 1:
            return Point(d, a)
    return None


def check(cert, g, i, ring=ZZ):
    """Whether ``cert`` proves its verdict on I_i of g over ``ring``.

    The minors, or for a point their gcd Δ_i from the Smith form, are
    recomputed from D(G) with exact arithmetic, on a matrix of its own;
    neither the minor memo of ``certify`` nor the Groebner engine is
    used.  Only exact numbers count: the coefficients are ints over ZZ
    and ints or Fractions over QQ, p is 0 or, over ZZ only, an int >= 2
    (prime or not), and the coordinates of a point are ints for p > 0
    and ints or Fractions for p = 0; a bool is not an int here.  A
    certificate of any other shape, such as a list where a tuple belongs
    or a float or bool index, or a ring other than ZZ or QQ, gives
    False, never an exception."""
    n = g.n
    if not (type(i) is int and 1 <= i <= n and ring in (ZZ, QQ)):
        return False
    dm = all_pairs_distances(g)
    if isinstance(cert, Bezout):
        pairs, coeffs = cert
        exact = (int,) if ring == ZZ else (int, Fraction)
        if not (isinstance(pairs, tuple) and isinstance(coeffs, tuple)
                and len(pairs) == len(coeffs)
                and all(type(c) in exact for c in coeffs)):
            return False
        total, det = 0, snf.LaplaceMemo(dm).det
        for pair, c in zip(pairs, coeffs):
            if not (isinstance(pair, tuple) and len(pair) == 2
                    and all(_is_index_set(s, i, n) for s in pair)
                    and not set(pair[0]) & set(pair[1])):
                return False
            total += c * det(_mask(pair[0]), _mask(pair[1]))
        return total == 1
    if isinstance(cert, Point):
        p, a = cert
        if not (type(p) is int and isinstance(a, tuple) and len(a) == n):
            return False
        exact = (int,) if p else (int, Fraction)
        if not all(type(x) in exact for x in a):
            return False
        # a point mod p says nothing over QQ
        if p and (ring == QQ or p < 2):
            return False
        return _vanishes(dm, a, p, i)
    return False


# the bit of each vertex of a graph
_BITS = tuple(1 << k for k in range(MAX_N))


def _constant_pairs(n, i):
    """Each unordered pair of disjoint i-subsets of range(n), once, as
    row and column masks: the minor of a symmetric matrix does not change
    when they swap.  The subsets are tuples of bit values while they are
    compared, whose lex order is that of their index tuples, and the
    pairs come lazily, since the Bezout scan often stops early."""
    bits = _BITS[:n]
    for rs in combinations(bits, i):
        R = sum(rs)
        for cs in combinations([b for b in bits if not b & R], i):
            if rs < cs:
                yield R, sum(cs)


def _is_index_set(s, i, n):
    """Whether s is a tuple of i increasing ints in range(n)."""
    return (isinstance(s, tuple) and len(s) == i
            and all(type(v) is int for v in s)
            and s == tuple(sorted(set(s))) and all(0 <= v < n for v in s))


def _rank_one_point(dm, p):
    """a_u = d_uv * d_uw / d_vw mod p (p = 0: over QQ), off the first pair
    v < w, both other than u, with d_vw invertible, for the distance
    matrix dm of a connected graph on n >= 3 vertices and p the gcd g_2
    of its constant 2-minors.  Mod each prime of p it is the only point
    where D(G, a) can have rank <= 1.

    The pair exists for every u.  For p = 0 any pair will do, since
    distinct vertices are at distance >= 1.  For p != 0 an edge vw of
    G - u has d_vw = 1; and if every edge meets u, G is the star with
    centre u, whose constant 2-minors are all 0 (each is
    det [[2, 2], [2, 2]], or det [[1, 1], [2, 2]] up to order and
    transpose), so p = 0 there."""
    n = len(dm)
    a = []
    for u in range(n):
        others = [x for x in range(n) if x != u]
        v, w = next((v, w) for v, w in combinations(others, 2)
                    if not p or gcd(dm[v][w], p) == 1)
        num = dm[u][v] * dm[u][w]
        a.append(num * pow(dm[v][w], -1, p) % p if p
                 else Fraction(num, dm[v][w]))
    return tuple(a)


def _vanishes(dm, a, p, i):
    """Whether every i-minor of D(G, a) is 0 mod p (exactly 0 for p = 0),
    that is, whether p divides their gcd Δ_i.  Denominators are cleared
    by scaling the matrix by their lcm L, which scales every i-minor by
    L^i; L is 1 for p > 0."""
    L = lcm(*(x.denominator for x in a))
    dm = [[d * L for d in row] for row in dm]
    d = _delta(dm, [int(x * L) for x in a], i)
    return not (d % p if p else d)


def _delta(dm, a, i):
    """Δ_i of D(G) with the integers a on its diagonal: the gcd of its
    i-minors, the product of the first i invariant factors of its Smith
    normal form.  A non-integer entry raises TypeError."""
    n = len(dm)
    M = [[a[u] if u == v else dm[u][v] for v in range(n)] for u in range(n)]
    return snf.smith_normal_form(M).delta(i)


def evaluate_ideal(g, i, point):
    """gcd of all i-minors of D(G, point) as a nonnegative integer: the
    product of the first i invariant factors of its Smith normal form."""
    if len(point) != g.n:
        raise ValueError("evaluation point has wrong length")
    snf.check_index(i, g.n)
    return _delta(all_pairs_distances(g), point, i)


# ---------------------------------------------------------------------------
# distance characteristic polynomial

CHAR_VAR = "lam"


def char_poly_distance(g):
    """(monic char poly det(lam*I - D) of D(G) in lam, sorted integer
    roots).

    The coefficients c_k of lam^k come from the Faddeev-LeVerrier
    recurrence over the integers: M_1 = I, and for k = 1..n
    c_{n-k} = -tr(D M_k) / k and M_{k+1} = D M_k + c_{n-k} I.  The
    division is exact, since c_{n-k} is an integer.  Each M_k is a
    polynomial in D, so it is symmetric and its rows are its columns.

    Every eigenvalue of D lies within T, the largest row sum of D, of 0
    (Gershgorin), so the integer roots are the r in [-T, T] at which
    Horner's rule gives 0; 0 is one exactly when det D = 0."""
    dm = all_pairs_distances(g)
    n = len(dm)
    coeffs = [1]
    M = [[int(u == v) for v in range(n)] for u in range(n)]
    for k in range(1, n + 1):
        M = [[sum(map(mul, row, col)) for col in M] for row in dm]
        c = -sum(M[u][u] for u in range(n)) // k
        coeffs.append(c)
        for u in range(n):
            M[u][u] += c
    p = Polynomial._make(ZZ, (CHAR_VAR,), {(n - k,): c for k, c
                                           in enumerate(coeffs) if c})
    T = max(map(sum, dm))
    return p, [r for r in range(-T, T + 1) if _horner(coeffs, r) == 0]


def _horner(coeffs, r):
    """The polynomial with coefficients ``coeffs``, highest first, at r."""
    v = 0
    for c in coeffs:
        v = v * r + c
    return v


# ---------------------------------------------------------------------------
# reporting

def ideal_report(g, ring=ZZ, indices=None):
    """JSON-ready report of the distance ideals of a graph.

    One walk up the chain gives Φ, certifying steps 1..Φ + 1 and running
    Buchberger among them only where no certificate settles the verdict.
    Every record's verdict is read off Φ: the chain I_1 ⊇ I_2 ⊇ ...
    makes triviality downward-closed, so I_i is trivial exactly when
    i <= Φ.  A Groebner basis is then computed for each requested index,
    and a requested step above Φ + 1 is never certified.
    """
    indices = list(indices) if indices is not None else list(range(1, g.n + 1))
    for i in indices:
        snf.check_index(i, g.n)
    steps = list(ideal_chain(g, ring))
    phi = _leading_trivial(steps)
    records = [{
        "i": step.index,
        "generators": [p.render() for p in step.ideal.gens],
        "groebner_basis": [p.render() for p in step.ideal.basis],
        "trivial": step.index <= phi,
    } for step in (steps[i - 1] for i in indices)]
    return {
        "schema": "v1",
        "kind": "ideals",
        "graph6": emit_graph6(g),
        "ring": "Z" if ring == ZZ else "Q",
        "ideals": records,
        "phi": phi,
    }
