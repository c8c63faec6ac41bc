"""Groebner bases over QQ and strong Groebner bases over ZZ in grevlex,
computed by one Buchberger loop, and the Ideal that owns its reduced
basis and answers triviality questions.
``Ideal.verify`` re-checks a basis B and returns a verdict: every
generator and every pair of B that ``_pair_kinds`` keeps reduces to
zero, so the ideal lies in (B) and B is a Groebner basis of (B).

``_pair_kinds`` is the static pair rule: the product criterion, and no
gcd-pair when one leading coefficient divides the other.  The loop
skips more when it pops a pair of lcm L, before building it: an S-pair
by Buchberger's chain criterion (Gebauer & Moeller, J. Symbolic Comput.
6, 1988), a ZZ gcd-pair when another element's leading term divides
the pair's (Lichtblau, "Effective computation of strong Groebner bases
over Euclidean domains", 2012).  Both depend on the working basis and
the queue, so ``verify`` does not use them and checks a superset of
the pairs the loop reduces.

Both rings run on integer polynomials with positive leading
coefficients and one reduction loop, ``_reduce``: Euclidean on the
coefficients over ZZ, fraction-free over QQ, where the working basis is
primitive.  Every QQ intermediate is a nonzero multiple of the monic one
a field engine would hold, so for the same generator order the pairs,
their order and the reduced bases are the same; each completed QQ basis
is made monic once, and public reduction over QQ divides its remainder
once.  The loop takes its generators as given, in the caller's order,
and its own unit rule is the only one; each completed basis is
interreduced and sorted once, by leading monomial.

Between entry and exit a monomial is one int (Monagan & Pearce, "Sparse
polynomial division using a heap", J. Symbolic Comput. 46, 2011).  Each
exponent takes a B-bit field whose top bit is a guard, and the total
degree sits above them.  The int kept is the monomial's grevlex heap key
2*(m & LOW) - m = E - (degree << n*B), E the exponent fields: the
smaller key is the larger monomial, a product is an addition, and g
divides m iff (m - g) & GUARD == 0.  A polynomial is a dict from these
keys to integer coefficients; packing keeps a Polynomial's leading-first
order and unpacking expects it, so neither sorts.  The working basis
holds (lm, lc, term list) triples with the term list in descending
order.  B starts from the input's degree; a pair whose lcm reaches
degree 2^(B-1) restarts the run with fields twice as wide, since no
monomial of a reduction outgrows the degree of what it reduces.  Each
``_Fields`` remembers the monomials it has packed and the keys it has
unpacked; a restart builds new fields, so a key is never read under
another width, and each monomial is converted once per run.  The
divisor scan keeps the first-divisor rule and remembers, per monomial,
which basis elements divide it: one memo for the loop, and one for the
interreduction, where each tail is reduced against every kept element,
its own included.  That is safe because every tail term lies below the
element's leading monomial, which thus divides none of them, tail
reduction changes no leading monomial, and the memo reads only those.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .poly import QQ, ZZ, Polynomial, check_ring


def _ext_gcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


class _Widen(Exception):
    """A pair's lcm reached the degree bound of the field width."""


class _Fields:
    """The packing of an n-variable registry in B-bit fields: variable i
    in bits [i*B, (i+1)*B), the negated degree from bit n*B up."""

    __slots__ = ("bits", "shifts", "units", "top", "low", "guard", "ones",
                 "mask", "sum_at", "packed", "unpacked")

    def __init__(self, n, bits):
        self.bits = bits
        self.shifts = range(0, n * bits, bits)
        self.top = n * bits
        # the packed form of each variable
        self.units = [(1 << s) - (1 << self.top) for s in self.shifts]
        self.low = (1 << self.top) - 1
        self.ones = sum(1 << s for s in self.shifts)
        self.guard = self.ones << (bits - 1)
        self.mask = (1 << bits) - 1
        # E * ones holds the sum of E's fields in its field n - 1
        self.sum_at = max(self.top - bits, 0)
        # each monomial is converted once per instance, so once per run
        self.packed, self.unpacked = {}, {}

    def pack(self, mono):
        m = self.packed.get(mono)
        if m is None:
            m = self.packed[mono] = sum(map(mul, mono, self.units))
        return m

    def unpack(self, m):
        mono = self.unpacked.get(m)
        if mono is None:
            mask = self.mask
            mono = self.unpacked[m] = tuple(m >> s & mask
                                            for s in self.shifts)
        return mono

    def lcm(self, a, b):
        """The lcm of two packed monomials; _Widen once its degree
        reaches 2^(B-1), where a field could overflow."""
        low, guard = self.low, self.guard
        ea, eb = a & low, b & low
        # the guard bit of each field where a's exponent is at least b's,
        # spread over that field
        ge = ((ea | guard) - eb) & guard
        ge = (ge << 1) - (ge >> (self.bits - 1))
        e = (ea & ge) | (eb & ~ge)
        degree = (e * self.ones) >> self.sum_at & self.mask
        if degree >> (self.bits - 1):
            raise _Widen
        return e - (degree << self.top)


def _width(polys):
    """The field width B for these polynomials: 2^(B-1) exceeds their
    degree, that of each one's leading term in grevlex."""
    degree = max((sum(next(iter(p.terms))) for p in polys if p.terms),
                 default=0)
    return max(8, degree.bit_length() + 1)


def _widening(run, n, polys):
    """run(fields) on fields wide enough for ``polys``, restarted on
    fields twice as wide whenever it raises _Widen."""
    bits = _width(polys)
    while True:
        try:
            return run(_Fields(n, bits))
        except _Widen:
            bits *= 2


def _clear(p):
    """(d*p as an integer polynomial, d), d the least common denominator
    of p's coefficients; an integer polynomial comes back as itself."""
    if p.ring == ZZ:
        return p, 1
    d = lcm(*(c.denominator for c in p.terms.values()))
    return Polynomial._make(ZZ, p.vars, {
        m: c.numerator * (d // c.denominator) for m, c in p.terms.items()}), d


def _pack(p, fields):
    """The packed term dict of an integer polynomial, leading term first
    as in p: packing maps descending grevlex to ascending keys."""
    pack = fields.pack
    return {pack(m): c for m, c in p.terms.items()}


def _unpack(terms, fields, ring, variables, den=1):
    """The Polynomial of packed (m, c) pairs in ascending key order, so
    leading term first; over QQ each c is divided by den."""
    unpack = fields.unpack
    if ring == QQ:
        return Polynomial._make(QQ, variables, {
            unpack(m): Fraction(c, den) for m, c in terms})
    return Polynomial._make(ring, variables,
                            {unpack(m): c for m, c in terms})


def _triple(h):
    """The working basis triple (lm, lc, term list) of a nonzero packed
    dict h, leading term first."""
    lm = next(iter(h))
    return lm, h[lm], list(h.items())


def _normalize(h, field):
    """The triple of h with a positive leading coefficient; over QQ
    (``field``) also divided by its content, so that it is primitive."""
    d = gcd(*h.values()) if field else 1
    d = -d if h[next(iter(h))] < 0 else d
    return _triple(h if d == 1 else {m: c // d for m, c in h.items()})


def _dividing(m, divisors, guard, found):
    """The indices, ascending, of the divisors whose lm divides m.
    ``found`` maps each m asked to (k, the indices among the first k),
    so each divisibility test runs once; a caller that shares it between
    calls may only append to ``divisors`` in between."""
    seen, hits = found.get(m, (0, ()))
    k = len(divisors)
    if seen < k:
        hits += tuple(i for i in range(seen, k)
                      if not (m - divisors[i][0]) & guard)
        found[m] = k, hits
    return hits


def _reduce(h, divisors, field, guard, found):
    """Reduce the packed term dict h in place, its leading term c*m at
    the heap's top, by the first divisor g (lc g > 0) with lm g | m: over
    ZZ h -= (c // lc g)*x^s*g, where a zero quotient tries the next g;
    over QQ (``field``) h <- (lc g / d)*h - (c / d)*x^s*g, d = gcd(c, lc g).
    Returns the remainder, leading term first, and the multiplier of the
    normal form it is.  ``found`` is the memo of ``_dividing``."""
    heap = list(h)
    heapq.heapify(heap)
    heappush, heappop = heapq.heappush, heapq.heappop
    k = len(divisors)
    remainder = {}
    mult = 1
    while heap:
        m = heap[0]
        c = h.get(m)
        if c is None:
            heappop(heap)
            continue
        seen, hits = found.get(m, (0, ()))
        if seen < k:
            hits = _dividing(m, divisors, guard, found)
        for gm, gc, gterms in map(divisors.__getitem__, hits):
            if field:
                d = gcd(c, gc)
                q, a = c // d, gc // d
                if a != 1:
                    mult *= a
                    for part in h, remainder:
                        for t in part:
                            part[t] *= a
            elif not (q := c // gc):
                continue
            s = m - gm
            for t, tc in gterms:
                t += s
                v = h.get(t)
                if v is None:
                    h[t] = -q * tc
                    heappush(heap, t)
                else:
                    v -= q * tc
                    if v:
                        h[t] = v
                    else:
                        del h[t]
            break
        else:
            remainder[m] = c
            del h[m]
            heappop(heap)
    return remainder, mult


def _pair_kinds(f, g, L, field):
    """The pairs of working basis triples f and g, with lcm L of their
    leading monomials, that can fail to reduce to zero: the S-pair ("s")
    unless the product criterion skips it (coprime leading monomials,
    over ZZ only when the leading coefficients are coprime too), and over
    ZZ the gcd-pair ("g") unless one leading coefficient divides the
    other."""
    fc, gc = f[1], g[1]
    if L != f[0] + g[0] or not (field or gcd(fc, gc) == 1):
        yield "s"
    if not field and fc % gc and gc % fc:
        yield "g"


def _pair(f, g, L, kind):
    """a*x^(L - lm f)*f + b*x^(L - lm g)*g for working basis triples f and
    g with lcm L of their leading monomials: the S-polynomial (kind "s",
    a*lc f = -b*lc g = lcm(lc f, lc g)) or the gcd-polynomial (kind "g",
    a*lc f + b*lc g = gcd(lc f, lc g)), as a packed term dict."""
    fm, fc, fterms = f
    gm, gc, gterms = g
    if kind == "s":
        l = lcm(fc, gc)
        a, b = l // fc, -(l // gc)
    else:
        _, a, b = _ext_gcd(fc, gc)
    s = L - fm
    h = {t + s: a * c for t, c in fterms} if a else {}
    s = L - gm
    for t, c in gterms:
        t += s
        c = h.get(t, 0) + b * c
        if c:
            h[t] = c
        else:
            h.pop(t, None)
    return h


def reduce_poly(f, basis):
    """Normal form of f against a sequence of polynomials over f's
    registry (ValueError otherwise), by the integer loop on cleared
    denominators; over QQ divided once at the end."""
    if any(g.vars != f.vars for g in basis):
        raise ValueError("variable registry mismatch")
    if f.is_zero():
        return f
    h, den = _clear(f)
    basis = [_clear(g)[0] for g in basis if g.terms]
    fields = _Fields(len(f.vars), _width([h] + basis))
    # a divisor with lc < 0 is used as -g: floor division by a negative
    # lc need not shrink the coefficient, and the reduction can cycle
    divisors = [_normalize(_pack(g, fields), False) for g in basis]
    remainder, mult = _reduce(_pack(h, fields), divisors, f.ring == QQ,
                              fields.guard, {})
    return _unpack(remainder.items(), fields, f.ring, f.vars, den * mult)


def _pair_polynomial(kind, f, g):
    """The pair polynomial of kind "s" or "g" of two Polynomials, through
    the packed pair routine on cleared denominators."""
    if f.is_zero() or g.is_zero():
        raise ValueError("pair polynomial of zero polynomial")
    f._check(g)
    ring, variables = f.ring, f.vars
    f, g = _clear(f)[0], _clear(g)[0]
    # one more bit holds the lcm, of at most the sum of the two degrees
    fields = _Fields(len(variables), _width([f, g]) + 1)
    a, b = (_triple(_pack(p, fields)) for p in (f, g))
    h = _pair(a, b, fields.lcm(a[0], b[0]), kind)
    # _pair appends g's new terms after f's, so its dict is unordered.
    # Over QQ h is l times the S-polynomial, l the lcm of the cleared
    # leading coefficients, and _unpack divides by it (over ZZ it reads
    # no denominator)
    return _unpack(sorted(h.items()), fields, ring, variables,
                   lcm(a[1], b[1]))


def s_polynomial(f, g):
    """S-polynomial: over ZZ by the lcm of the leading coefficients, over
    QQ x^(L - lm f)*f/lc f - x^(L - lm g)*g/lc g, L = lcm(lm f, lm g)."""
    return _pair_polynomial("s", f, g)


def gcd_polynomial(f, g):
    """Bezout combination with leading term gcd(lc f, lc g) * lcm(lm f, lm g)."""
    if f.ring != ZZ:
        raise ValueError("gcd-polynomials only apply over ZZ")
    return _pair_polynomial("g", f, g)


def _minimize_and_interreduce(G, fields, ring, variables):
    """The reduced basis of the loop's working basis triples, unpacked,
    made monic over QQ and sorted by leading monomial, smallest first.

    One sort serves: no two triples of G share (lm, lc), since each was
    reduced against those before it; the kept ones have distinct leading
    monomials, and tail reduction leaves them as they are."""
    field = ring == QQ
    guard = fields.guard
    kept = []
    for p in sorted(G, key=lambda p: (-p[0], p[1])):
        pm, pc, _ = p
        # over QQ a multiple of a leading monomial is enough
        if not any(not (pm - qm) & guard and (field or pc % qc == 0)
                   for qm, qc, _ in kept):
            kept.append(p)
    # one pass of tail reduction: the leading terms are fixed by now, so
    # a tail reduced against them stays reduced.  lm p divides no term
    # of p's tail, so every tail meets all of kept, with one memo
    found = {}
    for i, (pm, pc, terms) in enumerate(kept):
        tail, mult = _reduce(dict(terms[1:]), kept, field, guard, found)
        h = {pm: pc * mult}
        h.update(tail)
        kept[i] = _normalize(h, field)
    return [_unpack(terms, fields, ring, variables, pc)
            for _, pc, terms in kept]


def _complete(start, fields, field):
    """The loop: the working basis that completes the packed term dicts
    of ``start``, an iterable read lazily in the caller's order, or None
    at a unit: a remainder of degree 0, over ZZ with coefficient +-1.

    A popped pair (i, j) of lcm L is skipped, unbuilt, when some other
    element k has lm k | L and
    - for an S-pair, over ZZ lc k | lcm(lc i, lc j), and neither S-pair
      (i, k) nor (j, k) is still queued: Buchberger's chain criterion.
      Then S_ij = (T_ij/T_ik)*S_ik - (T_ij/T_jk)*S_jk, T the lcm of two
      leading terms, and both pairs on the right were settled earlier;
    - for a gcd-pair, lc k | gcd(lc i, lc j): k's leading term already
      divides the pair's, which is all a strong basis asks of it."""
    guard, lcm_of = fields.guard, fields.lcm
    found = {}
    G = []
    queue = []  # (-lcm, counter, i, j, kind): lowest lcm first
    queued = set()  # the S-pairs (i, j), i < j, still in the queue
    counter = 0

    def redundant(i, j, L, kind):
        if kind == "s":
            queued.discard((i, j))
        # over QQ the leading coefficients do not matter
        c = (lcm if kind == "s" else gcd)(G[i][1], G[j][1])
        for k in _dividing(L, G, guard, found):
            if k == i or k == j or not field and c % G[k][1]:
                continue
            if kind == "g" or ((min(i, k), max(i, k)) not in queued
                               and (min(j, k), max(j, k)) not in queued):
                return True
        return False

    def candidates():
        # the queue grows while the loop below consumes this; _pair is
        # a module global, which wrappers may replace
        yield from start
        while queue:
            L, _, i, j, kind = heapq.heappop(queue)
            if not redundant(i, j, -L, kind):
                yield _pair(G[i], G[j], -L, kind)

    for h in candidates():
        h, _ = _reduce(h, G, field, guard, found)
        if not h:
            continue
        lm = next(iter(h))
        if lm == 0 and (field or abs(h[lm]) == 1):
            return None
        f = _normalize(h, field)
        for j, g in enumerate(G):
            L = lcm_of(g[0], f[0])
            for kind in _pair_kinds(g, f, L, field):
                heapq.heappush(queue, (-L, counter, j, len(G), kind))
                counter += 1
                if kind == "s":
                    queued.add((j, len(G)))
        G.append(f)
    return G


def buchberger(gens, ring, variables):
    """Complete a generator list to a (strong, over ZZ) Groebner basis.
    The loop takes the generators in the order given, packing each one
    only when it reaches it, so a unit at the front ends the run early;
    it normalizes what it keeps, and a duplicate reduces to zero.
    Generators of a QQ ideal may be integer polynomials."""
    field = ring == QQ
    gens = [_clear(g)[0] if field else g.to_ring(ZZ) for g in gens]

    def run(fields):
        G = _complete((_pack(g, fields) for g in gens), fields, field)
        if G is None:
            return [Polynomial.const(ring, variables, 1)]
        return _minimize_and_interreduce(G, fields, ring, variables)

    return _widening(run, len(variables), gens)


class Ideal:
    """The ideal of ring[vars] generated by ``gens``, which owns its
    reduced (strong, over ZZ) Groebner basis, computed on first use.
    The generators are kept as given: integer polynomials may generate
    a QQ ideal.  A ring other than ZZ or QQ raises ValueError."""

    __slots__ = ("ring", "vars", "gens", "_basis")

    def __init__(self, ring, vars, gens):
        check_ring(ring)
        self.ring = ring
        self.vars = tuple(vars)
        if any(g.vars != self.vars for g in gens):
            raise ValueError("generator over wrong registry")
        self.gens = [g for g in gens if not g.is_zero()]
        self._basis = None

    @property
    def basis(self):
        """The reduced Groebner basis as a tuple, sorted by leading term."""
        if self._basis is None:
            self._basis = tuple(buchberger(self.gens, self.ring, self.vars))
        return self._basis

    def is_trivial(self):
        # the reduced basis of the unit ideal is exactly (1)
        return self.basis == (Polynomial.const(self.ring, self.vars, 1),)

    def verify(self):
        """Whether every generator, and every S-polynomial and, over ZZ,
        gcd-polynomial of the cleared basis B that the loop's pair rule
        keeps, reduces to zero against B.  That shows the ideal lies in
        (B) and B is a (strong, over ZZ) Groebner basis of (B); it does
        not show that (B) lies in the ideal, so the unit basis passes for
        any ideal.  A basis element that is zero, over other variables or
        in the other ring fails."""
        if any(p.is_zero() or p.ring != self.ring or p.vars != self.vars
               for p in self.basis):
            return False
        polys = [_clear(p)[0] for p in self.basis]
        if any(p.leading()[1] <= 0 for p in polys):
            return False  # _reduce divides by positive leading coefficients
        gens = [_clear(g)[0] for g in self.gens]
        field = self.ring == QQ

        def run(fields):
            divisors = [_triple(_pack(p, fields)) for p in polys]

            def checks():
                for g in gens:
                    yield _pack(g, fields)
                for i, f in enumerate(divisors):
                    for g in divisors[:i]:
                        L = fields.lcm(f[0], g[0])
                        for kind in _pair_kinds(f, g, L, field):
                            yield _pair(f, g, L, kind)

            found = {}
            return not any(
                _reduce(h, divisors, field, fields.guard, found)[0]
                for h in checks())

        return _widening(run, len(self.vars), polys + gens)


def ideals_equal(a, b):
    if a.ring != b.ring or a.vars != b.vars:
        raise ValueError("ideals over different rings or registries")
    # reduced bases are unique, so equal ideals have equal bases
    return a.basis == b.basis
