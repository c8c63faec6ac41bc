"""Groebner bases over QQ and strong Groebner bases over ZZ in grevlex,
computed by one Buchberger loop, and the Ideal that owns its reduced
basis and answers reduction, membership and triviality questions.
``Ideal.verify`` re-checks a basis B and returns a verdict: every
generator, S-polynomial and, over ZZ, gcd-polynomial reduces to zero,
so the ideal lies in (B) and B is a Groebner basis of (B).

Both rings run on integer polynomials with positive leading
coefficients and one reduction loop, ``_reduce``: Euclidean on the
coefficients over ZZ, fraction-free over QQ, where the working basis is
primitive.  Every QQ intermediate is a nonzero multiple of the monic one
a field engine would hold, so the pairs, their order and the reduced
bases are the same; each completed QQ basis is made monic once, and
public reduction over QQ divides its remainder once.  Completed bases
are interreduced and rendered deterministically.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import le, sub

from .poly import (QQ, ZZ, Polynomial, descending_key, mono_div,
                   mono_divides, mono_lcm, mono_mul, monomial_key,
                   subtract_term_multiple)


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


def _clear(p):
    """(d*p as an integer polynomial, d), d the least common denominator
    of p's coefficients; an integer polynomial comes back as itself."""
    if p.ring == ZZ:
        return p, 1
    d = lcm(*(c.denominator for c in p.terms.values()))
    return Polynomial._make(ZZ, p.vars, {
        m: c.numerator * (d // c.denominator) for m, c in p.terms.items()}), d


def _normalize(p, field):
    """p with a positive leading coefficient; over QQ (``field``) also
    divided by its content, so that it is primitive."""
    d = gcd(*p.terms.values()) if field else 1
    d = -d if p.leading()[1] < 0 else d
    return p if d == 1 else Polynomial._make(
        ZZ, p.vars, {m: c // d for m, c in p.terms.items()})


def _divisors(polys):
    """(lm, lc, term items) of each polynomial, as ``_reduce`` reads them."""
    return [p.leading() + (p.terms.items(),) for p in polys]


def _reduce(h, divisors, field):
    """Reduce the integer term dict h in place, its leading term c*m at
    the heap's top, by the first divisor g (lc g > 0) with lm g | m: over
    ZZ h -= (c // lc g)*x^s*g, where a zero quotient tries the next g;
    over QQ (``field``) h <- (lc g / d)*h - (c / d)*x^s*g, d = gcd(c, lc g).
    Returns the remainder and the multiplier of the normal form it is."""
    heap = [(descending_key(m), m) for m in h]
    heapq.heapify(heap)
    remainder = {}
    mult = 1
    while heap:
        m = heap[0][1]
        c = h.get(m)
        if c is None:
            heapq.heappop(heap)
            continue
        for gm, gc, gterms in divisors:
            if not all(map(le, gm, m)):  # mono_divides, inlined
                continue
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
            subtract_term_multiple(h, heap, q, tuple(map(sub, m, gm)),
                                   gterms)
            break
        else:
            remainder[m] = c
            del h[m]
            heapq.heappop(heap)
    return remainder, mult


def reduce_poly(f, basis):
    """Normal form of f against a sequence of polynomials, by the integer
    loop on cleared denominators; over QQ divided once at the end."""
    if f.is_zero():
        return f
    h, den = _clear(f)
    # a divisor with lc < 0 is used as -g: floor division by a negative
    # lc need not shrink the coefficient, and the reduction can cycle
    divisors = _divisors(_normalize(_clear(g)[0], False)
                         for g in basis if g.terms)
    field = f.ring == QQ
    remainder, mult = _reduce(dict(h.terms), divisors, field)
    if field:
        den *= mult
        remainder = {m: Fraction(c, den) for m, c in remainder.items()}
    return Polynomial._make(f.ring, f.vars, remainder)


def s_polynomial(f, g):
    """S-polynomial of integer polynomials, by the lcm of their lcs."""
    if f.is_zero() or g.is_zero():
        raise ValueError("S-polynomial of zero polynomial")
    fm, fc = f.leading()
    gm, gc = g.leading()
    L = mono_lcm(fm, gm)
    l = lcm(fc, gc)
    return (f.term_mul(mono_div(L, fm), l // fc)
            - g.term_mul(mono_div(L, gm), l // gc))


def gcd_polynomial(f, g):
    """Bezout combination with leading term gcd(lc f, lc g) * lcm(lm f, lm g)."""
    if f.ring != ZZ:
        raise ValueError("gcd-polynomials only apply over ZZ")
    if f.is_zero() or g.is_zero():
        raise ValueError("gcd-polynomial of zero polynomial")
    fm, fc = f.leading()
    gm, gc = g.leading()
    L = mono_lcm(fm, gm)
    _, s, t = _ext_gcd(fc, gc)
    return (f.term_mul(mono_div(L, fm), s)
            + g.term_mul(mono_div(L, gm), t))


def _unit_basis(ring, variables):
    return [Polynomial.const(ring, variables, 1)]


def _minimize_and_interreduce(polys, ring):
    """The reduced basis of the loop's polynomials, made monic over QQ."""
    if not polys:
        return []
    field = ring == QQ
    polys = sorted(polys, key=lambda p: (monomial_key(p.leading()[0]),
                                         p.leading()[1], p.sort_key()))
    kept = []
    for p in polys:
        pm, pc = p.leading()
        # over QQ a multiple of a leading monomial is enough
        if not any(mono_divides(qm, pm) and (field or pc % qc == 0)
                   for qm, qc in map(Polynomial.leading, kept)):
            kept.append(p)
    # one pass of tail reduction: the leading terms are fixed by now, so
    # a tail reduced against them stays reduced
    for i, p in enumerate(kept):
        pm, pc = p.leading()
        tail, mult = _reduce({m: c for m, c in p.terms.items() if m != pm},
                             _divisors(kept[:i] + kept[i + 1:]), field)
        tail[pm] = pc * mult
        kept[i] = _normalize(Polynomial._make(ZZ, p.vars, tail), field)
    kept.sort(key=lambda p: (monomial_key(p.leading()[0]),
                             p.sort_key()))
    if field:
        kept = [Polynomial._make(QQ, p.vars, {
            m: Fraction(c, p.leading()[1]) for m, c in p.terms.items()})
                for p in kept]
    return kept


def buchberger(gens, ring, variables):
    """Complete a generator list to a (strong, over ZZ) Groebner basis.
    Generators of a QQ ideal may be integer polynomials: they are
    converted only when none of them is a unit."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    field = ring == QQ
    # over QQ every nonzero constant is a unit
    is_unit = (Polynomial.is_constant if field
               else Polynomial.is_unit_constant)
    if any(map(is_unit, gens)):
        return _unit_basis(ring, variables)
    start = {_normalize(_clear(g)[0] if field else g.to_ring(ZZ), field)
             for g in gens}
    # over QQ in the order of the monic forms: every coefficient in the
    # sort key is scaled by scale / lc, the same for all, and stays integral
    scale = lcm(*(p.leading()[1] for p in start)) if field else 1
    start = sorted(start, key=lambda p: tuple(
        (k, c * scale // p.leading()[1] if field else c)
        for k, c in p.sort_key()))

    G = []
    divisors = []
    queue = []  # (monomial_key(lcm), counter, i, j, kind): lowest degree first
    counter = 0

    def push_pairs(idx):
        nonlocal counter
        gm, gc, _ = divisors[idx]
        for j in range(idx):
            hm, hc, _ = divisors[j]
            L = mono_lcm(gm, hm)
            key = monomial_key(L)
            # product criterion: skip when the leading monomials are
            # coprime, over ZZ only when the leading coefficients are too
            if L != mono_mul(gm, hm) or not (field or gcd(gc, hc) == 1):
                heapq.heappush(queue, (key, counter, j, idx, "s"))
                counter += 1
            if not field and gc % hc and hc % gc:
                heapq.heappush(queue, (key, counter, j, idx, "g"))
                counter += 1

    def candidates():
        # the queue grows while the loop below consumes this; the pair
        # functions are module globals, which wrappers may replace
        yield from start
        while queue:
            _, _, i, j, kind = heapq.heappop(queue)
            pair = s_polynomial if kind == "s" else gcd_polynomial
            yield pair(G[i], G[j])

    for p in candidates():
        h, _ = _reduce(dict(p.terms), divisors, field)
        if not h:
            continue
        h = Polynomial._make(ZZ, variables, h)
        if is_unit(h):
            return _unit_basis(ring, variables)
        h = _normalize(h, field)
        G.append(h)
        divisors += _divisors([h])
        push_pairs(len(G) - 1)

    return _minimize_and_interreduce(G, ring)


class Ideal:
    """The ideal of ring[vars] generated by ``gens``, which owns its
    reduced (strong, over ZZ) Groebner basis, computed on first use.
    The generators are kept as given: integer polynomials may generate
    a QQ ideal."""

    __slots__ = ("ring", "vars", "gens", "_basis")

    def __init__(self, ring, vars, gens):
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

    def reduce(self, f):
        return reduce_poly(f.to_ring(self.ring), self.basis)

    def contains(self, f):
        return self.reduce(f).is_zero()

    def is_trivial(self):
        # the reduced basis of the unit ideal is exactly (1)
        return self.basis == (Polynomial.const(self.ring, self.vars, 1),)

    def verify(self):
        """Whether every generator, S-polynomial and, over ZZ,
        gcd-polynomial of the cleared basis B reduces to zero against B.
        That shows the ideal lies in (B) and B is a (strong, over ZZ)
        Groebner basis of (B); it does not show that (B) lies in the
        ideal, so the unit basis passes for any ideal.  A basis element
        that is zero, over other variables or in the other ring fails."""
        if any(p.is_zero() or p.ring != self.ring or p.vars != self.vars
               for p in self.basis):
            return False
        polys = [_clear(p)[0] for p in self.basis]
        if any(p.leading()[1] <= 0 for p in polys):
            return False  # _reduce divides by positive leading coefficients
        field = self.ring == QQ
        pairs = (s_polynomial,) if field else (s_polynomial, gcd_polynomial)
        checks = chain((_clear(g)[0] for g in self.gens),
                       (pair(f, g) for i, f in enumerate(polys)
                        for g in polys[:i] for pair in pairs))
        divisors = _divisors(polys)
        return not any(_reduce(dict(h.terms), divisors, field)[0]
                       for h in checks)


def ideals_equal(a, b):
    if a.ring != b.ring or a.vars != b.vars:
        raise ValueError("ideals over different rings or registries")
    # reduced bases are unique, so equal ideals have equal bases
    return a.basis == b.basis
