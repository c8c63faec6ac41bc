"""Groebner bases over QQ and strong Groebner bases over ZZ in grevlex,
computed by one Buchberger loop, and the Ideal that owns its reduced
basis and answers reduction, membership and triviality questions.

The ring decides only the coefficient rules: normalization, the
reduction quotient and the S- and gcd-polynomials.  Over ZZ, reduction
is Euclidean on coefficients: a term c*m is reduced by g whenever
lm(g) | m and c has a nonzero quotient by lc(g).  A divisor with a
negative leading coefficient is used as -g, so the coefficient
remainder stays in [0, |lc(g)|).  Completed bases are interreduced and
rendered deterministically.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from math import gcd
from operator import le, sub

from .poly import (QQ, ZZ, Polynomial, descending_key, mono_div,
                   mono_divides, mono_lcm, mono_mul, monomial_key,
                   subtract_term_multiple)

# When enabled, every completed basis is verified on the spot (all
# S- and gcd-polynomials reduce to zero, generators reduce to zero).
SELF_CHECK = False


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


def _sign_normalize(p):
    _, lc = p.leading()
    if (p.ring == ZZ and lc < 0):
        return -p
    if p.ring == QQ:
        return p * (1 / lc)
    return p


def reduce_poly(f, basis):
    """Normal form of f against a sequence of polynomials, reduced
    in place on one term dict whose leading term is the heap's top."""
    if f.is_zero():
        return f
    field = f.ring == QQ
    lts = []
    for g in basis:
        if g.terms:
            # floor division by a negative lc(g) need not shrink the
            # coefficient, and the reduction can cycle
            if g.leading()[1] < 0:
                g = -g
            lts.append(g.leading() + (g.terms.items(),))
    h = dict(f.terms)
    heap = [(descending_key(m), m) for m in h]
    heapq.heapify(heap)
    remainder = {}
    while heap:
        m = heap[0][1]
        c = h.get(m)
        if c is None:
            heapq.heappop(heap)
            continue
        for gm, gc, gterms in lts:
            if not all(map(le, gm, m)):  # mono_divides, inlined
                continue
            # over ZZ a zero quotient leaves c*m to the next candidate
            q = c / gc if field else c // gc
            if not q:
                continue
            subtract_term_multiple(h, heap, q, tuple(map(sub, m, gm)),
                                   gterms)
            break
        else:
            remainder[m] = c
            del h[m]
            heapq.heappop(heap)
    return Polynomial._make(f.ring, f.vars, remainder)


def s_polynomial(f, g):
    if f.is_zero() or g.is_zero():
        raise ValueError("S-polynomial of zero polynomial")
    fm, fc = f.leading()
    gm, gc = g.leading()
    L = mono_lcm(fm, gm)
    if f.ring == QQ:
        return (f.term_mul(mono_div(L, fm), 1 / fc)
                - g.term_mul(mono_div(L, gm), 1 / gc))
    l = abs(fc * gc) // gcd(abs(fc), abs(gc))
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
    if not polys:
        return []
    polys = sorted({_sign_normalize(p) for p in polys},
                   key=lambda p: (monomial_key(p.leading()[0]),
                                  p.leading()[1],
                                  p.sort_key()))
    kept = []
    for p in polys:
        pm, pc = p.leading()
        redundant = False
        for q in kept:
            qm, qc = q.leading()
            if mono_divides(qm, pm) and pc % qc == 0:
                redundant = True
                break
        if not redundant:
            kept.append(p)
    # one pass of tail reduction: the leading terms are fixed by now, so
    # a tail reduced against them stays reduced
    for i, p in enumerate(kept):
        pm, pc = p.leading()
        lt = Polynomial(ring, p.vars, {pm: pc})
        tail = reduce_poly(p - lt, kept[:i] + kept[i + 1:])
        kept[i] = _sign_normalize(lt + tail)
    kept.sort(key=lambda p: (monomial_key(p.leading()[0]),
                             p.sort_key()))
    return kept


def buchberger(gens, ring, variables):
    """Complete a generator list to a (strong, over ZZ) Groebner basis.
    Generators of a QQ ideal may be integer polynomials: they are
    converted only when none of them is a unit."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    # over QQ every nonzero constant is a unit
    is_unit = (Polynomial.is_constant if ring == QQ
               else Polynomial.is_unit_constant)
    if any(map(is_unit, gens)):
        return _unit_basis(ring, variables)
    start = sorted({_sign_normalize(g.to_ring(ring)) for g in gens},
                   key=lambda p: p.sort_key())

    G = []
    lts = []
    queue = []  # (monomial_key(lcm), counter, i, j, kind): lowest degree first
    counter = 0

    def push_pairs(idx):
        nonlocal counter
        gm, gc = lts[idx]
        for j in range(idx):
            hm, hc = lts[j]
            L = mono_lcm(gm, hm)
            key = monomial_key(L)
            # product criterion: skip when the leading monomials and the
            # leading coefficients are coprime; over QQ every lc is 1
            if L != mono_mul(gm, hm) or (gc != 1 and gcd(gc, hc) != 1):
                heapq.heappush(queue, (key, counter, j, idx, "s"))
                counter += 1
            # never over QQ, where every leading coefficient is 1
            if gc % hc and hc % gc:
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
        h = reduce_poly(p, G)
        if h.is_zero():
            continue
        if is_unit(h):
            return _unit_basis(ring, variables)
        h = _sign_normalize(h)
        G.append(h)
        lts.append(h.leading())
        push_pairs(len(G) - 1)

    return _minimize_and_interreduce(G, ring)


@dataclass
class Ideal:
    """The ideal of ring[vars] generated by ``gens``, which owns its
    reduced (strong, over ZZ) Groebner basis, computed on first use.
    The generators are kept as given: integer polynomials may generate
    a QQ ideal."""

    ring: str
    vars: tuple
    gens: list
    _basis: tuple = field(default=None, init=False, repr=False,
                          compare=False)

    def __post_init__(self):
        self.vars = tuple(self.vars)
        if any(g.vars != self.vars for g in self.gens):
            raise ValueError("generator over wrong registry")
        self.gens = [g for g in self.gens if not g.is_zero()]

    @property
    def basis(self):
        """The reduced Groebner basis as a tuple, sorted by leading term."""
        if self._basis is None:
            self._basis = tuple(buchberger(self.gens, self.ring, self.vars))
            if SELF_CHECK:
                self.verify()
        return self._basis

    def reduce(self, f):
        return reduce_poly(f.to_ring(self.ring), self.basis)

    def contains(self, f):
        return self.reduce(f).is_zero()

    def is_trivial(self):
        # the reduced basis of the unit ideal is exactly (1)
        return self.basis == (Polynomial.const(self.ring, self.vars, 1),)

    def verify(self):
        """Check the basis invariants; raises AssertionError on failure."""
        polys = self.basis
        for g in self.gens:
            assert self.reduce(g).is_zero(), \
                "generator does not reduce to zero: %s" % g.render()
        for i in range(len(polys)):
            for j in range(i):
                s = s_polynomial(polys[i], polys[j])
                assert reduce_poly(s, polys).is_zero(), \
                    "S-polynomial does not reduce to zero"
                if self.ring == ZZ:
                    gp = gcd_polynomial(polys[i], polys[j])
                    assert reduce_poly(gp, polys).is_zero(), \
                        "gcd-polynomial does not reduce to zero"
        if self.ring == ZZ:
            assert all(p.leading()[1] > 0 for p in polys)
        return True


def ideals_equal(a, b):
    if a.ring != b.ring or a.vars != b.vars:
        raise ValueError("ideals over different rings or registries")
    # reduced bases are unique, so equal ideals have equal bases
    return a.basis == b.basis
