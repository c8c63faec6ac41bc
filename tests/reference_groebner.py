"""The Groebner engine as it stood before the lean polynomial core: the
reference oracle for the differential tests of ``distideal.groebner``.

The functions below are kept verbatim, except that they call
``sort_key`` and ``is_unit_constant`` as the test helpers those
``Polynomial`` methods became.  They use only the public
``Polynomial`` operations (``leading``, ``term_mul``, ``+``, ``-`` and
the coercing constructor): every reduction step builds a new polynomial,
so they do not share the in-place reduction loop they check.
"""

from __future__ import annotations

import heapq
from math import gcd

from distideal.poly import QQ, ZZ, Polynomial, monomial_key
from poly_helpers import (is_unit_constant, mono_div, mono_divides, mono_lcm,
                          mono_mul, sort_key)


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
    """Normal form of f against a list of nonzero polynomials."""
    if f.is_zero():
        return f
    ring = f.ring
    lts = [(g.leading()[0], g.leading()[1], g) for g in basis
           if not g.is_zero()]
    remainder = {}
    h = f
    while not h.is_zero():
        m, c = h.leading()
        reduced = False
        for gm, gc, g in lts:
            if not mono_divides(gm, m):
                continue
            if ring == QQ:
                q = c / gc
            else:
                q = c // gc
                if q == 0:
                    continue
            h = h - g.term_mul(mono_div(m, gm), q)
            reduced = True
            break
        if not reduced:
            remainder[m] = c
            h = h - Polynomial(ring, f.vars, {m: c})
    return Polynomial(ring, f.vars, remainder)


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
                                  abs(p.leading()[1]),
                                  sort_key(p)))
    kept = []
    for p in polys:
        pm, pc = p.leading()
        redundant = False
        for q in kept:
            qm, qc = q.leading()
            if mono_divides(qm, pm) and (ring == QQ or pc % qc == 0):
                redundant = True
                break
        if not redundant:
            kept.append(p)
    # tail reduction to a fixpoint; leading terms are stable here
    changed = True
    while changed:
        changed = False
        for i, p in enumerate(kept):
            pm, pc = p.leading()
            lt = Polynomial(ring, p.vars, {pm: pc})
            others = kept[:i] + kept[i + 1:]
            tail = reduce_poly(p - lt, others)
            new = _sign_normalize(lt + tail)
            if new != p:
                kept[i] = new
                changed = True
    kept.sort(key=lambda p: (monomial_key(p.leading()[0]),
                             sort_key(p)))
    return kept


def buchberger(gens, ring, variables):
    """Complete a generator list to a (strong, over ZZ) Groebner basis."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    for g in gens:
        if is_unit_constant(g):
            return _unit_basis(ring, variables)
    start = sorted({_sign_normalize(g) for g in gens},
                   key=lambda p: sort_key(p))

    G = []
    lts = []
    queue = []  # (deg lcm, key lcm, i, j, kind)
    counter = 0

    def push_pairs(idx):
        nonlocal counter
        gm, gc = lts[idx]
        for j in range(idx):
            hm, hc = lts[j]
            L = mono_lcm(gm, hm)
            key = (sum(L), monomial_key(L))
            if ring == QQ:
                if L == mono_mul(gm, hm):
                    continue  # coprime leading monomials
                heapq.heappush(queue, (key, counter, j, idx, "s"))
                counter += 1
            else:
                heapq.heappush(queue, (key, counter, j, idx, "s"))
                counter += 1
                if abs(gc) % abs(hc) and abs(hc) % abs(gc):
                    heapq.heappush(queue, (key, counter, j, idx, "g"))
                    counter += 1

    def add(p):
        G.append(p)
        lts.append(p.leading())
        push_pairs(len(G) - 1)

    for g in start:
        h = reduce_poly(g, G)
        if h.is_zero():
            continue
        if is_unit_constant(h):
            return _unit_basis(ring, variables)
        add(_sign_normalize(h))

    while queue:
        _, _, i, j, kind = heapq.heappop(queue)
        if kind == "s":
            p = s_polynomial(G[i], G[j])
        else:
            p = gcd_polynomial(G[i], G[j])
        h = reduce_poly(p, G)
        if h.is_zero():
            continue
        if is_unit_constant(h):
            return _unit_basis(ring, variables)
        add(_sign_normalize(h))

    return _minimize_and_interreduce(G, ring)
