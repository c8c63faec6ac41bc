"""Polynomial helpers that only the tests need: composition, the tuple
monomial arithmetic that the packed Groebner engine is checked against,
and the in-place term update of the reference determinant engine."""

from heapq import heappush
from operator import add, le, sub

from distideal.poly import Polynomial, descending_key


def mono_mul(a, b):
    return tuple(map(add, a, b))


def mono_div(a, b):
    if not mono_divides(b, a):
        raise ValueError("monomial %r does not divide %r" % (b, a))
    return tuple(map(sub, a, b))


def mono_divides(a, b):
    """True if a divides b."""
    return all(map(le, a, b))


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def subtract_term_multiple(terms, heap, q, shift, items):
    """terms -= q * x^shift * (the polynomial with term ``items``), in
    place.  The heap holds (descending_key(m), m) for every m in terms,
    and stale entries that callers skip; new monomials are pushed on it."""
    for tm, tc in items:
        t = tuple(map(add, tm, shift))
        v = terms.get(t)
        if v is None:
            terms[t] = -q * tc
            heappush(heap, (descending_key(t), t))
        else:
            v -= q * tc
            if v:
                terms[t] = v
            else:
                del terms[t]


def compose(p, target_vars, mapping):
    """Full substitution of p into a (possibly different) registry.

    mapping sends variable names to Polynomials over target_vars;
    unmapped names must themselves be present in target_vars.
    """
    target_vars = tuple(target_vars)
    images = []
    for name in p.vars:
        if name in mapping:
            img = mapping[name]
            if img.vars != target_vars or img.ring != p.ring:
                raise ValueError("image polynomial over wrong ring/registry")
        else:
            img = Polynomial.variable(p.ring, target_vars, name)
        images.append(img)
    result = Polynomial.zero(p.ring, target_vars)
    for mono, coeff in p.terms.items():
        term = Polynomial.const(p.ring, target_vars, coeff)
        for img, e in zip(images, mono):
            if e:
                term = term * img ** e
        result = result + term
    return result
