"""Polynomial helpers that only the tests need: powers, partial
evaluation and composition, the tuple monomial arithmetic that the
packed Groebner engine is checked against, the in-place term update
of the reference determinant engine, the sort key and unit test of the
reference Groebner engine, and a rendering that sorts its terms
itself."""

from heapq import heappush
from operator import add, le, sub

from distideal.poly import QQ, Polynomial, _coerce, monomial_key


def sort_key(p):
    """Deterministic total-order key on the polynomials of one ring
    (for stable output)."""
    return tuple((monomial_key(m), c) for m, c in p.terms.items())


def is_unit_constant(p):
    """Whether p is a nonzero constant that is a unit of its ring."""
    if any(map(any, p.terms)) or not p.terms:
        return False
    c, = p.terms.values()
    return p.ring == QQ or c in (1, -1)


def descending_key(mono):
    """Sort key under which the larger monomial in grevlex comes first:
    ``monomial_key`` with every entry negated."""
    return (-sum(mono), mono[::-1])


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


def power(p, e):
    """p ** e by repeated squaring, for e >= 0."""
    if e < 0:
        raise ValueError("negative power")
    result = Polynomial.const(p.ring, p.vars, 1)
    while e:
        if e & 1:
            result = result * p
        p = p * p
        e >>= 1
    return result


def substitute(p, assignment):
    """Partial evaluation; values are ring scalars, other vars stay."""
    idx = {}
    for name, value in assignment.items():
        if name not in p.vars:
            raise ValueError("unknown variable %r" % (name,))
        idx[p.vars.index(name)] = _coerce(p.ring, value)
    terms = {}
    for mono, coeff in p.terms.items():
        c = coeff
        new = list(mono)
        for i, val in idx.items():
            c *= val ** mono[i]
            new[i] = 0
        m = tuple(new)
        terms[m] = terms.get(m, 0) + c
    return Polynomial(p.ring, p.vars, terms)


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
    result = Polynomial(p.ring, target_vars, {})
    for mono, coeff in p.terms.items():
        term = Polynomial.const(p.ring, target_vars, coeff)
        for img, e in zip(images, mono):
            if e:
                term = term * power(img, e)
        result = result + term
    return result


def render_reference(p):
    """``Polynomial.render`` that sorts the terms by ``descending_key``
    instead of reading them in their kept order."""
    if not p.terms:
        return "0"
    parts = []
    items = sorted(p.terms.items(), key=lambda t: descending_key(t[0]))
    for i, (mono, coeff) in enumerate(items):
        factors = ["%s^%d" % (name, e) if e > 1 else name
                   for name, e in zip(p.vars, mono) if e]
        mag = abs(coeff)
        body = "*".join(([] if mag == 1 and factors else [str(mag)])
                        + factors)
        if i == 0:
            parts.append(body if coeff > 0 else "-" + body)
        else:
            parts.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(parts)
