"""Exact multivariate polynomials over ZZ and QQ.

Monomials are dense exponent tuples indexed by a fixed variable registry
(a tuple of names).  Coefficients are Python ints over ZZ and Fractions
over QQ, given as ints or Fractions only, so arithmetic never overflows
or rounds; the Groebner engine computes over QQ on integer polynomials.
Terms are ordered by graded reverse lexicographic order (grevlex), the
only term order: the triviality of an ideal does not depend on it.
Every Polynomial keeps its term dict in that order, leading term first;
the order is set where terms are made, and readers rely on it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import add, neg

ZZ = "ZZ"
QQ = "QQ"


# registry -> {exponent tuple: its string in Polynomial.render}
_TERM_STRINGS = {}


@lru_cache(maxsize=None)
def make_vars(n):
    return tuple("x%d" % i for i in range(n))


# ---------------------------------------------------------------------------
# monomial order (exponent tuples)

def monomial_key(mono):
    """Sort key: larger key = larger monomial in grevlex."""
    return (sum(mono), tuple(map(neg, reversed(mono))))


def _leading_first(terms):
    """The nonzero terms of a term dict in descending grevlex, leading
    term first."""
    order = sorted(terms, key=monomial_key, reverse=True)
    return {m: terms[m] for m in order if terms[m]}


def _monomial(mono, n):
    """mono as a tuple, checked to hold n nonnegative int exponents."""
    if len(mono) != n:
        raise ValueError("exponent vector length mismatch")
    if not all(isinstance(e, int) and e >= 0 for e in mono):
        raise ValueError("bad exponent vector %r" % (mono,))
    return tuple(mono)


def _coerce(ring, c):
    if not isinstance(c, (int, Fraction)):
        raise TypeError("bad %s coefficient %r" % (ring, c))
    if ring == QQ:
        return Fraction(c)
    if ring != ZZ:
        raise ValueError("unknown ring %r" % (ring,))
    if c.denominator != 1:
        raise ValueError("non-integer coefficient %s over ZZ" % c)
    return int(c)


class Polynomial:
    """Immutable exact polynomial: ring tag, variable registry, term dict.

    The public constructor coerces, validates and orders its input;
    ``_make`` trusts it.  Either way ``terms`` holds no zero coefficient,
    its coefficients are ints over ZZ and Fractions over QQ, and it is
    kept leading term first.
    """

    __slots__ = ("ring", "vars", "terms")

    def __init__(self, ring, variables, terms):
        variables = tuple(variables)
        n = len(variables)
        clean = {_monomial(mono, n): _coerce(ring, coeff)
                 for mono, coeff in terms.items()}
        self.ring, self.vars = ring, variables
        self.terms = _leading_first(clean)

    @classmethod
    def _make(cls, ring, variables, terms):
        """Wrap a term dict that is already ring-typed, zero-free and in
        descending grevlex, leading term first."""
        p = object.__new__(cls)
        p.ring, p.vars, p.terms = ring, variables, terms
        return p

    # -- constructors -------------------------------------------------------

    @classmethod
    def const(cls, ring, variables, c):
        z = (0,) * len(variables)
        return cls(ring, variables, {z: c})

    @classmethod
    def variable(cls, ring, variables, name):
        variables = tuple(variables)
        try:
            i = variables.index(name)
        except ValueError:
            raise ValueError("unknown variable %r" % (name,))
        mono = tuple(1 if j == i else 0 for j in range(len(variables)))
        return cls(ring, variables, {mono: 1})

    # -- predicates ---------------------------------------------------------

    def is_zero(self):
        return not self.terms

    # -- term access --------------------------------------------------------

    def leading(self):
        """(monomial, coefficient) of the leading term, the first."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return next(iter(self.terms.items()))

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other):
        if self.ring != other.ring:
            raise ValueError("ring mismatch %s vs %s" % (self.ring, other.ring))
        if self.vars != other.vars:
            raise ValueError("variable registry mismatch")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(self.ring, self.vars, other)
        elif not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return Polynomial._make(self.ring, self.vars, _leading_first(terms))

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._make(self.ring, self.vars,
                                {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, Polynomial)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.term_mul((0,) * len(self.vars), other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        terms = {}
        get = terms.get
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(map(add, m1, m2))
                terms[m] = get(m, 0) + c1 * c2
        return Polynomial._make(self.ring, self.vars, _leading_first(terms))

    __rmul__ = __mul__

    def term_mul(self, mono, coeff):
        """Multiply by a single term coeff * x^mono, mono checked as the
        constructor checks it; grevlex is a monomial order, so the terms
        keep their order."""
        mono = _monomial(mono, len(self.vars))
        c = _coerce(self.ring, coeff)
        if not c:
            return Polynomial._make(self.ring, self.vars, {})
        return Polynomial._make(self.ring, self.vars,
                                {tuple(map(add, m, mono)): v * c
                                 for m, v in self.terms.items()})

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            # a number equals a constant of its value, in either ring
            return self.terms == ({(0,) * len(self.vars): other}
                                  if other else {})
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.ring == other.ring and self.vars == other.vars
                and self.terms == other.terms)

    def __hash__(self):
        # a constant (zero too) equals its value, so hashes as it
        mono, c = next(iter(self.terms.items()), ((), 0))
        if not any(mono):
            return hash(c)
        return hash((self.ring, self.vars, frozenset(self.terms.items())))

    # -- conversion ---------------------------------------------------------

    def to_ring(self, ring):
        if ring == self.ring:
            return self
        return Polynomial(ring, self.vars, dict(self.terms))

    # -- rendering ----------------------------------------------------------

    def render(self):
        """The polynomial as text, leading term first, e.g.
        ``-x0*x2^3 + 2*x1 - 4``.  Each monomial's string is made once per
        registry: ``_TERM_STRINGS`` maps the ``vars`` tuple to a dict from
        exponent tuple to string, and holds one string for every
        (registry, monomial) rendered so far."""
        if not self.terms:
            return "0"
        strings = _TERM_STRINGS.setdefault(self.vars, {})
        parts = []
        for mono, coeff in self.terms.items():
            s = strings.get(mono)
            if s is None:
                s = strings[mono] = "*".join(
                    name if e == 1 else "%s^%d" % (name, e)
                    for name, e in zip(self.vars, mono) if e)
            mag = abs(coeff)
            if not s:
                body = str(mag)
            elif mag == 1:
                body = s
            else:
                body = "%s*%s" % (mag, s)
            if parts:
                parts.append(("+ " if coeff > 0 else "- ") + body)
            else:
                parts.append(body if coeff > 0 else "-" + body)
        return " ".join(parts)

    def __repr__(self):
        return "Polynomial(%s, %s)" % (self.ring, self.render())

