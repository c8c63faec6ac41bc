"""Ideal membership, which only the tests need: the reduction of a
polynomial by an ideal's reduced Groebner basis."""

from distideal.groebner import reduce_poly


def reduce(ideal, f):
    """The normal form of f modulo the basis of ``ideal``."""
    return reduce_poly(f.to_ring(ideal.ring), ideal.basis)


def contains(ideal, f):
    return reduce(ideal, f).is_zero()
