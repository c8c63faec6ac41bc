"""Family formulas that only the tests need."""

from distideal.families import _gens_ring, _subset_products, star_vars


def star_minor_det(m, i):
    """det of the star matrix with the center row and leaf column i
    (1-based) removed."""
    if not (1 <= i <= m):
        raise ValueError("index out of range")
    variables = star_vars(m)
    one, xs = _gens_ring(variables)
    shifted = [x - 2 for x in xs[:-1]]
    term, = _subset_products(shifted[:i - 1] + shifted[i:], m - 1, one)
    return term if (m - i) % 2 == 0 else -term
