"""Polynomial helpers that only the tests need."""

from distideal.poly import Polynomial


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
