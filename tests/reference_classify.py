"""``classify.minimal_forbidden_ok`` as it stood when it read Φ once for
each induced copy of a subgraph: the reference for the differential test
in ``test_classify.py``.

The body is kept as it was.  It reads ``RINGS`` and ``PATTERNS`` off the
classify module at each call, so a test that monkeypatches them there
changes what both versions check.
"""

from __future__ import annotations

from itertools import combinations

from distideal import classify as classify_mod
from distideal.graph import is_connected
from distideal.ideals import trivial_count_phi


def minimal_forbidden_ok(ring):
    coeff_ring, names = classify_mod.RINGS[ring]
    for name in names:
        g = classify_mod.PATTERNS[name]
        if trivial_count_phi(g, coeff_ring, max_i=3) != 2:
            return False
        for size in range(1, g.n):
            for subset in combinations(range(g.n), size):
                h = g.induced(subset)
                if not is_connected(h):
                    continue
                if trivial_count_phi(h, coeff_ring, max_i=2) > 1:
                    return False
    return True
