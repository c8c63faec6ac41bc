"""Byte-level regression test of `distideal ideals --format json`.

tests/data/ideals_golden.json holds the sha256 of the stdout for every
connected graph on at most 4 vertices plus P5, C5, K_{1,4} and K_{2,3},
over both rings.  The digests were written by the code before the minor
engine was unified; any change to generators, bases, triviality flags,
Φ or their rendering shows up here.  Regenerate (only for an intended
output change) with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import hashlib
import io
import json
import os
import sys

from distideal.cli import main
from distideal.graph import emit_graph6, enumerate_connected, family

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "ideals_golden.json")


def golden_graphs():
    graphs = list(enumerate_connected(4))
    graphs += [family("path", 5), family("cycle", 5), family("star", 4),
               family("complete_bipartite", 2, 3)]
    return [emit_graph6(g) for g in graphs]


def ideals_digest(g6, ring):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["ideals", "--graph6", g6, "--ring", ring,
                     "--format", "json", "--allow-large"])
    assert code == 0, (g6, ring)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def compute_digests():
    return {"%s %s" % (g6, ring): ideals_digest(g6, ring)
            for g6 in golden_graphs() for ring in ("Z", "Q")}


def test_ideals_json_matches_golden_digests():
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    assert compute_digests() == golden


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(compute_digests(), fh, indent=1, sort_keys=True)
        fh.write("\n")
