"""Byte-level regression tests of the CLI's JSON output.

tests/data/ideals_golden.json holds the sha256 of the stdout of
`distideal ideals --format json` for every connected graph on at most 4
vertices plus P5, C5, K_{1,4} and K_{2,3}, over both rings.  The digests
were written by the code before the minor engine was unified; any change
to generators, bases, triviality flags, Φ or their rendering shows up
here.

tests/data/charpoly_matrix_golden.json holds the sha256 of the stdout of
`distideal charpoly --format json` and `distideal matrix --format json`
for every connected graph on at most 5 vertices.  They pin the char
poly, the matrix entries and polynomial rendering; the digests were
written by the code before grevlex became the only term order.

tests/data/integer_golden.json holds the sha256 of the stdout of
`charpoly --format json` and `matrix --format json` for every connected
graph on 6 vertices, of `snf --format json` with both `--kind` values
for every connected graph on at most 6 vertices, and of `families verify
--format json`, plus the digest of (factors, U, V) of
`distance_snf`/`distance_laplacian_snf(g, with_transforms=True)` for
every connected graph on at most 6 vertices.  The digests were written
by the code before the symbolic matrices became integer matrices with a
diagonal of variables.

tests/data/corpus_golden.json pins the enumeration order: the sha256 of
the stdout of `distideal corpus --nmax 6 --format json`, and of the
newline-joined graph6 strings of `enumerate_connected(7)` and of
`enumerate_connected(8)` in the order they are yielded.  The first two
digests were written by the code before the enumeration sorted canonical
forms instead of graphs.

Regenerate (only for an intended output change) with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import hashlib
import io
import json
import os
import sys

import pytest

from distideal.cli import main
from distideal.graph import emit_graph6, enumerate_connected, family
from distideal.snf import distance_laplacian_snf, distance_snf

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN_PATH = os.path.join(DATA, "ideals_golden.json")
CHARPOLY_MATRIX_PATH = os.path.join(DATA, "charpoly_matrix_golden.json")
INTEGER_PATH = os.path.join(DATA, "integer_golden.json")
CORPUS_PATH = os.path.join(DATA, "corpus_golden.json")


def golden_graphs():
    graphs = list(enumerate_connected(4))
    graphs += [family("path", 5), family("cycle", 5), family("star", 4),
               family("complete_bipartite", 2, 3)]
    return [emit_graph6(g) for g in graphs]


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def cli_digest(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv + ["--format", "json"])
    assert code == 0, argv
    return sha256(buf.getvalue())


def compute_digests():
    return {"%s %s" % (g6, ring): cli_digest(["ideals", "--graph6", g6,
                                              "--ring", ring, "--allow-large"])
            for g6 in golden_graphs() for ring in ("Z", "Q")}


def compute_charpoly_matrix_digests():
    return {"%s %s" % (cmd, emit_graph6(g)):
            cli_digest([cmd, "--graph6", emit_graph6(g)])
            for g in enumerate_connected(5) for cmd in ("charpoly", "matrix")}


def compute_integer_digests():
    digests = {}
    for g in enumerate_connected(6):
        g6 = emit_graph6(g)
        if g.n == 6:
            for cmd in ("charpoly", "matrix"):
                digests["%s %s" % (cmd, g6)] = cli_digest([cmd, "--graph6", g6])
        for kind, snf in (("distance", distance_snf),
                          ("distance-laplacian", distance_laplacian_snf)):
            digests["snf %s %s" % (kind, g6)] = cli_digest(
                ["snf", "--graph6", g6, "--kind", kind])
            res = snf(g, with_transforms=True)
            digests["transforms %s %s" % (kind, g6)] = sha256(
                repr((res.factors, res.U, res.V)))
    digests["families verify"] = cli_digest(["families", "verify"])
    return digests


def corpus_json_digest():
    return cli_digest(["corpus", "--nmax", "6"])


def enumeration_digest(graphs):
    return sha256("\n".join(emit_graph6(g) for g in graphs))


def compute_corpus_digests():
    return {"corpus --nmax 6": corpus_json_digest(),
            "enumerate_connected(7)": enumeration_digest(
                enumerate_connected(7)),
            "enumerate_connected(8)": enumeration_digest(
                enumerate_connected(8))}


def test_ideals_json_matches_golden_digests():
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    assert compute_digests() == golden


def test_charpoly_and_matrix_json_match_golden_digests():
    with open(CHARPOLY_MATRIX_PATH) as fh:
        golden = json.load(fh)
    assert len(golden) == 2 * 31
    assert compute_charpoly_matrix_digests() == golden


def test_integer_outputs_match_golden_digests():
    with open(INTEGER_PATH) as fh:
        golden = json.load(fh)
    assert len(golden) == 2 * 112 + 4 * 143 + 1
    assert compute_integer_digests() == golden


def _corpus_golden():
    with open(CORPUS_PATH) as fh:
        return json.load(fh)


def test_corpus_json_matches_golden_digest():
    assert corpus_json_digest() == _corpus_golden()["corpus --nmax 6"]


@pytest.mark.slow
def test_enumeration_order_matches_golden_digest():
    assert (enumeration_digest(enumerate_connected(7))
            == _corpus_golden()["enumerate_connected(7)"])


@pytest.mark.slow
def test_enumeration_order_n8_matches_golden_digest(connected8):
    assert (enumeration_digest(connected8)
            == _corpus_golden()["enumerate_connected(8)"])


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    for path, digests in ((GOLDEN_PATH, compute_digests()),
                          (CHARPOLY_MATRIX_PATH,
                           compute_charpoly_matrix_digests()),
                          (INTEGER_PATH, compute_integer_digests()),
                          (CORPUS_PATH, compute_corpus_digests())):
        with open(path, "w") as fh:
            json.dump(digests, fh, indent=1, sort_keys=True)
            fh.write("\n")
