"""Paths, reference data and the helpers shared by the benchmark scripts.

The benchmark always measures the program in the checkout around it:
``import_program`` puts that checkout's src/ first on sys.path, never an
installed copy.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import sys
from types import SimpleNamespace

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
DATA = os.path.join(BENCH_DIR, "data")
CORPUS_FILE = os.path.join(DATA, "corpus7.g6")
GOLDEN_FILE = os.path.join(DATA, "chains_golden.json")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

# the layers the benchmark measures; families is a one-shot sweep and
# is left out
LAYERS = ("graph", "poly", "groebner", "ideals", "snf", "classify", "cli")
CORPUS_COUNTS = (1, 1, 2, 6, 21, 112, 853)  # OEIS A001349, n = 1..7
CHAIN_SIZES = (5, 6)
CHAIN_RINGS = ("Z", "Q")


class MissingProgram(RuntimeError):
    pass


def import_program():
    """Import the program afresh and return its layer modules.

    Earlier imports are dropped first, so repeated calls each pay the
    full import and can be timed as set-up."""
    if not os.path.isfile(os.path.join(SRC, "distideal", "__init__.py")):
        raise MissingProgram("no distideal sources under %s" % SRC)
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules
                 if m == "distideal" or m.startswith("distideal.")]:
        del sys.modules[name]
    importlib.import_module("distideal")
    return SimpleNamespace(**{layer: importlib.import_module("distideal." + layer)
                              for layer in LAYERS})


def run_ideals_cli(cli, g6, ring):
    """`distideal ideals ... --format json`, in process, through cli.main.

    Returns (parsed report, stdout size in bytes).  Raises if the
    command exits non-zero."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["ideals", "--graph6", g6, "--ring", ring,
                         "--format", "json", "--allow-large"])
    out = buf.getvalue()
    if code != 0:
        raise RuntimeError("distideal ideals exited %r for %s/%s"
                           % (code, g6, ring))
    return json.loads(out), len(out.encode())


def report_digest(report):
    """sha256 of the reduced bases, triviality flags and Phi of a report."""
    body = {"bases": [rec["groebner_basis"] for rec in report["ideals"]],
            "trivial": [rec["trivial"] for rec in report["ideals"]],
            "phi": report["phi"]}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def graph6_order(g6):
    return ord(g6[0]) - 63


def load_corpus():
    """[(graph6, verdict_Z, verdict_R)] in enumeration order."""
    rows = []
    with open(CORPUS_FILE) as fh:
        for line in fh:
            g6, z, r = line.split()
            rows.append((g6, z == "1", r == "1"))
    return rows


def load_golden():
    """{(graph6, ring): entry} for the chains pool."""
    with open(GOLDEN_FILE) as fh:
        return {(e["graph6"], e["ring"]): e for e in json.load(fh)}
