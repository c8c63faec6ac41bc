"""Regenerate the benchmark's reference data from the current program.

    python3 perfbench/make_golden.py

Writes two files under perfbench/data/:

- corpus7.g6: every connected graph on 1..7 vertices, one per line in
  enumeration order, followed by its "at most one trivial distance
  ideal" verdict over Z and over R (1 or 0);
- chains_golden.json: for every 5- and 6-vertex graph of that corpus and
  each ring, the digest of the reduced Groebner bases and triviality
  flags of all its distance ideals, its Phi, and ``seed_ms``, the median
  of three timings of its report, which the chains workload stratifies
  its sample by (a time on the commit and machine that made the file;
  it is not checked).

A reduced basis is unique for a given ideal, term order and ring, so any
correct engine reproduces these digests.  Regenerate them only from a
commit whose outputs are known to be right.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

import common

TIMINGS = 3


def main():
    mods = common.import_program()
    graphs = list(mods.graph.enumerate_connected(7))
    lines = []
    for g in graphs:
        z, r = mods.classify.classify_Z(g), mods.classify.classify_R(g)
        g6 = mods.graph.emit_graph6(g)
        if not (z.agreement and r.agreement):
            raise SystemExit("deciders disagree on %s" % g6)
        lines.append("%s %d %d" % (g6, z.verdict, r.verdict))
    with open(common.CORPUS_FILE, "w") as fh:
        fh.write("\n".join(lines) + "\n")

    pool = [(mods.graph.emit_graph6(g), ring) for g in graphs
            if g.n in common.CHAIN_SIZES for ring in common.CHAIN_RINGS]
    golden = {key: {"graph6": key[0], "ring": key[1]} for key in pool}
    times = {key: [] for key in pool}
    # whole passes over the pool, so that a slow spell of the machine
    # spreads over all graphs instead of skewing a few
    for _ in range(TIMINGS):
        for key in pool:
            start = perf_counter()
            report = common.run_ideals_cli(mods.cli, *key)[0]
            times[key].append(perf_counter() - start)
            digest = common.report_digest(report)
            if golden[key].setdefault("digest", digest) != digest:
                raise SystemExit("reports of %s/%s differ between runs" % key)
            golden[key]["phi"] = report["phi"]
    for key in pool:
        golden[key]["seed_ms"] = round(1e3 * statistics.median(times[key]), 1)
    with open(common.GOLDEN_FILE, "w") as fh:
        json.dump([golden[key] for key in pool], fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
