"""Compare two sets of benchmark results, or show the spread of one.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR
    python3 perfbench/compare.py --spread DIR

Each directory holds the files ``run.py --out`` writes, one per run.
Runs of the two sets are paired by (workload, seed), so run both
commits with the same seeds, alternating which runs first.

For each (workload, metric) the comparison prints both medians and
quartiles, the share of pairs the change won (ties count for neither)
and a verdict:

- improved: the change won at least 9/10 of the pairs and the medians
  differ, in the better direction, by more than the base's quartile
  distance;
- worse: the change's median is worse than the base's by more than the
  metric's bound in BENCHMARK.json; for per-layer metrics, which have no
  bound, the base won 9/10 of the pairs by more than its quartile
  distance;
- unresolved: the base's own quartile distance is wider than the bound
  (or, with no bound, than the difference), unless every change run beat
  every base run;
- unchanged: otherwise.

Exit status 1 when some end-to-end metric is worse.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402


def load_spec(path=common.BENCHMARK_JSON):
    """{metric: (better, bound or None)} from BENCHMARK.json."""
    with open(path) as fh:
        spec = json.load(fh)
    out = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    out.update({m["name"]: (m["better"], None) for m in spec["per_layer"]})
    return out


def load_runs(directory):
    """{(workload, metric): {seed: value}} from every *.json in directory."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            rec = json.load(fh)
        for name, metric in rec["result"]["metrics"].items():
            runs.setdefault((rec["workload"], name), {})[rec["seed"]] = metric["value"]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, change, better, bound):
    """base, change: {seed: value}.  Returns (verdict, wins, pairs)."""
    sign = 1 if better == "higher" else -1   # sign * (a - b) > 0: a is better
    seeds = sorted(set(base) & set(change))
    wins = sum(1 for s in seeds if sign * (change[s] - base[s]) > 0)
    losses = sum(1 for s in seeds if sign * (change[s] - base[s]) < 0)
    q1, mb, q3 = quartiles(sorted(base.values()))
    mc = statistics.median(change.values())
    iqr = q3 - q1
    gain = sign * (mc - mb)
    pairs = len(seeds)
    if pairs and wins >= 0.9 * pairs and gain > iqr:
        return "improved", wins, pairs
    all_better = min(sign * c for c in change.values()) > max(sign * b for b in base.values())
    if bound is not None:
        worse_by = -gain / abs(mb) if mb else (0.0 if gain >= 0 else float("inf"))
        if worse_by > bound:
            return "worse", wins, pairs
        spread = iqr / abs(mb) if mb else 0.0
        if spread > bound and not all_better:
            return "unresolved", wins, pairs
        return "unchanged", wins, pairs
    if pairs and losses >= 0.9 * pairs and -gain > iqr:
        return "worse", wins, pairs
    if abs(gain) <= iqr:
        return "unchanged", wins, pairs
    return "unresolved", wins, pairs


def compare(base_dir, change_dir, spec):
    base, change = load_runs(base_dir), load_runs(change_dir)
    any_worse = False
    print("%-11s %-32s %27s %27s %7s  %s" % ("workload", "metric", "base median [q1, q3]",
                                             "change median [q1, q3]", "won", "verdict"))
    for key in sorted(set(base) & set(change)):
        workload, name = key
        if name not in spec:
            continue
        better, bound = spec[name]
        v, wins, pairs = verdict(base[key], change[key], better, bound)
        any_worse |= v == "worse" and bound is not None
        bq, cq = quartiles(sorted(base[key].values())), quartiles(sorted(change[key].values()))
        print("%-11s %-32s %11.5g [%6.4g, %6.4g] %11.5g [%6.4g, %6.4g] %3d/%-3d  %s"
              % (workload, name, bq[1], bq[0], bq[2], cq[1], cq[0], cq[2],
                 wins, pairs, v))
    return 1 if any_worse else 0


def spread(directory, spec):
    """Quartile distance over median per (workload, metric), against bound."""
    print("%-11s %-32s %4s %12s %8s %6s" % ("workload", "metric", "runs", "median",
                                            "spread", "bound"))
    for (workload, name), values in sorted(load_runs(directory).items()):
        _, bound = spec.get(name, (None, None))
        q1, med, q3 = quartiles(sorted(values.values()))
        rel = (q3 - q1) / abs(med) if med else 0.0
        note = ""
        if bound is not None:
            note = "%6.3f %s" % (bound, "ok" if rel < bound / 3 else
                                 "within" if rel <= bound else "TOO WIDE")
        print("%-11s %-32s %4d %12.6g %8.4f %s" % (workload, name, len(values), med,
                                                   rel, note))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dirs", nargs="+", help="BASE_DIR CHANGE_DIR, or one DIR "
                        "with --spread")
    parser.add_argument("--spread", action="store_true")
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.spread:
        if len(args.dirs) != 1:
            parser.error("--spread takes one directory")
        return spread(args.dirs[0], spec)
    if len(args.dirs) != 2:
        parser.error("need BASE_DIR and CHANGE_DIR")
    return compare(args.dirs[0], args.dirs[1], spec)


if __name__ == "__main__":
    sys.exit(main())
