"""distideal benchmark.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Runs one workload (see workloads.py) in a single-threaded closed loop:
one client, the next item starting only when the previous one has
returned.  Every output is checked.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.

--trace 0 measures whole passes over the workload's items, as many as
fit in --seconds and at least two, and reports the end-to-end metrics.
Their times are scaled to a reference machine speed by a probe timed
next to every item (see speed.py); the raw figures are printed too.
--trace 1 runs every item plain and traced, then one pass under
cProfile, and reports the per-layer metrics; traced minus plain time is
the tracing overhead.  Spans go to
.perfbench_out/spans-<workload>-seed<seed>.jsonl.

Exit status: 0 when every output was correct, 1 when some were not
(the result line is still printed), 2 when the benchmark cannot run at
all, for example outside a checkout with src/distideal.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import resource
import statistics
import sys
from collections import Counter
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import speed  # noqa: E402
from tracer import Tracer, module_shares  # noqa: E402
from workloads import BUILDERS  # noqa: E402

SETUP_REPEATS = 5
MIN_PASSES = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_p90": "ms",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}


class PassResult:
    def __init__(self):
        self.latencies = []
        self.probes = []  # speed probes: one before each item, one after the last
        self.failed = 0
        self.counts = Counter()

    @property
    def busy_s(self):
        return sum(self.latencies)

    @property
    def scaled(self):
        """The latencies at the reference speed."""
        return speed.scale(self.latencies, self.probes)


def run_item(item, result, tracer=None, profile=None, item_id=None):
    """Time one item, then check its output outside the timed region."""
    value = error = None
    if tracer is not None:
        tracer.item = item_id
    if profile is not None:
        profile.enable()
    start = perf_counter()
    try:
        value = item.run()
    except Exception as exc:  # an item that raises is a failed item
        error = exc
    finally:
        elapsed = perf_counter() - start
        if profile is not None:
            profile.disable()
        if tracer is not None:
            tracer.item = None
    result.latencies.append(elapsed)
    if error is None:
        try:
            item.check(value, result.counts)
        except Exception as exc:
            error = exc
    if error is not None:
        result.failed += 1
        print("FAILED %s: %s: %s" % (item.label, type(error).__name__, error),
              file=sys.stderr)


def run_pass(items, **kw):
    """One pass over ``items``, with the speed probe before each item and
    after the last."""
    result = PassResult()
    for idx, item in enumerate(items):
        result.probes.append(speed.probe_s())
        run_item(item, result, item_id=idx, **kw)
    result.probes.append(speed.probe_s())
    return result


def setup(workload, seed):
    """Import the program afresh and build the inputs, SETUP_REPEATS
    times, with the speed probe before each round and after the last.
    Returns (modules, items, raw seconds of each round, scaled seconds
    of each round)."""
    times, probes = [], [speed.probe_s()]
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        mods = common.import_program()
        items = BUILDERS[workload](mods, seed)
        times.append(perf_counter() - start)
        gc.collect()  # the dropped modules, so they do not count in peak RSS
        probes.append(speed.probe_s())
    return mods, items, times, speed.scale(times, probes)


def measure(items, seconds, between_passes):
    """As many whole passes as fit in ``seconds``, judged by the first
    pass, and at least two.  Only whole passes are measured, so every
    run weighs each item of its workload the same.  ``between_passes``
    runs, untimed, after each pass."""
    passes = []
    total = MIN_PASSES
    while len(passes) < total:
        passes.append(run_pass(items))
        between_passes()
        total = max(MIN_PASSES, int(seconds / passes[0].busy_s + 0.5))
    return passes


def _metric(value, unit):
    return {"value": value, "unit": unit}


def timings(per_pass, setup_times):
    """The timing metrics from per-pass item latencies and set-up rounds."""
    latencies = [t for p in per_pass for t in p]
    p90 = statistics.quantiles(latencies, n=10)[8] if len(latencies) > 1 else latencies[0]
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(sum(p) for p in per_pass),
        "items_per_s": len(latencies) / sum(latencies),
        "item_ms_p50": 1e3 * statistics.median(latencies),
        "item_ms_p90": 1e3 * p90,
    }


def end_to_end(passes, setup_times):
    """(attempted, failed, metrics), with times at the reference speed."""
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    values = timings([p.scaled for p in passes], setup_times)
    values["ok_frac"] = 1.0 - failed / attempted
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return attempted, failed, {name: _metric(values[name], unit)
                               for name, unit in END_TO_END_UNITS.items()}


def traced(mods, items, spans_path):
    """Per-layer metrics; returns (passes, metrics).

    Each item runs once plain and once traced, back to back and in
    alternating order, so the difference (the tracing overhead) is not
    swamped by the machine's drift; then one pass runs under cProfile."""
    plain, traced_pass = PassResult(), PassResult()
    tracer = Tracer(mods)
    for idx, item in enumerate(items):
        for kind in ((0, 1) if idx % 2 else (1, 0)):
            if kind:
                with tracer:
                    run_item(item, traced_pass, tracer=tracer, item_id=idx)
            else:
                run_item(item, plain)
    tracer.write_spans(spans_path)
    if tracer.missing:
        print("not traced, no such attribute: %s" % ", ".join(sorted(tracer.missing)),
              file=sys.stderr)
    profile = cProfile.Profile()
    profiled = run_pass(items, profile=profile)
    shares = module_shares(profile, common.LAYERS)
    metrics = layer_metrics(tracer, traced_pass, len(items), shares,
                            traced_pass.busy_s - plain.busy_s)
    return [plain, traced_pass, profiled], metrics


def _loc(layer):
    with open(os.path.join(common.SRC, "distideal", layer + ".py")) as fh:
        return sum(1 for _ in fh)


def layer_metrics(tr, traced_pass, n_items, shares, overhead_s):
    c = tr.counters
    m = {}

    def put(name, value, unit):
        m[name] = _metric(value, unit)

    put("graph.enumerate_connected.s", tr.seconds("graph.enumerate_connected"), "s")
    for name in ("graph.canonical_form", "graph.contains_induced"):
        put(name + ".calls", tr.calls(name), "count")
        put(name + ".s", tr.seconds(name), "s")
    put("graph.all_pairs_distances.calls", tr.calls("graph.all_pairs_distances"), "count")

    put("ideals.minors.calls", tr.calls("ideals.minors"), "count")
    put("ideals.minors.s", tr.seconds("ideals.minors"), "s")
    put("ideals.minors.out", c["ideals.minors.out"], "count")
    examined = c["ideals.minors.examined"]
    put("ideals.minors.keep_frac",
        c["ideals.minors.out"] / examined if examined else 0.0, "frac")
    put("ideals.distance_ideal.calls",
        tr.calls("ideals.distance_ideal") / n_items, "1/item")
    for name in ("ideals.trivial_count_phi", "ideals.char_poly_distance",
                 "ideals.evaluate_ideal"):
        put(name + ".s", tr.seconds(name), "s")

    put("groebner.buchberger.calls", tr.calls("groebner.buchberger"), "count")
    put("groebner.buchberger.s", tr.seconds("groebner.buchberger"), "s")
    put("groebner.buchberger.unit_exits", c["groebner.buchberger.unit_exits"], "count")
    put("groebner.pairs.s", tr.calls("groebner.s_polynomial"), "count")
    put("groebner.pairs.g", tr.calls("groebner.gcd_polynomial"), "count")
    reductions = tr.calls("groebner.reduce_poly")
    put("groebner.reduce_poly.calls", reductions, "count")
    put("groebner.reduce_poly.zero_frac",
        c["groebner.reduce_poly.zero"] / reductions if reductions else 0.0, "frac")
    put("groebner.interreduce.s", tr.seconds("groebner.interreduce"), "s")
    put("groebner.basis.max_len", c["groebner.basis.max_len"], "count")
    put("groebner.basis.max_degree", c["groebner.basis.max_degree"], "count")
    put("groebner.basis.max_coeff_bits", c["groebner.basis.max_coeff_bits"], "bits")

    for name in ("snf.smith_normal_form", "snf.minors_gcd"):
        put(name + ".calls", tr.calls(name), "count")
        put(name + ".s", tr.seconds(name), "s")

    deciders = ("classify.classify_Z", "classify.classify_R")
    put("classify.ideal_based.s", tr.seconds("ideals.trivial_count_phi", deciders), "s")
    put("classify.forbidden_based.s", tr.seconds("graph.contains_induced", deciders), "s")
    put("classify.structural.s", tr.seconds("classify.structural", deciders), "s")
    put("classify.minimal_forbidden_ok.s", tr.seconds("classify.minimal_forbidden_ok"), "s")

    put("cli.self_s", tr.self_seconds("cli.main", "ideals.ideal_report"), "s")
    put("cli.out_bytes", traced_pass.counts["cli.out_bytes"], "bytes")

    for layer in common.LAYERS:
        put(layer + ".self_share", shares[layer], "frac")
    for layer in common.LAYERS:
        put(layer + ".loc", _loc(layer), "lines")
    put("trace.busy_s", traced_pass.busy_s, "s")
    put("trace.overhead_s", overhead_s, "s")
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the result, with its "
                        "workload and seed, to this JSON file")
    args = parser.parse_args(argv)

    try:
        mods, items, raw_setup, setup_times = setup(args.workload, args.seed)
    except common.MissingProgram as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    if args.trace:
        spans_path = os.path.join(common.OUT_DIR, "spans-%s-seed%d.jsonl"
                                  % (args.workload, args.seed))
        passes, metrics = traced(mods, items, spans_path)
        attempted = sum(len(p.latencies) for p in passes)
        failed = sum(p.failed for p in passes)
    else:
        def setup_again():
            raw, scaled = setup(args.workload, args.seed)[2:]
            raw_setup.extend(raw)
            setup_times.extend(scaled)

        # set-up is timed again after every pass, so that it samples the
        # machine's fast and slow spells the way the passes do
        passes = measure(items, args.seconds, setup_again)
        attempted, failed, metrics = end_to_end(passes, setup_times)
        print("items: %d in %d passes of %d, about %d beyond p90; set-up %d times"
              % (attempted, len(passes), len(items), attempted // 10, len(setup_times)))
        probes = [t for p in passes for t in p.probes]
        print("speed probe: median %.4g ms, reference %.4g ms; raw times:"
              % (1e3 * statistics.median(probes), 1e3 * speed.REF_PROBE_S))
        for name, value in timings([p.latencies for p in passes], raw_setup).items():
            print("  raw %-32s %14.6g" % (name, value))

    for name, metric in metrics.items():
        print("%-36s %14.6g %s" % (name, metric["value"], metric["unit"]))
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "trace": args.trace, "seconds": args.seconds,
                       "result": result}, fh, sort_keys=True)
            fh.write("\n")
    print(json.dumps(result, sort_keys=True))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
