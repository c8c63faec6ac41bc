"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import common  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, parse_rendered  # noqa: E402


@pytest.fixture(scope="module")
def mods():
    return common.import_program()


def _spec(section):
    with open(common.BENCHMARK_JSON) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def _metrics_units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


def _five_vertex_chain(items):
    return next(it for it in items if it.label.split()[1].startswith("D"))


def test_tampered_digest_fails(mods, monkeypatch):
    golden = common.load_golden()
    item = _five_vertex_chain(workloads.build_chains(mods, 3))
    result = run.run_pass([item])
    assert result.failed == 0

    _, g6, ring = item.label.split()
    tampered = dict(golden)
    tampered[g6, ring] = dict(golden[g6, ring], digest="0" * 64)
    monkeypatch.setattr(common, "load_golden", lambda: tampered)
    bad = next(it for it in workloads.build_chains(mods, 3)
               if it.label == item.label)
    result = run.run_pass([bad])
    attempted, failed, metrics = run.end_to_end([result], [0.1])
    assert (attempted, failed) == (1, 1)
    assert metrics["ok_frac"]["value"] < 1


def test_raising_item_fails():
    boom = workloads.Item("boom", lambda: 1 // 0, lambda value, counts: None)
    fine = workloads.Item("fine", lambda: 1, lambda value, counts: None)
    result = run.run_pass([fine, boom])
    attempted, failed, metrics = run.end_to_end([result], [0.1])
    assert (attempted, failed) == (2, 1)
    assert metrics["ok_frac"]["value"] == 0.5


def test_times_are_scaled_by_the_probes_around_them():
    ref = speed.REF_PROBE_S
    assert speed.scale([0.3, 0.2], [ref, 2 * ref, 3 * ref]) == pytest.approx([0.2, 0.08])
    result = run.PassResult()
    result.latencies, result.probes = [0.02, 0.04], [2 * ref] * 3
    _, _, metrics = run.end_to_end([result], [0.1])
    assert metrics["wall_s"]["value"] == pytest.approx(0.03)
    assert metrics["item_ms_p50"]["value"] == pytest.approx(15)
    with pytest.raises(ValueError):
        speed.scale([0.3], [ref])


def test_end_to_end_names_match_benchmark_json(mods):
    items = workloads.build_invariants(mods, 1)[:3]
    _, _, metrics = run.end_to_end([run.run_pass(items)], [0.1])
    assert _metrics_units(metrics) == _spec("end_to_end")


def test_per_layer_names_match_benchmark_json(mods, tmp_path):
    classify = [it for it in workloads.build_corpus(mods, 1)
                if it.label.startswith("classify D")][:1]
    items = (workloads.build_invariants(mods, 1)[:2] + classify
             + [_five_vertex_chain(workloads.build_chains(mods, 1))])
    passes, metrics = run.traced(mods, items, str(tmp_path / "spans.jsonl"))
    assert all(p.failed == 0 for p in passes)
    assert _metrics_units(metrics) == _spec("per_layer")
    for name in ("groebner.buchberger.calls", "snf.minors_gcd.calls",
                 "classify.ideal_based.s", "classify.forbidden_based.s",
                 "classify.structural.s", "cli.self_s", "ideals.minors.keep_frac"):
        assert metrics[name]["value"] > 0, name
    spans = [json.loads(line) for line in open(tmp_path / "spans.jsonl")]
    assert {s["item"] for s in spans} == {0, 1, 2, 3}


def test_tracer_restores_attributes(mods):
    before = {layer: dict(vars(getattr(mods, layer))) for layer in common.LAYERS}
    with pytest.raises(ZeroDivisionError):
        with Tracer(mods) as tracer:
            assert mods.groebner.buchberger is not before["groebner"]["buchberger"]
            tracer.item = 0
            mods.ideals.distance_ideal(mods.graph.family("path", 3), 2)
            1 // 0
    assert tracer.calls("ideals.distance_ideal") == 1
    after = {layer: dict(vars(getattr(mods, layer))) for layer in common.LAYERS}
    assert after == before


def test_traced_run_with_failing_item_restores_attributes(mods, tmp_path):
    before = {layer: dict(vars(getattr(mods, layer))) for layer in common.LAYERS}
    boom = workloads.Item("boom", lambda: mods.snf.minors_gcd([[1]], 2),
                          lambda value, counts: None)
    passes, _ = run.traced(mods, [boom], str(tmp_path / "spans.jsonl"))
    assert [p.failed for p in passes] == [1, 1, 1]
    after = {layer: dict(vars(getattr(mods, layer))) for layer in common.LAYERS}
    assert after == before


def test_parse_rendered(mods):
    poly = mods.poly
    vs = poly.make_vars(3)
    x0, x1 = (poly.Polynomial.variable(poly.QQ, vs, v) for v in vs[:2])
    p = x0 * x0 * x1 * 3 - x1 * Fraction(1, 2) + 5
    got = sorted((c, tuple(sorted(e.items()))) for c, e in parse_rendered(p.render()))
    assert got == sorted([(3, (("x0", 2), ("x1", 1))), (Fraction(-1, 2), (("x1", 1),)),
                          (5, ())])
    assert parse_rendered("-x2") == [(-1, {"x2": 1})]


@pytest.mark.parametrize("base,change,better,bound,expected", [
    ([10, 10.1, 9.9, 10, 10.2], [8, 8.1, 7.9, 8, 8.2], "lower", 0.1, "improved"),
    ([10, 10.1, 9.9, 10, 10.2], [12, 12.1, 11.9, 12, 12.2], "lower", 0.1, "worse"),
    ([10, 10.1, 9.9, 10, 10.2], [10.1, 10, 10.2, 9.9, 10], "lower", 0.1, "unchanged"),
    ([5, 10, 15, 10, 20], [10, 11, 9, 10, 10], "lower", 0.1, "unresolved"),
    ([7, 7, 7], [7, 7, 7], "higher", None, "unchanged"),
    ([7, 7, 7], [5, 5, 5], "higher", None, "worse"),
])
def test_compare_verdicts(base, change, better, bound, expected):
    seeds = range(len(base))
    v, _, _ = compare.verdict(dict(zip(seeds, base)), dict(zip(seeds, change)),
                              better, bound)
    assert v == expected


def test_fails_without_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(common.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
