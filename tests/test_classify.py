import pytest

from distideal.classify import (FORBIDDEN_R, FORBIDDEN_Z, classify,
                                classify_R, classify_Z, corpus_report,
                                is_complete, is_complete_bipartite, is_star,
                                minimal_forbidden_ok)
from distideal.graph import PATTERNS, build_graph, enumerate_connected, family


def test_structural_recognizers():
    assert is_complete(family("complete", 5))
    assert not is_complete(family("cycle", 4))
    assert is_complete_bipartite(family("cycle", 4))
    assert is_complete_bipartite(family("star", 4))
    assert not is_complete_bipartite(PATTERNS["paw"])
    assert is_star(family("star", 6))
    assert is_star(family("complete", 2))
    assert not is_star(family("cycle", 4))
    # odd cycle is not bipartite
    assert not is_complete_bipartite(family("cycle", 5))
    # bipartite but missing cross edges
    assert not is_complete_bipartite(family("path", 4))


def test_classify_z_examples():
    assert classify_Z(family("cycle", 4)).verdict
    assert classify_Z(family("complete", 5)).verdict
    assert classify_Z(family("complete_bipartite", 2, 3)).verdict
    assert not classify_Z(PATTERNS["paw"]).verdict
    assert not classify_Z(family("path", 4)).verdict
    assert not classify_Z(PATTERNS["diamond"]).verdict


def test_classify_r_examples():
    assert classify_R(family("complete", 3)).verdict
    assert classify_R(family("star", 5)).verdict
    assert not classify_R(family("cycle", 4)).verdict  # C4 fails over R
    assert not classify_R(PATTERNS["paw"]).verdict
    assert classify_Z(family("cycle", 4)).verdict  # but passes over Z


def test_classify_agreement_fields():
    rep = classify(family("star", 3), "R")
    assert rep.agreement and rep.ideal_based and rep.structural


def test_classify_disconnected_rejected():
    with pytest.raises(ValueError):
        classify_Z(build_graph(3, [(0, 1)]))


def test_forbidden_lists():
    assert set(FORBIDDEN_Z) < set(FORBIDDEN_R)
    assert "C4" in FORBIDDEN_R and "C4" not in FORBIDDEN_Z


def test_z_pass_implied_by_r_pass():
    # over the rationals the passing class is a subclass of the Z one
    for g in enumerate_connected(5):
        if classify_R(g).verdict:
            assert classify_Z(g).verdict


def test_minimal_forbidden():
    assert minimal_forbidden_ok("Z")
    assert minimal_forbidden_ok("R")


def test_corpus_report_n4_counts():
    rz = corpus_report(4, "Z")
    assert rz.ok
    assert rz.total == 10  # 1 + 1 + 2 + 6 connected graphs
    assert rz.per_size[4] == {"total": 6, "passing": 3}
    rr = corpus_report(4, "R")
    assert rr.ok
    assert rr.per_size[4] == {"total": 6, "passing": 2}


def test_corpus_report_json_shape():
    rep = corpus_report(3, "Z").to_json()
    assert rep["kind"] == "classify_summary"
    assert rep["disagreements"] == []
    assert rep["per_size"]["3"]["total"] == 2


def test_corpus_report_range():
    with pytest.raises(ValueError):
        corpus_report(0, "Z")
    with pytest.raises(ValueError):
        corpus_report(9, "Z")


def test_corpus_report_n7_both_rings():
    rz = corpus_report(7, "Z")
    assert rz.ok and rz.passing == 18
    assert [rz.per_size[n]["passing"] for n in range(1, 8)] == \
        [1, 1, 2, 3, 3, 4, 4]
    rr = corpus_report(7, "R")
    assert rr.ok and rr.passing == 12
    assert [rr.per_size[n]["passing"] for n in range(1, 8)] == \
        [1, 1, 2, 2, 2, 2, 2]


@pytest.mark.slow
def test_classification_theorem_n8(connected8):
    # the paper's theorem on all 11117 connected graphs with 8 vertices
    assert sum(g.n == 8 for g in connected8) == 11117
    assert len(connected8) == 12113
    for ring, expected in (("Z", [1, 1, 2, 3, 3, 4, 4, 5]),
                           ("R", [1, 1, 2, 2, 2, 2, 2, 2])):
        reports = [classify(g, ring) for g in connected8]
        assert all(rep.agreement for rep in reports), ring
        per_size = [0] * 8
        for rep in reports:
            per_size[rep.graph.n - 1] += rep.ideal_based
        assert per_size == expected, ring
        assert minimal_forbidden_ok(ring), ring


def test_classify_needs_no_groebner_basis(monkeypatch):
    # from n = 4 on, certificates settle I_1 and I_2 in both rings
    import distideal.groebner as groebner_mod

    def refuse(*args, **kwargs):
        raise AssertionError("buchberger called")

    monkeypatch.setattr(groebner_mod, "buchberger", refuse)
    for g in enumerate_connected(6):
        if g.n >= 4:
            assert classify_Z(g).agreement and classify_R(g).agreement
