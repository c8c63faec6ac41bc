import json
import os
import shlex

import jsonschema
import pytest

from distideal.cli import MAX_MINOR_N, main

SCHEMA_PATH = os.path.join(os.path.dirname(__file__), "..", "src",
                           "distideal", "schemas", "report-v1.schema.json")
with open(SCHEMA_PATH) as _fh:
    SCHEMA = json.load(_fh)
README_PATH = os.path.join(os.path.dirname(__file__), "..", "README.md")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return payload


def test_matrix_text(capsys):
    code, out, _ = run(capsys, "matrix", "--family", "complete:2")
    assert code == 0
    assert out.splitlines() == ["[x0   1]", "[ 1  x1]"]


def test_matrix_json(capsys):
    payload = run_json(capsys, "matrix", "--family", "cycle:4",
                       "--format", "json")
    assert payload["rows"][0] == ["x0", "1", "2", "1"]


def test_snf_complete4(capsys):
    code, out, _ = run(capsys, "snf", "--family", "complete:4")
    assert code == 0 and out.strip() == "1 1 1 3"


def test_snf_laplacian(capsys):
    payload = run_json(capsys, "snf", "--family", "star:2",
                       "--kind", "distance-laplacian", "--format", "json")
    assert payload["invariant_factors"] == [1, 5, 0]


def test_ideals_text_claw(capsys):
    code, out, _ = run(capsys, "ideals", "--edges-file",
                       _edges_file_claw(), "--ring", "Z")
    assert code == 0
    assert "Distance ideal of size 1 (trivial)" in out
    assert "Distance ideal of size 2 (nontrivial)" in out
    assert out.strip().endswith("phi = 1")


def _edges_file_claw(tmp=None):
    import tempfile
    fh = tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False)
    fh.write("4\n0 1\n0 2\n0 3\n")
    fh.close()
    return fh.name


def test_ideals_json_single_index(capsys):
    payload = run_json(capsys, "ideals", "--family", "cycle:4",
                       "--index", "2", "--ring", "Q", "--format", "json")
    assert len(payload["ideals"]) == 1
    rec = payload["ideals"][0]
    assert rec["i"] == 2 and rec["trivial"]


def test_charpoly(capsys):
    code, out, _ = run(capsys, "charpoly", "--family", "cycle:4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "lam^4 - 12*lam^2 - 16*lam"
    assert lines[1] == "integer roots: [-2, 0, 4]"


def test_charpoly_has_no_size_guard(capsys):
    code, out, err = run(capsys, "charpoly", "--family", "path:9")
    assert code == 0, err
    assert out.splitlines()[0].startswith("lam^9 - 540*lam^7")
    with pytest.raises(SystemExit) as exc:
        main(["charpoly", "--help"])
    assert exc.value.code == 0
    assert "--allow-large" not in capsys.readouterr().out


def test_allow_large_help_names_the_guard(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ideals", "--help"])
    assert exc.value.code == 0
    assert "n<=%d" % MAX_MINOR_N in capsys.readouterr().out


def test_classify_text(capsys):
    code, out, _ = run(capsys, "classify", "--ring", "R", "--nmax", "4")
    assert code == 0
    assert out.strip() == "pass 6/10, disagreements 0, minimal forbidden ok"


def test_classify_json_schema(capsys):
    payload = run_json(capsys, "classify", "--ring", "Z", "--nmax", "4",
                       "--format", "json")
    assert payload["passing"] == 7 and payload["disagreements"] == []


def test_families_verify(capsys):
    code, out, _ = run(capsys, "families", "verify")
    assert code == 0
    assert all(line.endswith("pass") for line in out.splitlines())


def test_corpus_counts(capsys):
    payload = run_json(capsys, "corpus", "--nmax", "5", "--format", "json")
    assert payload["counts"] == {"1": 1, "2": 1, "3": 2, "4": 6, "5": 21}
    assert len(payload["graphs"]) == 31


def test_exit_code_bad_graph6(capsys):
    code, _, err = run(capsys, "matrix", "--graph6", "B")
    assert code == 1 and "error:" in err


def test_exit_code_no_source(capsys):
    code, _, err = run(capsys, "snf")
    assert code == 1 and "exactly one" in err


def test_exit_code_two_sources(capsys):
    code, _, err = run(capsys, "matrix", "--graph6", "Bw",
                       "--family", "cycle:4")
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["ideals", "--family", "cycle:4", "--ring", "X"],
    ["ideals", "--family", "cycle:4", "--index", "two"],
    ["classify", "--jobs", "2"],
    ["classify", "--nmax"],
    ["bogus"],
    [],
])
def test_exit_code_usage_error(capsys, argv):
    # usage errors are bad input (1); 2 means a verification failure
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("usage: distideal") and "\nerror: " in err


@pytest.mark.parametrize("command", ["classify", "corpus"])
@pytest.mark.parametrize("nmax", ["0", "9"])
def test_nmax_out_of_range(capsys, command, nmax):
    # one bound with one message, met before any graph is enumerated
    code, out, err = run(capsys, command, "--nmax", nmax)
    assert (code, out) == (1, "")
    assert err == "error: n_max out of supported range 1..8\n"


def test_help_exits_zero(capsys):
    for argv in (["--help"], ["classify", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: distideal")


def _readme_commands():
    """The ``distideal ...`` lines of README's command-line block."""
    with open(README_PATH) as fh:
        text = fh.read()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    lines = block.split("```", 1)[0].splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines
            if line.startswith("distideal ")]


def test_readme_commands_exit_zero(capsys):
    commands = _readme_commands()
    assert len(commands) == 9
    for argv in commands:
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)


def test_family_spec_requires_params(capsys):
    code, _, err = run(capsys, "matrix", "--family", "cycle")
    assert code == 1


def test_repeat_runs_identical(capsys):
    a = run(capsys, "ideals", "--family", "star:3", "--format", "json")
    b = run(capsys, "ideals", "--family", "star:3", "--format", "json")
    assert a == b


def test_ideals_five_vertices_without_allow_large(capsys):
    code, out, err = run(capsys, "ideals", "--graph6", "D?{")
    assert code == 0, err
    assert out.strip().splitlines()[-1].startswith("phi = ")


def test_ideals_size_guard(capsys):
    code, out, err = run(capsys, "ideals", "--family", "path:9")
    assert code == 1 and not out
    assert "allow_large" in err


def test_jobs_ignores_environment(monkeypatch, capsys):
    # classification is serial: there is no --jobs, and DISTIDEAL_JOBS is
    # read nowhere
    from distideal.cli import build_parser
    monkeypatch.setenv("DISTIDEAL_JOBS", "x")
    assert not hasattr(build_parser().parse_args(["classify"]), "jobs")
    payload = run_json(capsys, "classify", "--nmax", "3", "--ring", "Z",
                       "--format", "json")
    assert payload["disagreements"] == []
    payload = run_json(capsys, "corpus", "--nmax", "2", "--format", "json")
    assert payload["counts"] == {"1": 1, "2": 1}


def test_family_spec_wrong_parameter_count(capsys):
    code, _, err = run(capsys, "matrix", "--family", "path:1,2")
    assert code == 1
    assert err == "error: family path takes 1 parameter, got 2\n"
    code, _, err = run(capsys, "matrix", "--family", "complete_bipartite:2")
    assert code == 1
    assert err == ("error: family complete_bipartite takes 2 parameters, "
                   "got 1\n")
    code, _, err = run(capsys, "matrix", "--family", "path:a")
    assert code == 1
    assert err == "error: family parameters must be integers, got 'a'\n"


def test_graph_over_vertex_bound(capsys, tmp_path):
    # rejected before any work, with the same message for every source
    for argv in (["snf", "--family", "path:63"],
                 ["snf", "--edges-file", _edges_file(tmp_path, "63\n0 1\n")]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == "error: graphs with n > 62 vertices unsupported\n"


def test_edges_file_over_vertex_bound_before_edges(capsys, tmp_path):
    # the header's bound comes before a malformed edge line is parsed
    path = _edges_file(tmp_path, "63\n0 1\n0 x\n")
    code, out, err = run(capsys, "snf", "--edges-file", path)
    assert code == 1 and out == ""
    assert err == "error: graphs with n > 62 vertices unsupported\n"


def _edges_file(tmp_path, text):
    path = tmp_path / "edges.txt"
    path.write_text(text)
    return str(path)


def test_edges_file_trailing_comment_on_edge_line(capsys, tmp_path):
    path = _edges_file(tmp_path, "# claw\n4\n0 1\n0 2 # spoke\n0 3\n")
    code, _, err = run(capsys, "matrix", "--edges-file", path)
    assert code == 1
    assert err == ("error: %s line 4: expected 2 integers (an edge u v), "
                   "got '0 2 # spoke'\n" % path)


def test_edges_file_header_with_extra_token(capsys, tmp_path):
    path = _edges_file(tmp_path, "\n3 extra\n0 1\n1 2\n")
    code, _, err = run(capsys, "matrix", "--edges-file", path)
    assert code == 1
    assert err == ("error: %s line 2: expected 1 integer (the vertex "
                   "count), got '3 extra'\n" % path)


def test_edges_file_bad_tokens(capsys, tmp_path):
    for text, line in (("x\n", 1), ("3\n0 1\n1\n", 3), ("3\n0 one\n", 2)):
        path = _edges_file(tmp_path, text)
        code, _, err = run(capsys, "matrix", "--edges-file", path)
        assert code == 1
        assert err.startswith("error: %s line %d: expected " % (path, line))
