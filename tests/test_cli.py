import contextlib
import io
import json
import math
import random
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cliquesep import (
    DomainError,
    Graph,
    density_from_json,
    density_to_json,
    graph_from_json,
    hub_law,
    law_from_json,
    law_to_json,
    normalize_by_enumeration,
    uniform_csf,
)
from cliquesep import cli, graphs, laws, markov
from cliquesep.cli import run_command
from cliquesep.graphs import MAX_VERTICES
from cliquesep.laws import DensityTable, _as_float, _density_from_obj
from conftest import random_csf


def run(capsys, *argv):
    status = run_command(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_enumerate_count(capsys):
    status, out, _ = run(capsys, "enumerate", "--n", "4", "--count-only")
    assert status == 0
    assert out == "61\n"


def test_enumerate_stream_is_deterministic(capsys):
    status, out1, _ = run(capsys, "enumerate", "--n", "3")
    assert status == 0
    lines = out1.strip().splitlines()
    assert len(lines) == 8
    assert json.loads(lines[0]) == {"edges": [], "n": 3}
    status, out2, _ = run(capsys, "enumerate", "--n", "3")
    assert out1 == out2


def test_enumerate_out_file(capsys, tmp_path):
    target = tmp_path / "graphs.txt"
    status, out, _ = run(capsys, "enumerate", "--n", "3", "--count-only", "--out", str(target))
    assert status == 0
    assert out == ""
    assert target.read_text() == "8\n"


def test_enumerate_out_file_matches_stdout(capsys, tmp_path):
    target = tmp_path / "graphs.txt"
    _, out, _ = run(capsys, "enumerate", "--n", "4")
    assert run(capsys, "enumerate", "--n", "4", "--out", str(target)) == (0, "", "")
    assert target.read_text() == out and out.count("\n") == 61


def test_enumerate_writes_each_graph_as_the_walk_yields_it(capsys, monkeypatch):
    def blocks(n):
        yield np.zeros(1, dtype=np.int64), np.zeros((1, n), dtype=np.uint8)
        raise RuntimeError("walk stopped after one graph")

    monkeypatch.setattr(cli, "_chordal_blocks", blocks)
    with pytest.raises(RuntimeError):
        run_command(["enumerate", "--n", "3"])
    assert capsys.readouterr().out == '{"edges": [], "n": 3}\n'


def test_counting_and_the_listing_never_build_the_table(capsys, monkeypatch):
    def table(n):
        raise AssertionError("the clique/separator table was built")

    for module in (graphs, laws, markov):  # wherever a module keeps its own name for the table
        monkeypatch.setattr(module, "_clique_separator_table", table)
    assert graphs.count_decomposable(5) == 822
    status, out, _ = run(capsys, "enumerate", "--n", "5")
    assert status == 0 and out.count("\n") == 822
    with pytest.raises(AssertionError):  # the patch holds: the graph views do read the table
        next(graphs.enumerate_decomposable(5))


def test_density_writes_each_block_as_it_is_made(capsys, monkeypatch):
    text = density_to_json(normalize_by_enumeration(uniform_csf(6)))  # 18,154 entries, five blocks
    blocks = []

    def dumps(obj):
        if blocks:
            raise RuntimeError("formatting stopped after one block")
        blocks.append(obj)
        return json.dumps(obj)

    monkeypatch.setattr(laws, "json", types.SimpleNamespace(dumps=dumps))
    with pytest.raises(RuntimeError):
        run_command(["density", "--n", "6"])
    out = capsys.readouterr().out
    assert out.startswith('{"n": 6, "entries": [{"edges": [], "p": ')
    assert out == text[: len(out)] and out.count('"edges"') == 4096


@pytest.mark.parametrize(
    "argv",
    [
        "enumerate --n 0",
        "enumerate --n 8",
        "density --n 3 --law hub --hubs 0 --psi-rate inf",
        "posterior --n 3 --data {rows}",
        "sample --n 3 --thin 0",
    ],
    ids=["0", "8", "density-empty-support", "posterior-column-mismatch", "sample-thin-0"],
)
def test_enumerate_bad_n_neither_creates_nor_truncates_the_out_file(capsys, tmp_path, argv):
    # Each command checks everything before its one writer opens --out.
    rows = tmp_path / "rows.csv"
    rows.write_text("0,1\n1,0\n")
    kept = tmp_path / "kept.txt"
    kept.write_text("earlier output\n")
    fresh = tmp_path / "fresh.txt"
    for target in (kept, fresh):
        status, out, err = run(capsys, *argv.format(rows=rows).split(), "--out", str(target))
        assert status == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    assert kept.read_text() == "earlier output\n"
    assert not fresh.exists()


def test_dim(capsys):
    status, out, _ = run(capsys, "dim", "--n", "4")
    assert status == 0 and out == "21 11\n"
    status, out, _ = run(capsys, "dim", "--n", "7")
    assert status == 0 and out == "239 120\n"


def test_dim_domain_error(capsys):
    status, _, err = run(capsys, "dim", "--n", "1")
    assert status == 1
    assert "error:" in err


def test_dim_beyond_vertex_cap_is_one_error_line(capsys):
    status, out, err = run(capsys, "dim", "--n", str(MAX_VERTICES + 1))
    assert status == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_density_uniform(capsys):
    status, out, _ = run(capsys, "density", "--law", "uniform", "--n", "3")
    assert status == 0
    table = density_from_json(out)
    assert len(table) == 8
    assert table.prob(Graph.empty(3)) == pytest.approx(1 / 8)


def test_density_hub_law(capsys):
    status, out, _ = run(
        capsys, "density", "--law", "hub", "--n", "4", "--hubs", "0",
        "--phi-rate", "1.0", "--psi-rate", "0.5",
    )
    assert status == 0
    table = density_from_json(out)
    expected = normalize_by_enumeration(hub_law(4, 1, 1.0, 0.5))
    for g, p in expected.items():
        assert table.prob(g) == pytest.approx(p, abs=1e-12)


def test_check_uniform(capsys):
    status, out, _ = run(capsys, "check", "--law", "uniform", "--n", "4", "--property", "wsm")
    assert status == 0
    obj = json.loads(out)
    assert obj["passed"] is True
    assert obj["worst_violation"] == 0.0
    assert obj["property"] == "wsm"
    assert obj["witness"] is None


def test_check_law_file_and_density_file(capsys, tmp_path):
    law_path = tmp_path / "law.json"
    law_path.write_text(law_to_json(hub_law(4, 1, 1.0, 0.5)))
    status, out, _ = run(capsys, "check", "--law", str(law_path), "--property", "ewsm")
    assert status == 0
    assert json.loads(out)["property"] == "ewsm"

    dens_path = tmp_path / "dens.json"
    status, out, _ = run(capsys, "density", "--law", "uniform", "--n", "4", "--out", str(dens_path))
    assert status == 0
    status, out, _ = run(capsys, "check", "--law", str(dens_path), "--property", "sm")
    assert status == 0
    assert json.loads(out)["passed"] is True


def test_check_rejects_bad_property(capsys):
    status, _, _ = run(capsys, "check", "--law", "uniform", "--n", "4", "--property", "bogus")
    assert status == 2


def test_fit_round_trip(capsys, tmp_path):
    dens_path = tmp_path / "dens.json"
    status, _, _ = run(capsys, "density", "--law", "uniform", "--n", "3", "--out", str(dens_path))
    assert status == 0
    status, out, err = run(capsys, "fit", "--law", str(dens_path))
    assert status == 0
    obj = json.loads(out)
    assert obj["n"] == 3
    assert obj["phi"]["overrides"][""] == pytest.approx(math.log(1 / 8))
    assert "reconstruction error" in err


def test_fit_rejects_law_without_full_support(capsys, tmp_path):
    law_path = tmp_path / "hub.json"
    law_path.write_text(law_to_json(hub_law(4, 1)))
    status, _, err = run(capsys, "fit", "--law", str(law_path))
    assert status == 1
    assert "error:" in err


def test_lemma_check(capsys):
    status, out, _ = run(capsys, "lemma-check", "--law", "uniform", "--n", "4")
    assert status == 0
    obj = json.loads(out)
    assert obj["passed"] is True
    assert obj["product_identity_max_deviation"] <= 1e-9
    assert obj["ratio_spread_max"] <= 1e-9


def test_ewsm_rank(capsys):
    status, out, _ = run(capsys, "ewsm-rank", "--n", "4")
    assert status == 0
    assert json.loads(out) == {
        "csf_dimension": 21,
        "free_dimension_bound": 36,
        "n": 4,
        "num_constraints_bound": 24,
        "rank": 24,
    }


def test_ewsm_rank_at_five_vertices(capsys):
    status, out, _ = run(capsys, "ewsm-rank", "--n", "5")
    assert status == 0
    obj = json.loads(out)
    assert (obj["rank"], obj["free_dimension_bound"]) == (695, 126)


def test_sample_output_format_and_determinism(capsys):
    args = ("sample", "--law", "uniform", "--n", "4", "--steps", "500", "--thin", "100", "--seed", "7")
    status, out1, _ = run(capsys, *args)
    assert status == 0
    lines = out1.strip().splitlines()
    assert len(lines) == 7  # init + 5 thinned + summary
    first = json.loads(lines[0])
    assert set(first) == {"step", "edges", "logd", "cliques", "max_clique"}
    assert first["step"] == 0
    summary = json.loads(lines[-1])
    assert "acceptance_rate" in summary and summary["steps"] == 500
    status, out2, _ = run(capsys, *args)
    assert out1 == out2
    status, out3, _ = run(capsys, *args[:-1], "8")
    assert out1 != out3


def test_sample_hub_law(capsys):
    status, out, _ = run(
        capsys, "sample", "--law", "hub", "--n", "6", "--hubs", "0,1",
        "--steps", "300", "--thin", "50", "--seed", "0",
    )
    assert status == 0
    lines = out.strip().splitlines()
    first = json.loads(lines[0])
    assert first["cliques"] == 5 and first["max_clique"] == 2  # star on hub 0


def test_posterior_subcommand(capsys, tmp_path):
    data = tmp_path / "rows.csv"
    data.write_text("0,1,0\n1,1,0\n0,0,1\n1,0,1\n")
    status, out, _ = run(capsys, "posterior", "--law", "uniform", "--n", "3", "--data", str(data))
    assert status == 0
    table = density_from_json(out)
    assert len(table) == 8
    header = tmp_path / "rows2.csv"
    header.write_text("a,b,c\n0,1,0\n1,1,0\n")
    status, _, _ = run(capsys, "posterior", "--law", "uniform", "--n", "3",
                       "--data", str(header), "--skip-header")
    assert status == 0


def test_posterior_column_mismatch(capsys, tmp_path):
    data = tmp_path / "rows.csv"
    data.write_text("0,1\n")
    status, _, err = run(capsys, "posterior", "--law", "uniform", "--n", "3", "--data", str(data))
    assert status == 1
    assert "columns" in err


def test_export_dot(capsys, tmp_path):
    gpath = tmp_path / "g.json"
    gpath.write_text('{"n":3,"edges":[[0,1],[1,2]]}')
    status, out, _ = run(capsys, "export-dot", "--graph", str(gpath), "--hubs", "1")
    assert status == 0
    assert "1 [style=filled];" in out
    assert "0 -- 1;" in out


def test_export_dot_bad_file(capsys, tmp_path):
    gpath = tmp_path / "bad.json"
    gpath.write_text('{"n":3,"edges":[[0,0]]}')
    status, _, err = run(capsys, "export-dot", "--graph", str(gpath))
    assert status == 1
    missing = tmp_path / "missing.json"
    status, _, err = run(capsys, "export-dot", "--graph", str(missing))
    assert status == 1


@pytest.mark.parametrize("argv", [
    pytest.param(["export-dot", "--graph", "<bytes>"], id="export-dot-undecodable-graph"),
    pytest.param(["check", "--law", "<bytes>"], id="check-undecodable-law"),
    pytest.param(["posterior", "--n", "2", "--data", "<bytes>"], id="posterior-undecodable-data"),
    pytest.param(["posterior", "--n", "2", "--data", "<csv>", "--alpha", "1e308"], id="posterior-overflowing-alpha"),
])
def test_unreadable_input_ends_in_one_error_line(capsys, tmp_path, argv):
    files = {"<bytes>": tmp_path / "bytes", "<csv>": tmp_path / "rows.csv"}
    files["<bytes>"].write_bytes(b"\xff\xfe")
    files["<csv>"].write_text("0,1\n1,0\n")
    status, out, err = run(capsys, *[str(files.get(a, a)) for a in argv])
    assert status == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_usage_errors(capsys):
    assert run(capsys, "bogus")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "posterior", "--law", "uniform", "--n", "3")[0] == 2  # --data required
    assert run(capsys, "enumerate")[0] == 1  # --n missing is a domain error


def test_law_n_mismatch(capsys, tmp_path):
    law_path = tmp_path / "law.json"
    law_path.write_text(law_to_json(uniform_csf(4)))
    status, _, err = run(capsys, "check", "--law", str(law_path), "--n", "5")
    assert status == 1
    assert "disagrees" in err


@pytest.mark.parametrize("argv", [
    pytest.param(["sample", "--steps", "1"], id="sample"),
    pytest.param(["density"], id="density"),
    pytest.param(["posterior", "--data", "<csv>"], id="posterior"),
])
def test_law_commands_refuse_a_density_file(capsys, tmp_path, argv):
    files = {"<density>": tmp_path / "density.json", "<csv>": tmp_path / "rows.csv"}
    files["<density>"].write_text(density_to_json(normalize_by_enumeration(uniform_csf(2))))
    files["<csv>"].write_text("0,1\n1,0\n")
    status, out, err = run(capsys, *[str(files.get(a, a)) for a in argv + ["--law", "<density>"]])
    assert (status, out, err) == (1, "", "error: this subcommand needs a law, not a density table\n")


def test_lemma_check_refuses_a_density_with_zeros(capsys):
    # The hub law's infinite separator potentials zero every graph with a separator that misses hub 0.
    status, out, err = run(capsys, "lemma-check", "--law", "hub", "--hubs", "0", "--n", "4")
    assert (status, out, err) == (1, "", "error: density must be strictly positive here\n")


@pytest.mark.parametrize(
    "command, content",
    [
        pytest.param("density", '{"n": 3, "phi": {"rule": {"type": "exp_linear"}}, "psi": {}}',
                     id="rule-without-rate"),
        pytest.param("density", '{"n": 3, "phi": {"rule": {"type": "quadratic", "coef": "x"}}, "psi": {}}',
                     id="rule-with-text-coef"),
        pytest.param("density", '{"n": 3, "phi": {}, "psi": {"overrides": {"0": null}}}',
                     id="null-override"),
        pytest.param("density", '{"n": 3, "phi": {"rule": {"type": "const", "val',
                     id="truncated-law"),
        pytest.param("check", '5', id="law-not-an-object"),
        pytest.param("check", '{"n": 2, "entries": [{"edges": [], "p": 0.5',
                     id="truncated-density"),
        pytest.param("check", '{"n": 2, "entries": [{"p": 0.5}, {"edges": [[0, 1]], "p": 0.5}]}',
                     id="entry-without-edges"),
        pytest.param("check", '{"n": 2, "entries": [{"edges": [[0]], "p": 0.5}, {"edges": [[0, 1]], "p": 0.5}]}',
                     id="entry-with-short-edge"),
        pytest.param("check", '{"n": 2, "entries": [{"edges": [], "p": "x"}, {"edges": [[0, 1]], "p": 0.5}]}',
                     id="entry-with-text-p"),
        pytest.param("density", '{"n": 3, "phi": {"overrides": []}, "psi": {}}',
                     id="overrides-not-an-object"),
        pytest.param("density", '{"n": 3, "phi": {}, "psi": {"hub_constraint": []}}',
                     id="hub-constraint-not-an-object"),
        pytest.param("density", '{"n": 3, "phi": {}, "psi": {"hub_constraint": {"no_hub": "inf"}}}',
                     id="hub-constraint-without-hubs"),
        pytest.param("density", '{"n": 3, "phi": {}, "psi": {"hub_constraint": {"hubs": ["a"], "no_hub": "inf"}}}',
                     id="text-hub"),
        pytest.param("density", '{"n": 3, "phi": {}, "psi": {"hub_constraint": {"hubs": 5, "no_hub": "inf"}}}',
                     id="hubs-not-an-array"),
        pytest.param("density", '{"n": 3, "phi": {}, "psi": {"hub_constraint": {"hubs": [-1], "no_hub": "inf"}}}',
                     id="negative-hub"),
        pytest.param("density", '{"n": 3, "phi": {}, "psi": {"hub_constraint": {"hubs": [0, 0], "no_hub": "inf"}}}',
                     id="repeated-hub"),
        # Two keys that name one set: the later value would silently win.
        pytest.param("density", '{"n": 3, "phi": {"overrides": {"0,1": 1.0, "1,0": 2.0}}, "psi": {}}',
                     id="override-set-named-twice"),
        pytest.param("density", '{"n": 3, "phi": {}, "psi": {"overrides": {"2": 1.0, "02": 2.0}}}',
                     id="override-vertex-written-twice"),
        # JSON true and false are not integers, although bool subclasses int.
        pytest.param("check", '{"n": 2, "entries": [{"edges": [], "p": 0.5}, {"edges": [[false, true]], "p": 0.5}]}',
                     id="boolean-vertices"),
        pytest.param("check", '{"n": true, "entries": [{"edges": [], "p": 1.0}]}', id="boolean-density-n"),
        pytest.param("density", '{"n": true}', id="boolean-law-n"),
        pytest.param("density", '{"n": 3, "phi": {}, "psi": {"hub_constraint": {"hubs": [true], "no_hub": "inf"}}}',
                     id="boolean-hub"),
        pytest.param("export-dot", '{"n": 2, "edges": [[false, true]]}', id="boolean-graph-vertices"),
        pytest.param("check", "[" * 100_000, id="nested-too-deep"),
        pytest.param("export-dot", "[" * 100_000, id="graph-nested-too-deep"),
        pytest.param("check", '{"n": 2, "entries": [{"edges": [], "p": 0.0}, {"edges": [[0, 1]], "p": true}]}',
                     id="boolean-p"),
        pytest.param("density", '{"n": 3, "phi": {"rule": {"type": "exp_linear", "rate": true}}, "psi": {}}',
                     id="boolean-rule-field"),
        pytest.param("density", '{"n": 3, "phi": {}, "psi": {"overrides": {"0": false}}}',
                     id="boolean-override"),
        pytest.param("density", '{"n": 3, "phi": {"rule": {"type": "exp_linear", "rate": 1' + "0" * 400 + '}}, "psi": {}}',
                     id="rate-beyond-float-range"),
        pytest.param("check", '{"n": -1, "entries": []}', id="negative-density-n"),
        pytest.param("check", '{"n": 3, "edges": [[0, 1]]}', id="graph-file-as-law"),
        pytest.param("density", '{"n": 3, "phi": {}, "psi": {"rule": {"type": "exp_linear", "rate": "nan"}}}',
                     id="nan-rate"),
        pytest.param("density", '{"n": 3, "phi": {}, "psi": {"rule": {"type": "const", "value": "-inf"}}}',
                     id="infinite-const-value"),
        pytest.param("check", '{"n": 3, "phi": {}, "psi": {"rule": {"type": "quadratic", "coef": Infinity}}}',
                     id="infinite-coef"),
        # Numbers written as JSON strings are not numbers; only the "inf" override is a string.
        pytest.param("check", '{"n": 2, "entries": [{"edges": [], "p": "0.5"}, {"edges": [[0, 1]], "p": 0.5}]}',
                     id="numeric-string-p"),
        pytest.param("density", '{"n": 3, "phi": {"rule": {"type": "exp_linear", "rate": "4"}}, "psi": {}}',
                     id="numeric-string-rate"),
        pytest.param("density", '{"n": 3, "phi": {"overrides": {"0,1": "0.5"}}, "psi": {}}',
                     id="numeric-string-override"),
    ],
)
def test_malformed_law_or_density_file_is_a_domain_error(capsys, tmp_path, command, content):
    path = tmp_path / "bad.json"
    path.write_text(content)
    status, out, err = run(capsys, command, "--graph" if command == "export-dot" else "--law", str(path))
    assert status == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("parse, what", [(graph_from_json, "graph"), (law_from_json, "law"), (density_from_json, "density")])
def test_json_nested_too_deep_is_a_domain_error(parse, what):
    # Also an integer literal past the interpreter's digit limit, where there is one (0 means none).
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    for text in ["[" * 100_000] + (['{"n": ' + "1" * (limit + 1) + "}"] if limit else []):
        with pytest.raises(DomainError, match=f"invalid {what} JSON"):
            parse(text)


@pytest.mark.parametrize("kind", ["law", "density"])
def test_law_file_is_parsed_once(capsys, tmp_path, monkeypatch, kind):
    law = random_csf(3, seed=1)
    path = tmp_path / f"{kind}.json"
    path.write_text(law_to_json(law) if kind == "law" else density_to_json(normalize_by_enumeration(law)))
    calls = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda *a, **k: calls.append(1) or loads(*a, **k))
    status, out, _ = run(capsys, "check", "--law", str(path))
    assert len(calls) == 1
    assert status == 0 and loads(out)["passed"]


@pytest.mark.parametrize("argv", [
    ["check", "--law", "<density>"],
    ["fit", "--law", "<density>"],
    ["check", "--law", "uniform", "--n", "5"],
    ["lemma-check", "--law", "<density>"],
    ["lemma-check", "--law", "uniform", "--n", "5"],
], ids=["check-density", "fit-density", "check-law", "lemma-check-density", "lemma-check-law"])
def test_each_command_walks_the_graphs_once(capsys, tmp_path, monkeypatch, argv):
    # The density parser, the normalisation and the decomposition index all
    # read the one cached clique/separator table of n vertices.
    path = tmp_path / "density.json"
    path.write_text(density_to_json(normalize_by_enumeration(random_csf(5, seed=5))))
    blocks = graphs._chordal_blocks
    calls = []
    for module in (graphs, laws):  # wherever a module keeps its own name for the blocks
        if hasattr(module, "_chordal_blocks"):
            monkeypatch.setattr(module, "_chordal_blocks", lambda n: calls.append(n) or blocks(n))
    graphs._clique_separator_table.cache_clear()
    markov._pair_tables.cache_clear()
    status, _, _ = run(capsys, *[str(path) if a == "<density>" else a for a in argv])
    assert status == 0 and calls == [5]


@pytest.mark.parametrize("hubs", [None, ""])
def test_hub_law_needs_hubs(capsys, hubs):
    argv = ["sample", "--law", "hub", "--n", "4", "--steps", "10"]
    if hubs is not None:
        argv += ["--hubs", hubs]
    status, out, err = run(capsys, *argv)
    assert status == 1
    assert out == ""
    assert err == "error: --law hub needs a non-empty --hubs list\n"


@pytest.mark.parametrize("argv, message", [
    (["density", "--n", "4", "--law", "hub", "--hubs", "0,0"], "--hubs '0,0' must list distinct vertex indices in 0..3"),
    (["density", "--n", "4", "--law", "hub", "--hubs", "9"], "--hubs '9' must list distinct vertex indices in 0..3"),
    (["density", "--law", "hub", "--hubs", "x"], "--n is required here"),
    (["export-dot", "--graph", "<graph>", "--hubs", "0,0"], "--hubs '0,0' must list distinct vertex indices in 0..2"),
    # Only plain ASCII decimal, as the writer writes: int() reads each of these as a vertex.
    (["sample", "--n", "12", "--law", "hub", "--hubs", "1_0", "--steps", "1"],
     "--hubs '1_0' must list distinct vertex indices in 0..11"),
    (["density", "--n", "4", "--law", "hub", "--hubs", " 1"], "--hubs ' 1' must list distinct vertex indices in 0..3"),
    (["density", "--n", "4", "--law", "hub", "--hubs", "+1"], "--hubs '+1' must list distinct vertex indices in 0..3"),
    (["density", "--n", "4", "--law", "hub", "--hubs", "\u0661"],
     "--hubs '\u0661' must list distinct vertex indices in 0..3"),
], ids=["density-repeated", "density-out-of-range", "density-n-first", "export-dot-repeated",
        "underscore", "space", "plus-sign", "arabic-indic-digit"])
def test_hubs_flag_lists_distinct_vertices(capsys, tmp_path, argv, message):
    path = tmp_path / "g.json"
    path.write_text('{"n": 3, "edges": [[0, 1]]}')
    status, out, err = run(capsys, *[str(path) if a == "<graph>" else a for a in argv])
    assert (status, out, err) == (1, "", f"error: {message}\n")


# Every integer is at most 5 or beyond the vertex cap, wherever it lands,
# so no generated ``n`` enumerates more than the 822 graphs on 5 vertices.
_ints = st.integers(max_value=5) | st.integers(min_value=MAX_VERTICES + 1, max_value=10**400)
_values = st.recursive(
    st.none() | st.booleans() | _ints | st.floats() | st.text(max_size=3)
    | st.sampled_from(["inf", "exp_linear", "const", "quadratic"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
_rule = st.fixed_dictionaries({}, optional={
    "type": st.sampled_from(["exp_linear", "const", "quadratic"]) | _values,
    "rate": _values, "value": _values, "coef": _values,
})
_table = st.fixed_dictionaries({}, optional={
    "rule": _rule | _values,
    "overrides": st.dictionaries(st.sampled_from(["", "0", "1,2", "0,0", "9", "x"]), _values, max_size=3) | _values,
    "hub_constraint": st.fixed_dictionaries({}, optional={"hubs": st.lists(_ints) | _values,
                                                          "no_hub": st.just("inf") | _values}) | _values,
})
_edges = st.lists(st.lists(_ints, min_size=2, max_size=2) | _values, max_size=4) | _values
_entry = st.fixed_dictionaries({}, optional={"edges": _edges, "p": _values})
_documents = (
    st.fixed_dictionaries({}, optional={"n": _ints | _values, "phi": _table | _values, "psi": _table | _values})
    | st.fixed_dictionaries({}, optional={"n": _ints | _values, "entries": st.lists(_entry | _values, max_size=4) | _values})
    | st.fixed_dictionaries({}, optional={"n": _ints | _values, "edges": _edges})
    | _values
)


@given(doc=_documents)
@settings(max_examples=300, deadline=None)
def test_parsers_and_check_accept_or_reject_any_json(doc, tmp_path_factory):
    text = json.dumps(doc)
    for parse in (graph_from_json, law_from_json, density_from_json):
        try:
            parse(text)
        except DomainError:
            pass
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = run_command(["check", "--law", str(path)])
    if status != 0:
        assert status == 1 and out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["sample", "--n", "1", "--steps", "1"],
    ["density", "--n", "-1", "--law", "hub", "--hubs", "0"],
    ["sample", "--n", "4", "--law", "hub", f"--hubs=0,{10**400}"],
    ["ewsm-rank", "--n", "7"],
    ["sample", "--n", "3", "--seed", "-1"],
    ["sample", "--n", "3", "--seed", str(2**64)],
])
def test_bad_integer_flags_end_in_one_error_line(capsys, argv):
    status, out, err = run(capsys, *argv)
    assert status == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


_HUB4 = ["--n", "4", "--law", "hub", "--hubs", "0"]


@pytest.mark.parametrize("argv", [
    pytest.param(["density", "--n", "3", "--law", "hub", "--hubs", "0", "--psi-rate", "inf"], id="density-inf-rate"),
    pytest.param(["sample", "--n", "3", "--law", "hub", "--hubs", "0", "--phi-rate", "nan"], id="sample-nan-rate"),
    pytest.param(["check", "--n", "3", "--law", "hub", "--hubs", "0", "--phi-rate=-inf"], id="check-inf-rate"),
    pytest.param(["check", "--n", "3", "--tol", "nan"], id="check-nan-tol"),
    pytest.param(["check", "--n", "3", "--tol", "-1"], id="check-negative-tol"),
    pytest.param(["check", "--n", "3", "--tol", "inf"], id="check-inf-tol"),
    pytest.param(["lemma-check", "--n", "3", "--tol", "nan"], id="lemma-check-nan-tol"),
    # Finite rates whose log-density sums overflow to +inf.
    pytest.param(["density", *_HUB4, "--phi-rate", "0", "--psi-rate", "1e308"], id="density-overflow"),
    pytest.param(["sample", *_HUB4, "--phi-rate", "0", "--psi-rate", "1e308", "--steps", "5"], id="sample-overflow"),
    pytest.param(["check", *_HUB4, "--phi-rate", "0", "--psi-rate", "1e308"], id="check-overflow"),
])
def test_bad_float_flags_end_in_one_error_line(capsys, argv):
    status, out, err = run(capsys, *argv)
    assert status == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# Which integer and float flags each command takes; ``--law`` picks the law
# the others feed.
_FLAGS = {
    "enumerate": ("--n",),
    "dim": ("--n",),
    "ewsm-rank": ("--n",),
    "density": ("--n", "--law", "--hubs", "--phi-rate", "--psi-rate"),
    "check": ("--n", "--law", "--hubs", "--phi-rate", "--psi-rate", "--tol"),
    "sample": ("--n", "--law", "--hubs", "--phi-rate", "--psi-rate", "--steps", "--thin", "--seed"),
}
# Valid sizes and hubs are drawn often, so that commands also get to exit
# 0; so are the extremes of the floats, where potentials overflow.
_floats = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 0.0])
_FLAG_VALUES = {
    "--n": st.integers(min_value=1, max_value=5) | _ints,
    "--law": st.sampled_from(["uniform", "hub"]),
    "--hubs": st.lists(st.integers(min_value=0, max_value=4) | _ints, max_size=3).map(lambda vs: ",".join(map(str, vs))),
    "--phi-rate": _floats,
    "--psi-rate": _floats,
    "--tol": _floats,
    "--steps": st.integers(max_value=30),
    "--thin": _ints,
    "--seed": _ints,
}


@given(command=st.sampled_from(sorted(_FLAGS)), data=st.data())
@settings(max_examples=300, deadline=None)
def test_integer_flags_exit_zero_or_one_error_line(command, data):
    argv = [command]
    for flag in _FLAGS[command]:
        value = data.draw(st.none() | _FLAG_VALUES[flag], label=flag)
        if value is not None:
            argv.append(f"{flag}={value}")  # one token, so "-3,4" is not read as a flag
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = run_command(argv)
    if status != 0:
        assert status == 1 and out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:  # JSON has no NaN or Infinity
        assert "NaN" not in out.getvalue() and "Infinity" not in out.getvalue()


# Valid documents with n <= 3, each changed by one drawn mutation, so that
# most of them still load and ``check`` gets to run on them.
_BASE_LAWS = {"uniform": uniform_csf, "hub": lambda n: hub_law(n, [0]), "random": lambda n: random_csf(n, 7)}


@st.composite
def _mutated_documents(draw):
    n = draw(st.integers(min_value=1, max_value=3), label="n")
    law = _BASE_LAWS[draw(st.sampled_from(sorted(_BASE_LAWS)), label="law")](n)
    anything = _values | _floats
    if draw(st.booleans(), label="density"):
        doc = json.loads(density_to_json(normalize_by_enumeration(law)))
        entries = doc["entries"]
        k = draw(st.integers(min_value=0, max_value=len(entries) - 1), label="entry")
        mutation = draw(st.sampled_from(["shuffle", "drop", "duplicate", "n", "p", "edges"]), label="mutation")
        if mutation == "shuffle":
            doc["entries"] = draw(st.permutations(entries))
        elif mutation == "drop":
            del entries[k]
        elif mutation == "duplicate":
            entries.insert(draw(st.integers(min_value=0, max_value=len(entries))), dict(entries[k]))
        elif mutation == "n":
            doc["n"] = draw(anything)
        else:
            entries[k][mutation] = draw(anything)
        return doc
    doc = json.loads(law_to_json(law))
    table = doc[draw(st.sampled_from(["phi", "psi"]), label="table")]
    overrides = list(table["overrides"].items())
    mutation = draw(st.sampled_from(["shuffle", "drop", "n", "rule"]), label="mutation")
    if mutation == "shuffle":
        table["overrides"] = dict(draw(st.permutations(overrides)))
    elif mutation == "drop" and overrides:
        del table["overrides"][draw(st.sampled_from(overrides))[0]]
    elif mutation == "n":
        doc["n"] = draw(anything)
    elif mutation == "rule":
        table["rule"][draw(st.sampled_from(sorted(table["rule"])))] = draw(anything)
    return doc


@given(doc=_mutated_documents())
@settings(max_examples=300, deadline=None)
def test_check_on_mutated_laws_and_densities_exits_zero_or_one_error_line(doc, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = run_command(["check", "--law", str(path)])
    if status != 0:
        assert status == 1 and out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert "NaN" not in out.getvalue() and "Infinity" not in out.getvalue()
        assert json.loads(out.getvalue())["property"] == "wsm"


@given(n=st.integers(min_value=1, max_value=4), seed=st.integers(0, 100), data=st.data())
@settings(max_examples=30, deadline=None)
def test_shuffled_density_parses_to_the_same_table(n, seed, data):
    doc = json.loads(density_to_json(normalize_by_enumeration(random_csf(n, seed))))
    table = density_from_json(json.dumps(doc))
    doc["entries"] = data.draw(st.permutations(doc["entries"]), label="entries")
    shuffled = density_from_json(json.dumps(doc))
    assert (shuffled.masks, shuffled.p) == (table.masks, table.p)


# The density parser against the one that built a ``Graph`` per entry.


def graph_keyed_density_from_obj(obj):
    """The density parser that keyed its entries by ``Graph``, as the oracle:
    a graph per entry, checked by ``Graph`` itself, then the coverage and
    sum checks of ``DensityTable``."""
    if not isinstance(obj, dict) or "n" not in obj or "entries" not in obj:
        raise DomainError("density JSON must have fields 'n' and 'entries'")
    n = obj["n"]
    if type(n) is not int or not isinstance(obj["entries"], list):
        raise DomainError("density 'n' must be an integer and 'entries' an array")
    probs = {}
    for entry in obj["entries"]:
        if not isinstance(entry, dict) or "edges" not in entry or "p" not in entry:
            raise DomainError("each density entry must be an object with fields 'edges' and 'p'")
        edges = entry["edges"]
        if not isinstance(edges, list) or not all(
            isinstance(e, list) and len(e) == 2 and all(type(v) is int for v in e) for e in edges
        ):
            raise DomainError("'edges' must be an array of 2-element arrays of vertex indices")
        g = Graph(n, [tuple(e) for e in edges])
        p = _as_float(entry["p"], "entry probability")
        if p < 0.0 or not math.isfinite(p):
            raise DomainError("probabilities must be finite and nonnegative")
        if g in probs:
            raise DomainError(f"duplicate entry for {g!r}")
        probs[g] = p
    return DensityTable(n, probs)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("law", ["random", "hub"])
def test_density_parser_matches_the_graph_keyed_parser(n, law):
    law = random_csf(n, seed=n) if law == "random" else hub_law(n, [0])  # the hub law has zeros
    doc = json.loads(density_to_json(normalize_by_enumeration(law)))
    random.Random(n).shuffle(doc["entries"])
    for entry in doc["entries"]:
        entry["edges"] = [e[::-1] for e in entry["edges"][::-1]]
    ours, oracle = _density_from_obj(doc), graph_keyed_density_from_obj(doc)
    assert (ours.n, ours.masks, ours.p) == (oracle.n, oracle.masks, oracle.p)


def _set(key, value):
    return lambda doc, entry: entry.__setitem__(key, value)


def _set_edges(edges):
    return _set("edges", edges)


# Each changes one entry of the n=4 uniform density, or the document around it.
_MALFORMED = {
    "entry-not-an-object": lambda doc, entry: doc["entries"].append([entry]),
    "entry-without-edges": lambda doc, entry: entry.pop("edges"),
    "entry-without-p": lambda doc, entry: entry.pop("p"),
    "edges-text": _set_edges("x"),
    "edges-number": _set_edges(5),
    "edges-null": _set_edges(None),
    "edges-object": _set_edges({"0": 1}),
    "edge-not-an-array": _set_edges([5]),
    "short-edge": _set_edges([[0]]),
    "long-edge": _set_edges([[0, 1, 2]]),
    "boolean-vertex": _set_edges([[False, True]]),
    "float-vertex": _set_edges([[0.0, 1]]),
    "text-vertex": _set_edges([["0", 1]]),
    "self-loop": _set_edges([[0, 1], [2, 2]]),
    "vertex-out-of-range": _set_edges([[0, 4]]),
    "negative-vertex": _set_edges([[-1, 0]]),
    "huge-vertex": _set_edges([[0, 10**30]]),
    "duplicate-edge": _set_edges([[0, 1], [1, 0]]),
    "self-loop-after-duplicate": _set_edges([[0, 1], [0, 1], [3, 3]]),
    "chordless-cycle": _set_edges([[0, 1], [1, 2], [2, 3], [0, 3]]),
    "p-text": _set("p", "x"),
    "p-null": _set("p", None),
    "p-array": _set("p", []),
    "p-negative": _set("p", -0.5),
    "p-nan": _set("p", "nan"),
    "p-infinite": _set("p", math.inf),
    "p-doubled": lambda doc, entry: entry.__setitem__("p", 2 * entry["p"] + 0.1),
    "duplicate-entry": lambda doc, entry: doc["entries"].append(dict(entry)),
    "duplicate-graph": lambda doc, entry: doc["entries"].append(
        {"edges": [e[::-1] for e in entry["edges"][::-1]], "p": 0.0}),
    "dropped-entry": lambda doc, entry: doc["entries"].remove(entry),
    "entries-not-an-array": lambda doc, entry: doc.__setitem__("entries", {"0": entry}),
    **{f"n={n!r}": (lambda n: lambda doc, entry: doc.__setitem__("n", n))(n)
       for n in (0, -1, 3, 5, 8, MAX_VERTICES + 1, 10**30, True, "4", 4.0, None)},
}


@pytest.mark.parametrize("mutation", sorted(_MALFORMED))
def test_malformed_density_gives_the_graph_keyed_parsers_error(capsys, tmp_path, monkeypatch, mutation):
    base = json.loads(density_to_json(normalize_by_enumeration(uniform_csf(4))))
    for k in (0, 30, len(base["entries"]) - 1):  # the empty graph, a middle one, the complete graph
        doc = json.loads(json.dumps(base))
        _MALFORMED[mutation](doc, doc["entries"][k])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        results = [run(capsys, "check", "--law", str(path))]
        # The oracle reads the document that json.loads makes, with every entry a dict.
        monkeypatch.setattr(cli, "_read_table", lambda _: json.loads(path.read_bytes()))
        monkeypatch.setattr(cli, "_density_from_obj", graph_keyed_density_from_obj)
        results.append(run(capsys, "check", "--law", str(path)))
        monkeypatch.undo()
        (status, out, err), oracle = results
        assert status == 1 and out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert (status, out, err) == oracle


# The reader keeps each well-formed density entry without its dict and lists
# (``graphs._Entry``); everything else must read as ``json.loads`` reads it.


def test_streamed_density_matches_the_graph_keyed_parser():
    for n in range(1, 7):
        text = density_to_json(normalize_by_enumeration(random_csf(n, seed=n)))
        assert all(type(e) is graphs._Entry for e in graphs._json_value(text, "density")["entries"])
        ours, oracle = density_from_json(text), graph_keyed_density_from_obj(json.loads(text))
        assert (ours.n, ours.masks, ours.p) == (oracle.n, oracle.masks, oracle.p)


_D3 = density_to_json(normalize_by_enumeration(uniform_csf(3)))
_ENTRY = '{"edges": [[0, 1]], "p": 0.125}'
_LOOKALIKE = '{"edges": [], "p": 1}'

# Each document with the result that the parser of a whole tree gave: the
# table of the unchanged n=3 density, or an error text.
_READER_CASES = {
    "repeated-p": (_D3.replace(_ENTRY, '{"edges": [[0, 1]], "p": 0.5, "p": 0.125}'), "table"),
    "repeated-edges": (_D3.replace(_ENTRY, '{"edges": [[5, 5]], "edges": [[0, 1]], "p": 0.125}'), "table"),
    "repeated-edges-last-bad": (_D3.replace(_ENTRY, '{"edges": [[0, 1]], "p": 0.125, "edges": [[1, 1]]}'),
                                "self-loop at vertex 1"),
    "n-after-entries": ('{"entries": ' + _D3[len('{"n": 3, "entries": '):-1] + ', "n": 3}', "table"),
    "n-after-entries-too-small": ('{"entries": ' + _D3[len('{"n": 3, "entries": '):-1] + ', "n": 2}',
                                  "edge (0,2) out of range for n=2"),
    "first-vertex-past-n-in-list-order": (_D3.replace("[[0, 1], [0, 2]]", "[[3, 4], [0, 5]]"),
                                          "edge (3,4) out of range for n=3"),
    "duplicate-entry": (_D3.replace("[[0, 2]]", "[[0, 1]]"), "duplicate entry for Graph(n=3, edges=[(0, 1)])"),
    "n=8": (_D3.replace('"n": 3', '"n": 8'), "enumeration over 8 vertices exceeds the limit of 7"),
    "n=1024": (_D3.replace('"n": 3', '"n": 1024'), "enumeration over 1024 vertices exceeds the limit of 7"),
    "n=1025": (_D3.replace('"n": 3', '"n": 1025'), "vertex count must be in 1..1024, got 1025"),
    "p-lookalike": (_D3.replace('"p": 0.125}', f'"p": {_LOOKALIKE}}}', 1),
                    "entry probability must be a number, got {'edges': [], 'p': 1}"),
    "p-lookalike-in-list": (_D3.replace('"p": 0.125}', '"p": [{"edges": [[0, 1]], "p": 1}]}', 1),
                            "entry probability must be a number, got [{'edges': [[0, 1]], 'p': 1}]"),
    "entries-lookalike": ('{"n": 3, "entries": ' + _LOOKALIKE + "}",
                          "density 'n' must be an integer and 'entries' an array"),
}


@pytest.mark.parametrize("case", sorted(_READER_CASES))
def test_density_reader_gives_the_whole_tree_parsers_result(case):
    text, expected = _READER_CASES[case]
    if expected == "table":
        ours, before = density_from_json(text), density_from_json(_D3)
        assert (ours.n, ours.masks, ours.p) == (before.n, before.masks, before.p)
    else:
        with pytest.raises(DomainError) as raised:
            density_from_json(text)
        assert str(raised.value) == expected


@pytest.mark.parametrize("text, expected", [
    ('{"n": 3, "phi": ' + _LOOKALIKE + ', "psi": {}}', None),  # loads: the default table
    ('{"n": 3, "phi": {"overrides": ' + _LOOKALIKE + '}, "psi": {}}',
     "override key 'edges' must list distinct vertex indices in 0..2"),
    ('{"n": 3, "phi": {"overrides": {"0": [' + _LOOKALIKE + ']}}, "psi": {}}',
     "log-potential for [0] must be a number, finite or +inf, got [{'edges': [], 'p': 1}]"),
    ('{"n": 3, "phi": {"rule": {"type": ' + _LOOKALIKE + '}}, "psi": {}}', "unknown rule type {'edges': [], 'p': 1}"),
    ('{"n": 3, "phi": {}, "psi": {"hub_constraint": ' + _LOOKALIKE + '}}',
     "hub_constraint must be an object declaring no_hub as 'inf'"),
])
def test_law_reader_gives_the_whole_tree_parsers_result(capsys, tmp_path, text, expected):
    if expected is None:
        assert law_to_json(law_from_json(text)) == law_to_json(uniform_csf(3))
        path = tmp_path / "law.json"
        path.write_text(text)
        assert run(capsys, "density", "--law", str(path)) == run(capsys, "density", "--law", "uniform", "--n", "3")
    else:
        with pytest.raises(DomainError) as raised:
            law_from_json(text)
        assert str(raised.value) == expected


def test_a_whole_file_that_looks_like_an_entry_is_read_as_an_object(capsys, tmp_path):
    path = tmp_path / "entry.json"
    path.write_text(_LOOKALIKE)
    assert run(capsys, "check", "--law", str(path)) == (1, "", "error: law JSON must have fields 'n', 'phi' and 'psi'\n")
    assert run(capsys, "export-dot", "--graph", str(path)) == (
        1, "", "error: graph JSON must have fields 'n' and 'edges'\n")
    for parse, message in [
        (graph_from_json, "graph JSON must have fields 'n' and 'edges'"),
        (law_from_json, "law JSON must have fields 'n', 'phi' and 'psi'"),
        (density_from_json, "density JSON must have fields 'n' and 'entries'"),
    ]:
        with pytest.raises(DomainError) as raised:
            parse(_LOOKALIKE)
        assert str(raised.value) == message


def test_utf16_density_file_is_read_like_its_utf8_text(capsys, tmp_path):
    path = tmp_path / "d16.json"
    path.write_bytes(_D3.encode("utf-16"))  # with a byte order mark
    assert path.read_bytes()[:2] in (b"\xff\xfe", b"\xfe\xff")
    ours, before = _density_from_obj(cli._read_table(str(path))), density_from_json(_D3)
    assert (ours.n, ours.masks, ours.p) == (before.n, before.masks, before.p)
    assert run(capsys, "check", "--law", str(path)) == (
        0, '{"passed": true, "property": "wsm", "tol": 1e-09, "witness": null, "worst_violation": 0.0}\n', "")
    path.write_bytes(_D3.replace("[[0, 2]]", "[[0, 3]]").encode("utf-16"))
    assert run(capsys, "check", "--law", str(path)) == (1, "", "error: edge (0,3) out of range for n=3\n")


_pairs = st.lists(st.lists(st.integers(-1, 8), min_size=2, max_size=2), max_size=4)
_json_documents = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2**70) | st.floats() | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["edges", "p", "n", "entries"]), inner, max_size=3)
    | st.fixed_dictionaries({"edges": _pairs | _pairs.map(sorted) | inner, "p": inner}),
    max_leaves=12,
)


@given(doc=_json_documents)
@settings(max_examples=300, deadline=None)
def test_reader_value_prints_as_the_json_loads_value(doc):
    # An entry prints as the dict it stands for, and only list items stay entries.
    text = json.dumps(doc)
    ours, theirs = graphs._json_value(text, "document"), json.loads(text)
    assert type(ours) is type(theirs) and repr(ours) == repr(theirs)
    assert repr(ours) == repr(graphs._json_value(text.encode("utf-16"), "document"))
