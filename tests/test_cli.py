"""Command-line interface: outputs, round trips, exit codes, config."""

import csv
import dataclasses
import hashlib
import json
import os
import re
import stat
import subprocess
import sys
import threading
from io import StringIO
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nisets import cli
from nisets import engine as engine_module
from nisets.cli import main
from nisets.engine import nis_summary
from nisets.formats import from_graph6, to_graph6
from nisets.scanner import RouteDisagreement, labeled_graph_classes
from nisets.trees import free_trees


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_path4_inline_edges(capsys):
    code, out, _ = run_cli(capsys, "compute", "--edges", "4 3 / 0 1 / 1 2 / 2 3")
    assert code == 0
    payload = json.loads(out)
    assert payload["av1"] == "12/5"
    assert payload["sigma1"] == 5 and payload["s1"] == 12
    assert payload["i1_coefficients"] == [0, 0, 3, 2]
    assert [t["weight"] for t in payload["edge_terms"]] == ["2/5", "1/5", "2/5"]


def test_compute_edgeless_flags_empty_family(capsys):
    code, out, _ = run_cli(capsys, "compute", "--graph6", "D??")
    assert code == 0
    payload = json.loads(out)
    assert payload["av1"] == "0" and payload["sigma1"] == 0
    assert payload["note"] == "no 1-nearly independent sets"


def test_compute_csv_format(capsys):
    code, out, _ = run_cli(capsys, "compute", "--graph6", "Ch",
                           "--output-format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("n,edges,sigma0")
    assert "12/5" in lines[1]


def test_compute_stdin_edge_list(capsys, monkeypatch):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO("2 1\n0 1\n"))
    code, out, _ = run_cli(capsys, "compute", "--input", "-")
    assert code == 0
    assert json.loads(out)["av1"] == "2"


def test_compute_parse_error_names_position(capsys):
    code, _, err = run_cli(capsys, "compute", "--edges", "4 1 / 0 x")
    assert code == 2
    assert "line 2, column 3" in err


def test_compute_batch(capsys, tmp_path):
    batch = tmp_path / "batch.g6"
    batch.write_text("Ch\nC~\n")
    code, out, _ = run_cli(capsys, "compute", "--batch", str(batch))
    assert code == 0
    payload = json.loads(out)
    assert [rec["av1"] for rec in payload] == ["12/5", "2"]


MIXED_BATCH = Path(__file__).parent / "data" / "compute_batch_mixed.g6"
# the SHA-256 of ``compute --batch`` on MIXED_BATCH per output format; CI
# checks the installed entry point's JSON file against the first
MIXED_BATCH_DIGESTS = {
    "json": "81bf062ec3529c941ed1329e12ef83b2ae98205e78cb872dad78268baf579b2d",
    "csv": "a26e7a7237600148a7b3bab37f53208dad6d50de163d9a877414f8a5fd353409",
}


@pytest.mark.parametrize("fmt,digest", MIXED_BATCH_DIGESTS.items())
def test_compute_batch_golden(capsys, fmt, digest):
    # edgeless, single-vertex, family, disconnected and random graphs of
    # orders 1..16; digests taken from the per-route engine
    code, out, _ = run_cli(capsys, "compute", "--batch", str(MIXED_BATCH),
                           "--output-format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


LARGE_BATCH = Path(__file__).parent / "data" / "compute_batch_large.g6"


def test_compute_large_batch_golden(capsys):
    # one graph each of orders 24, 28, 32, 36, 40 and 44 at densities
    # 0.3-0.5, drawn as the compute-batch benchmark draws its input; the
    # engine relabels vertices, and edges and residuals must stay in graph
    # labels.  Digest taken before the relabelling
    code, out, _ = run_cli(capsys, "compute", "--batch", str(LARGE_BATCH))
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "c8bd462da63e7307d8f337e77bd5ffb802a185074e9c6f16c48109194573b7c7")


def test_compute_batch_reads_line_by_line(capsys, monkeypatch, tmp_path):
    events = []
    parse, record = cli.from_graph6, cli._compute_record
    monkeypatch.setattr(cli, "from_graph6", lambda line: events.append("read") or parse(line))
    monkeypatch.setattr(cli, "_compute_record", lambda g: events.append("compute") or record(g))
    batch = tmp_path / "batch.g6"
    batch.write_text("Ch\n\nC~\nD??\n")
    code, out, _ = run_cli(capsys, "compute", "--batch", str(batch))
    assert code == 0 and len(json.loads(out)) == 3
    assert events == ["read", "compute"] * 3


@pytest.mark.parametrize("source", ["--graph6", "--batch"])
def test_compute_cross_checks_level_zero(capsys, monkeypatch, tmp_path, source):
    # the whole graph's level-0 scalars one set over, every other mask exact
    scalars0 = engine_module.Engine.scalars0

    def one_over(self, mask=None):
        sig, tot = scalars0(self, mask)
        return (sig + 1 if mask is None else sig), tot

    monkeypatch.setattr(engine_module.Engine, "scalars0", one_over)
    batch = tmp_path / "batch.g6"
    batch.write_text("Ch\n")
    code, _, err = run_cli(capsys, "compute", source, "Ch" if source == "--graph6" else str(batch))
    assert code == 1
    assert err.startswith("internal disagreement: internal routes disagree on Ch: ")


@pytest.mark.parametrize("field", ["sigma0", "s0"])
@pytest.mark.parametrize("source", ["--graph6", "--batch"])
def test_compute_cross_checks_edge_terms(capsys, monkeypatch, tmp_path, source, field):
    # one edge term's residual count one over, every route exact
    edge_terms = engine_module.Engine.edge_terms

    def one_over(self):
        first, *rest = edge_terms(self)
        return [dataclasses.replace(first, **{field: getattr(first, field) + 1}), *rest]

    monkeypatch.setattr(engine_module.Engine, "edge_terms", one_over)
    batch = tmp_path / "batch.g6"
    batch.write_text("Ch\n")
    code, _, err = run_cli(capsys, "compute", source, "Ch" if source == "--graph6" else str(batch))
    assert code == 1
    assert err.startswith("internal disagreement: internal routes disagree on Ch: ")


def test_compute_work_guard_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(engine_module, "MAX_ENGINE_MASKS", 4)
    code, out, err = run_cli(capsys, "compute", "--graph6", "IheA@GUAo")
    assert code == 2 and out == ""
    assert err.startswith("error: graph of order 10 needs more than 4 ")


def test_oracle_subcommand(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--graph6", "Ch", "--l", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["by_size"] == [0, 0, 3, 2, 0]
    assert payload["average"] == "12/5"


def test_oracle_respects_limit(capsys):
    code, _, err = run_cli(capsys, "oracle", "--edges", "25 0")
    assert code == 2
    assert "oracle limit (24)" in err


@pytest.mark.parametrize("command, first, second", [
    ("compute", "--graph6", "--edges"), ("compute", "--graph6", "--input"),
    ("compute", "--edges", "--input"), ("compute", "--batch", "--graph6"),
    ("compute", "--batch", "--edges"), ("compute", "--batch", "--input"),
    ("oracle", "--graph6", "--edges"), ("oracle", "--graph6", "--input"),
    ("oracle", "--edges", "--input"),
])
def test_conflicting_graph_inputs_refused(capsys, tmp_path, command, first, second):
    # the files do not exist: the conflict is refused before any input is read
    values = {"--graph6": "Ch", "--edges": "2 1 / 0 1", "--input": str(tmp_path / "g.txt"),
              "--batch": str(tmp_path / "g.g6")}
    code, out, err = run_cli(capsys, command, first, values[first], second, values[second])
    assert code == 2 and out == ""
    assert err == f"error: {first} and {second} conflict: give only one graph input\n"


def test_families_table(capsys):
    code, out, _ = run_cli(capsys, "families", "--family", "R", "--n", "10")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "family,n,sigma1,s1,av1_num,av1_den"
    family, n, sigma1, s1, num, den = lines[1].split(",")
    assert (family, n) == ("R", "10")
    assert (sigma1, s1) == ("143", "741")
    assert Fraction(int(num), int(den)) == Fraction(741, 143)


def test_families_all_json(capsys):
    code, out, _ = run_cli(capsys, "families", "--orders", "4:6",
                           "--output-format", "json")
    assert code == 0
    rows = json.loads(out)
    families = {row["family"] for row in rows}
    assert families == {"edgeless", "star", "complete", "path", "R", "G_special"}


@pytest.mark.parametrize("argv, family, first", [
    (("--family", "R", "--orders", "1:3"), "R", 4),
    (("--family", "star", "--n", "-5"), "star", 2),
])
def test_families_refuses_an_empty_table(capsys, argv, family, first):
    code, out, err = run_cli(capsys, "families", *argv)
    assert code == 2 and out == ""
    orders = argv[-1] if ":" in argv[-1] else f"{argv[-1]}:{argv[-1]}"
    assert err == (f"error: orders {orders} lie below the first order of {family} ({first}), "
                   "so the table would be empty\n")


@pytest.mark.parametrize("argv, family", [
    (("--family", "R", "--n", "20000"), "R"),
    (("--family", "path", "--orders", "2:6000"), "path"),
    (("--orders", "60:65"), "edgeless"),
])
def test_families_refuses_orders_past_the_vertex_universe(capsys, monkeypatch, argv, family):
    def no_closed_form(*args):
        raise AssertionError("a closed form was evaluated before every order was checked")

    monkeypatch.setattr(cli, "closed_form_summary", no_closed_form)
    code, out, err = run_cli(capsys, "families", *argv)
    assert code == 2 and out == ""
    assert err == f"error: family {family!r} requires order <= 64, the vertex universe\n"


def test_families_all_skips_a_family_below_its_first_order(capsys):
    code, out, _ = run_cli(capsys, "families", "--orders", "2:3")
    assert code == 0
    families = {line.split(",")[0] for line in out.splitlines()[1:]}
    assert families == {"edgeless", "star", "complete", "path", "G_special"}


def test_trees_stream_count(capsys):
    code, out, _ = run_cli(capsys, "trees", "--order", "7")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 11
    assert len(set(lines)) == 11


def test_trees_round_trip_through_compute(capsys):
    code, out, _ = run_cli(capsys, "trees", "--order", "6")
    assert code == 0
    for line in out.strip().splitlines():
        code, out2, _ = run_cli(capsys, "compute", "--graph6", line)
        assert code == 0
        payload = json.loads(out2)
        summary = nis_summary(from_graph6(line), 1)
        assert payload["sigma1"] == summary.sigma and payload["s1"] == summary.total


def test_trees_order_limit(capsys, tmp_path):
    code, _, err = run_cli(capsys, "trees", "--order", "30")
    assert code == 2
    assert "1..24" in err
    code, _, err = run_cli(capsys, "trees", "--order", "30", "--out", str(tmp_path / "t.g6"))
    assert code == 2 and "1..24" in err
    assert list(tmp_path.iterdir()) == []


def test_scan_graphs_csv(capsys):
    code, out, _ = run_cli(capsys, "scan", "--population", "graphs", "--order", "6",
                           "--filter", "non-edgeless", "--output-format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("population,order,objective")
    assert lines[1].startswith("graphs/non-edgeless,6,av1,2,4,")


def test_scan_trees_json(capsys):
    code, out, _ = run_cli(capsys, "scan", "--order", "8", "--workers", "2",
                           "--spot-check-rate", "0.2")
    assert code == 0
    payload = json.loads(out)
    assert payload["population"] == "free-trees"
    assert payload["extremal"]["min"] == "2"


def test_scan_over_limit(capsys):
    code, _, err = run_cli(capsys, "scan", "--population", "graphs", "--order", "9")
    assert code == 2
    assert "exhaustive limit (7)" in err


@pytest.mark.parametrize("argv", [
    ("scan", "--population", "trees", "--order", "6"),
    ("conjecture", "--orders", "4:5"),
])
def test_zero_workers_refused(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--workers", "0")
    assert code == 2 and out == ""
    assert err == "error: worker count must be at least 1\n"


def test_scan_graphs_order_zero_refused(capsys):
    code, out, err = run_cli(capsys, "scan", "--population", "graphs", "--order", "0")
    assert code == 2 and out == ""
    assert err == ("error: order 0 outside 1..7; graphs are enumerated up to the "
                   "exhaustive limit (7)\n")


@pytest.mark.parametrize("graph_filter, objective", [
    ("all", "av1"),
    ("non-edgeless", "sigma-ratio"),
])
def test_scan_graphs_refuses_a_population_with_no_class(capsys, graph_filter, objective):
    code, out, err = run_cli(capsys, "scan", "--population", "graphs", "--order", "1",
                             "--filter", graph_filter, "--objective", objective)
    assert code == 2 and out == ""
    assert err == (f"error: --filter {graph_filter} keeps no order-1 class for --objective "
                   f"{objective}, so the scan would check nothing\n")


def test_scan_graphs_keeps_the_edgeless_class_for_sigma_ratio(capsys):
    code, out, _ = run_cli(capsys, "scan", "--population", "graphs", "--order", "1",
                           "--objective", "sigma-ratio")
    assert code == 0
    assert json.loads(out)["extremal"] == {"min": "0", "max": "0"}


def test_scan_graphs_audits_the_labelled_count(capsys, monkeypatch):
    # the edgeless graph and K4, fixed by all 24 permutations, each count
    # one stabiliser too many, so each is labelled 24 // 25 = 0 times
    count_nonzero = np.count_nonzero
    monkeypatch.setattr(np, "count_nonzero", lambda a: count_nonzero(a) + (count_nonzero(a) == 24))
    message = "the order-4 classes count 62 labelled graphs, but there are 2^6"
    with pytest.raises(RouteDisagreement, match=re.escape(message)):
        labeled_graph_classes(4)
    code, out, err = run_cli(capsys, "scan", "--population", "graphs", "--order", "4")
    assert code == 1 and out == ""
    assert err == f"internal disagreement: {message}\n"


OTHER_POPULATION_ERRORS = {
    "graphs": "error: --workers and --spot-check-rate apply only to --population trees\n",
    "trees": "error: --filter applies only to --population graphs\n",
}


@pytest.mark.parametrize("population,option,value", [
    ("graphs", "--workers", "0"),
    ("graphs", "--spot-check-rate", "0.5"),
    ("trees", "--filter", "connected"),
])
def test_scan_refuses_options_of_the_other_population(capsys, monkeypatch,
                                                      population, option, value):
    def no_scan(*args, **kwargs):
        raise AssertionError("a population was scanned before its options were checked")

    monkeypatch.setattr(cli, "scan_graphs", no_scan)
    monkeypatch.setattr(cli, "scan_trees", no_scan)
    code, out, err = run_cli(capsys, "scan", "--population", population, "--order", "3",
                             option, value)
    assert code == 2 and out == ""
    assert err == OTHER_POPULATION_ERRORS[population]


def test_verify_refuses_family_order_past_graph6_limit(capsys, monkeypatch):
    from nisets import scanner

    def no_walk(top):
        raise AssertionError("a tree was walked before the family and ratio orders were checked")

    monkeypatch.setattr(scanner, "RootedTables", no_walk)
    code, out, err = run_cli(capsys, "verify", "--max-family-order", "63")
    assert code == 2 and out == ""
    assert err == "error: max family order 63 above the graph6 limit (62)\n"
    code, out, err = run_cli(capsys, "verify", "--max-ratio-order", "31")
    assert code == 2 and out == ""
    assert err == "error: max ratio order 31 above the path-cycle limit (30)\n"


def test_verify_refusal_names_the_max_tree_order(capsys):
    code, out, err = run_cli(capsys, "verify", "--max-tree-order", "25")
    assert code == 2 and out == ""
    assert err == "error: max tree order 25 above the free-tree range (1..24)\n"


def test_verify_refusal_names_the_max_graph_order(capsys):
    code, out, err = run_cli(capsys, "verify", "--max-graph-order", "9")
    assert code == 2 and out == ""
    assert err == "error: max graph order 9 above the exhaustive limit (7)\n"


def test_verify_refuses_order_below_a_suite_before_running_any(capsys, monkeypatch):
    from nisets import scanner

    def no_suite(*args):
        raise AssertionError("a suite ran before every order was checked")

    for suite in ("RootedTables", "_graph_claim_reports", "_degree_two_ratio_reports",
                  "_subdivided_star_reports"):
        monkeypatch.setattr(scanner, suite, no_suite)
    code, out, err = run_cli(capsys, "verify", "--max-graph-order", "-3", "--max-tree-order", "2",
                             "--max-ratio-order", "2", "--max-family-order", "4")
    assert code == 2 and out == ""
    assert err == ("error: max graph order -3 lies below the first order of the graph claims "
                   "(2), so they would check nothing\n")
    # a named claim is refused below its own first order, not its suite's
    for claims, option, order, first in (
            ("graph-average-upper", "--max-graph-order", 5, 6),
            ("graph-average-lower,graph-average-upper", "--max-graph-order", 5, 6),
            ("tree-average-lower", "--max-tree-order", 2, 3),
            ("tree-average-band", "--max-tree-order", 8, 9),
            ("internal-degree-cap", "--max-tree-order", 2, 3)):
        code, out, err = run_cli(capsys, "verify", "--claims", claims, option, str(order))
        assert code == 2 and out == ""
        suite = option.split("-")[-2]
        assert err == (f"error: max {suite} order {order} lies below the first order of "
                       f"{claims.split(',')[-1]} ({first}), so it would check nothing\n")


def test_conjecture_refuses_order_past_limit_before_sweeping(capsys, monkeypatch):
    from nisets import scanner

    def no_sweep(*args):
        raise AssertionError("an order was swept before every order was checked")

    # neither sweep a run nor build the tables that make the runs
    monkeypatch.setattr(scanner, "_score_run", no_sweep)
    monkeypatch.setattr(scanner, "RootedTables", no_sweep)
    code, out, err = run_cli(capsys, "conjecture", "--orders", "18:25", "--workers", "2")
    assert code == 2 and out == ""
    assert err == "error: conjecture scan needs orders >= 4 and <= 24\n"


def test_conjecture_refuses_worker_count_past_limit_before_any_pool(capsys, monkeypatch):
    from nisets import scanner

    def no_pool(workers):
        raise AssertionError("a pool opened for a refused worker count")

    monkeypatch.setattr(scanner, "Pool", no_pool)
    workers = scanner.WORKER_LIMIT + 1
    code, out, err = run_cli(capsys, "conjecture", "--orders", "4:5", "--workers", str(workers))
    assert code == 2 and out == ""
    assert err == f"error: worker count {workers} above the limit ({scanner.WORKER_LIMIT})\n"


def test_conjecture_refuses_negative_top(capsys):
    code, out, err = run_cli(capsys, "conjecture", "--orders", "4:5", "--top", "-1")
    assert code == 2 and out == ""
    assert err == "error: top list length must be non-negative\n"


def test_verify_report_and_exit_code(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "verify", "--max-tree-order", "8",
                         "--max-graph-order", "5", "--out", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["inequality_violations"] == 0
    assert payload["recorded_discrepancies"] == 2
    flagged = {(r["claim_id"], r["order"]) for r in payload["reports"]
               if r["status"] == "violation"}
    assert flagged == {("tree-average-cap", 4), ("subdivided-star-band", 6)}
    for report in payload["reports"]:
        assert set(report) >= {"claim_id", "population", "order", "status",
                               "extremal", "witnesses", "violations"}


def test_verify_byte_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        code, _, _ = run_cli(capsys, "verify", "--max-tree-order", "7",
                             "--max-graph-order", "4", "--out", str(target))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_claims_list_drops_empty_items(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "verify", "--claims", "tree-average-lower,",
                         "--max-tree-order", "6", "--out", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert [(r["claim_id"], r["order"]) for r in payload["reports"]] == [
        ("tree-average-lower", n) for n in range(3, 7)]
    for empty in (",", " , "):
        code, out, err = run_cli(capsys, "verify", "--claims", empty)
        assert code == 2 and out == ""
        assert err.startswith("error: no claim selected")


def test_verify_csv_rows_are_the_json_reports(capsys):
    code, text, _ = run_cli(capsys, "verify", "--max-tree-order", "9")
    assert code == 0
    reports = json.loads(text)["reports"]
    code, out, _ = run_cli(capsys, "verify", "--max-tree-order", "9", "--output-format", "csv")
    assert code == 0
    header, *rows = csv.reader(StringIO(out))
    assert header == ["claim_id", "population", "order", "status", "min", "max", "violations"]
    # csv writes a None extreme as an empty cell
    assert rows == [[r["claim_id"], r["population"], str(r["order"]), r["status"],
                     r["extremal"]["min"] or "", r["extremal"]["max"] or "",
                     str(len(r["violations"]))] for r in reports]
    # order 2's one tree has no internal vertex, so the cap meets no tree
    assert ["internal-degree-cap", "free-trees", "2", "pass", "", "", "0"] in rows


def test_conjecture_csv(capsys):
    code, out, _ = run_cli(capsys, "conjecture", "--orders", "4:6",
                           "--output-format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "order,max,subdivided_star,unique_max,max_witnesses"
    assert lines[1].startswith("4,12/5,12/5,True")
    assert lines[3].startswith("6,3,3,False")


def test_output_dir_environment_variable(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("NISETS_OUTPUT_DIR", str(tmp_path))
    code, _, _ = run_cli(capsys, "families", "--family", "star", "--n", "5",
                         "--out", "stars.csv")
    assert code == 0
    assert (tmp_path / "stars.csv").exists()


def test_config_file_supplies_defaults(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"order": 6}))
    code, out, _ = run_cli(capsys, "trees", "--config", str(config))
    assert code == 0
    assert len(out.strip().splitlines()) == 6


def test_config_flag_overrides_config_file(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"order": 6}))
    code, out, _ = run_cli(capsys, "trees", "--config", str(config), "--order", "5")
    assert code == 0
    assert len(out.strip().splitlines()) == 3


def test_config_unknown_key_rejected(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"banana": 1}))
    code, _, err = run_cli(capsys, "trees", "--config", str(config))
    assert code == 2
    assert "unknown for command" in err


def test_config_accepts_every_option_of_the_command(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"graph6": "Ch", "output-format": "csv"}))
    code, out, _ = run_cli(capsys, "compute", "--config", str(config))
    assert code == 0
    assert out.startswith("n,edges,sigma0") and "12/5" in out


def exit_code(capsys, *argv):
    """Exit status of one CLI run, whether main returns it or the parser
    raises SystemExit; stdout must stay empty."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err


def write_config(tmp_path, entries) -> str:
    config = tmp_path / "config.json"
    config.write_text(json.dumps(entries))
    return str(config)


@pytest.mark.parametrize("argv,entries,message", [
    (("compute", "--graph6", "Ch"), {"output-format": "xml"}, "invalid choice: 'xml'"),
    (("scan", "--order", "6"), {"spot_check_rate": 1.5}, "spot-check rate must lie in [0, 1]"),
    (("conjecture", "--orders", "4:5"), {"workers": 0}, "worker count must be at least 1"),
    # a fractional order once reached the tree generator and crashed
    (("trees",), {"order": 7.5}, "invalid int value: '7.5'"),
    (("trees",), {"order": None}, "must be a string or a number"),
    (("verify",), ["max_tree_order", 6], "must hold a JSON object"),
    (("conjecture",), {"orders": "17:4"}, "order range 17:4 is reversed"),
    (("families",), {"orders": "12:2"}, "order range 12:2 is reversed"),
])
def test_bad_config_value_exits_2(capsys, tmp_path, argv, entries, message):
    code, err = exit_code(capsys, *argv, "--config", write_config(tmp_path, entries))
    assert code == 2
    assert message in err


@pytest.mark.parametrize("command,orders", [("conjecture", "17:4"), ("families", "12:2")])
def test_reversed_order_range_exits_2(capsys, command, orders):
    code, err = exit_code(capsys, command, "--orders", orders)
    assert code == 2
    assert f"argument --orders: order range {orders} is reversed: LO exceeds HI" in err


@pytest.mark.parametrize("command,flag,value,form", [
    ("families", "--orders", "a", "LO:HI"),
    ("conjecture", "--orders", "4:x", "LO:HI"),
    ("families", "--n", "x", "an integer N"),
])
def test_non_integer_order_exits_2_naming_the_form(capsys, command, flag, value, form):
    code, err = exit_code(capsys, command, flag, value)
    assert code == 2
    assert f"argument {flag}: order" in err and f"{value!r} is not {form}" in err
    assert "_parse_orders" not in err and "_single_order" not in err


@pytest.mark.parametrize("argv,entries,orders", [
    (("--n", "3"), {"orders": "5:5"}, [3]),
    (("--orders", "3:4"), {"n": 6}, [3, 4]),
    (("--n", "4"), {"n": 6}, [4]),
    ((), {"orders": "5:6"}, [5, 6]),
    ((), {}, list(range(2, 13))),
])
def test_explicit_order_flag_beats_config(capsys, tmp_path, argv, entries, orders):
    code, out, _ = run_cli(capsys, "families", "--family", "star", *argv,
                           "--config", write_config(tmp_path, entries))
    assert code == 0
    assert [int(line.split(",")[1]) for line in out.splitlines()[1:]] == orders


def test_explicit_flags_beat_config_on_oracle(capsys, tmp_path):
    config = write_config(tmp_path, {"output-format": "csv", "level": 0, "graph6": "D??"})
    code, out, _ = run_cli(capsys, "oracle", "--config", config, "--output-format", "json",
                           "--l", "1", "--graph6", "Ch")
    assert code == 0
    payload = json.loads(out)
    assert (payload["n"], payload["level"], payload["average"]) == (4, 1, "12/5")


CONFIG_KEYS = {
    "compute": {"batch", "config", "edges", "graph6", "input", "out", "output_format"},
    "oracle": {"config", "edges", "graph6", "input", "level", "out", "output_format"},
    "families": {"config", "family", "n", "orders", "out", "output_format"},
    "trees": {"config", "order", "out"},
    "scan": {"config", "filter", "objective", "order", "out", "output_format",
             "population", "spot_check_rate", "witness_cap", "workers"},
    "verify": {"claims", "config", "max_family_order", "max_graph_order",
               "max_ratio_order", "max_tree_order", "out", "output_format",
               "spot_check_rate", "witness_cap"},
    "conjecture": {"config", "orders", "out", "output_format", "spot_check_rate",
                   "top", "workers"},
}


@pytest.mark.parametrize("command", sorted(CONFIG_KEYS))
def test_config_keys_in_both_spellings(tmp_path, command):
    _, commands = cli._build_parser()
    flags = commands[command].flags
    assert set(flags) == CONFIG_KEYS[command]
    for key in flags:
        for spelling in {key, key.replace("_", "-")}:
            tokens = cli._config_argv(write_config(tmp_path, {spelling: 1}), command, flags)
            assert tokens == [f"{flags[key]}=1"]


def test_config_sets_verify_options(capsys, tmp_path):
    config = write_config(tmp_path, {"max_tree_order": 6, "max-graph-order": 2,
                                     "claims": "tree-average-lower", "spot-check-rate": 0})
    code, out, _ = run_cli(capsys, "verify", "--config", config)
    assert code == 0
    payload = json.loads(out)
    assert [r["order"] for r in payload["reports"]] == [3, 4, 5, 6]
    assert payload["spot_checked_trees"] == {}


def test_verify_refuses_spot_check_rate_above_one(capsys, monkeypatch):
    from nisets import scanner

    def no_walk(top):
        raise AssertionError("a tree was walked before the spot-check rate was checked")

    monkeypatch.setattr(scanner, "RootedTables", no_walk)
    code, err = exit_code(capsys, "verify", "--spot-check-rate", "1.5")
    assert code == 2
    assert err == "error: spot-check rate must lie in [0, 1]\n"


def test_verify_without_tree_claims_spot_checks_no_tree(capsys):
    code, out, _ = run_cli(capsys, "verify", "--claims", "degree-two-ratio",
                           "--max-ratio-order", "4")
    assert code == 0
    payload = json.loads(out)
    assert [r["order"] for r in payload["reports"]] == [2, 3, 4]
    assert payload["spot_checked_trees"] == {}


def test_trees_has_no_output_format(capsys):
    code, err = exit_code(capsys, "trees", "--order", "4", "--output-format", "csv")
    assert code == 2
    assert "unrecognized arguments: --output-format" in err


@pytest.mark.parametrize("text", ["", "\n\n"])
def test_compute_refuses_an_empty_batch(capsys, tmp_path, text):
    batch = tmp_path / "batch.g6"
    batch.write_text(text)
    for fmt in ("json", "csv"):
        code, out, err = run_cli(capsys, "compute", "--batch", str(batch), "--output-format", fmt)
        assert code == 2 and out == ""
        assert err == f"error: batch {batch} holds no graph, so compute would check nothing\n"


def test_compute_batch_writes_each_record_as_computed(capsys, monkeypatch, tmp_path):
    writes = []
    record = cli._compute_record

    def logging_record(graph):
        writes.append(capsys.readouterr().out)
        return record(graph)

    monkeypatch.setattr(cli, "_compute_record", logging_record)
    batch = tmp_path / "batch.g6"
    batch.write_text("Ch\nC~\n")
    code, out, _ = run_cli(capsys, "compute", "--batch", str(batch))
    assert code == 0
    # the first record is on stdout before the second is computed
    assert writes[0] == "" and json.loads(writes[1] + "]")[0]["av1"] == "12/5"
    assert json.loads(writes[1] + out) == json.loads(json.dumps(
        [record(from_graph6("Ch")), record(from_graph6("C~"))]))


_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2**70, 2**70),
    st.floats(), st.sampled_from([-0.0, 1e300, 0.1, -1e-300]),
    st.text(), st.text(st.characters(max_codepoint=0x20)),
    st.sampled_from(["é", "日本", "\U0001f600", "a\nb"]),
)
_KEYS = st.one_of(st.text(), st.integers(), st.booleans(), st.none(), st.floats())
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(st.integers(), max_size=4),
        st.dictionaries(_KEYS, inner, max_size=4),
    ),
    max_leaves=20,
)


@given(_VALUES)
@settings(max_examples=300, deadline=None)
def test_indented_writer_is_json_dumps(value):
    assert cli._indented(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [{(1, 2): 0}, {"a": [Fraction(1, 2)]}, [object()]])
def test_indented_writer_refuses_what_json_refuses(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2)
    with pytest.raises(TypeError):
        cli._indented(value)


@pytest.mark.parametrize("count", [0, 1, 3])
def test_streamed_array_bytes_equal_whole_payload(tmp_path, count):
    items = [{"n": 4, "note": "two\nlines", "i0": [1, 4, 3]}, [], {"nested": {"1": [True, None]}}]
    streamed, whole = tmp_path / "streamed.json", tmp_path / "whole.json"
    cli._emit_json_array(iter(items[:count]), str(streamed))
    cli._emit(cli._indented(items[:count]) + "\n", str(whole))
    assert streamed.read_bytes() == whole.read_bytes()
    assert whole.read_text() == json.dumps(items[:count], indent=2) + "\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_failed_batch_leaves_no_report(capsys, tmp_path, fmt):
    batch = tmp_path / "batch.g6"
    batch.write_text("Dhc\n\nnot graph6\n")
    out_path = tmp_path / "out" / "report.json"
    out_path.parent.mkdir()
    code, out, err = run_cli(capsys, "compute", "--batch", str(batch), "--out", str(out_path),
                             "--output-format", fmt)
    assert code == 2 and out == ""
    assert err.startswith("error: line 3: ")
    assert list(out_path.parent.iterdir()) == []
    # a report already at the path is kept, and a good run replaces it
    out_path.write_text("kept")
    assert run_cli(capsys, "compute", "--batch", str(batch), "--out", str(out_path))[0] == 2
    assert out_path.read_text() == "kept"
    batch.write_text("Dhc\n")
    assert run_cli(capsys, "compute", "--batch", str(batch), "--out", str(out_path))[0] == 0
    assert json.loads(out_path.read_text())[0]["n"] == 5
    assert list(out_path.parent.iterdir()) == [out_path]


def test_unwritable_output_names_the_path(capsys, tmp_path):
    out_path = tmp_path / "missing" / "stars.txt"
    code, out, err = run_cli(capsys, "trees", "--order", "5", "--out", str(out_path))
    assert code == 2 and out == ""
    assert err == f"error: [Errno 2] No such file or directory: '{out_path}'\n"


def test_output_follows_a_symlink_and_keeps_the_mode(capsys, tmp_path):
    real = tmp_path / "real" / "stars.txt"
    real.parent.mkdir()
    real.write_text("old")
    real.chmod(0o640)
    link = tmp_path / "link.txt"
    link.symlink_to(real)
    # a partial file left by a killed run under this pid is overwritten
    Path(f"{real}.{os.getpid()}.partial").write_text("stale")
    stars = run_cli(capsys, "trees", "--order", "5")[1]
    assert run_cli(capsys, "trees", "--order", "5", "--out", str(link))[0] == 0
    assert link.is_symlink() and link.resolve() == real
    assert real.read_text() == stars
    assert real.stat().st_mode & 0o777 == 0o640
    assert sorted(tmp_path.rglob("*")) == [link, real.parent, real]


def test_output_to_a_fifo_is_written_in_place(capsys, tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()
    code, _, _ = run_cli(capsys, "trees", "--order", "5", "--out", str(fifo))
    reader.join(timeout=10)
    assert code == 0
    assert received == [run_cli(capsys, "trees", "--order", "5")[1]]
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert list(tmp_path.iterdir()) == [fifo]


def test_console_entry_point():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "nisets.cli", "compute", "--graph6", "Ch"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["av1"] == "12/5"


SPAWNED_CONJECTURE = """
import multiprocessing, sys
from nisets.cli import main
multiprocessing.set_start_method("spawn")
sys.exit(main(["conjecture", "--orders", "4:12", "--workers", "2"]))
"""


def test_spawned_pool_writes_the_one_worker_report(capsys):
    # spawned workers receive the sweep's tables pickled, where forked ones
    # inherit them, and must write the same bytes
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", SPAWNED_CONJECTURE], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    code, out, _ = run_cli(capsys, "conjecture", "--orders", "4:12", "--workers", "1")
    assert code == 0 and proc.stdout == out
