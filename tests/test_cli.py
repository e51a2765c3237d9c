"""Command-line interface: outputs, round trips, exit codes, config."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from nisets import cli
from nisets import engine as engine_module
from nisets.cli import RunConfig, main
from nisets.engine import s1_vertex_recursion
from nisets.formats import from_graph6, to_graph6
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


@pytest.mark.parametrize("fmt,digest", [
    ("json", "81bf062ec3529c941ed1329e12ef83b2ae98205e78cb872dad78268baf579b2d"),
    ("csv", "a26e7a7237600148a7b3bab37f53208dad6d50de163d9a877414f8a5fd353409"),
])
def test_compute_batch_golden(capsys, fmt, digest):
    # edgeless, single-vertex, family, disconnected and random graphs of
    # orders 1..16; digests taken from the per-route engine
    code, out, _ = run_cli(capsys, "compute", "--batch", str(MIXED_BATCH),
                           "--output-format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


def test_families_table(capsys):
    code, out, _ = run_cli(capsys, "families", "--family", "R", "--n", "10")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "family,n,sigma1,s1,av1_num,av1_den"
    family, n, sigma1, s1, num, den = lines[1].split(",")
    assert (family, n) == ("R", "10")
    assert (sigma1, s1) == ("143", "741")
    from fractions import Fraction

    assert Fraction(int(num), int(den)) == Fraction(741, 143)


def test_families_all_json(capsys):
    code, out, _ = run_cli(capsys, "families", "--orders", "4:6",
                           "--output-format", "json")
    assert code == 0
    rows = json.loads(out)
    families = {row["family"] for row in rows}
    assert families == {"edgeless", "star", "complete", "path", "R", "G_special"}


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
        summary = s1_vertex_recursion(from_graph6(line))
        assert payload["sigma1"] == summary.sigma and payload["s1"] == summary.total


def test_trees_order_limit(capsys):
    code, _, err = run_cli(capsys, "trees", "--order", "30")
    assert code == 2
    assert "1..24" in err


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
    config.write_text(json.dumps({"order": 6, "emit": "graph6"}))
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


def test_run_config_validation():
    with pytest.raises(ValueError, match="json or csv"):
        RunConfig(command="compute", output_format="xml")
    with pytest.raises(ValueError, match="spot-check"):
        RunConfig(command="scan", oracle_spot_check_rate=1.5)
    with pytest.raises(ValueError, match="worker"):
        RunConfig(command="scan", worker_count=0)


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "nisets.cli", "compute", "--graph6", "Ch"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["av1"] == "12/5"
