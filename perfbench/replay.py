"""Traced replay of one workload's pipeline.

Each workload's command is re-run in this process by calling the public
functions of the package's modules (trees, graphs, formats, engine,
oracle, scanner, families, cli) in the order the command calls them, with
one span per call.  The replay writes the same report the command writes;
``run.py`` requires the two to be byte-identical, which shows the replay
did the command's work.  Nothing inside the package is instrumented.

    python3 perfbench/replay.py WORKLOAD REPORT_OUT TRACE_OUT [BATCH_FILE]

run from the checkout root with ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import json
import os
import sys
from bisect import insort
from fractions import Fraction

from nisets.engine import Engine, format_rational
from nisets.families import FamilySpec, build
from nisets.formats import from_graph6, to_graph6
from nisets.graphs import is_good_graph, iter_bits, structural_predicates
from nisets.scanner import (
    ALL_CLAIMS,
    WITNESS_CAP,
    ConjectureRecord,
    RouteDisagreement,
    ScanReport,
    has_inequality_violations,
    labeled_graph_classes,
    spot_check_trees,
    verify_claims,
)
from nisets.trees import LevelSequence, level_sequences, tree_canonical_key

from tracing import ROOT, Tracer
from workloads import (
    GRAPH_SCAN_ORDER,
    SPOT_CHECK_RATE,
    TREE_SWEEP_ORDERS,
    TREE_SWEEP_TOP,
    VERIFY_MAX_TREE_ORDER,
)


def _emit(payload, path: str) -> int:
    data = (json.dumps(payload, indent=2) + "\n").encode()
    with open(path, "wb") as handle:
        handle.write(data)
    return len(data)


def _emit_traced(t: Tracer, payload_fn, path: str) -> None:
    size = t.call("cli.emit", lambda: _emit(payload_fn(), path))
    t.count("cli.output_bytes", size)


# -- verify-default: `nisets verify` -----------------------------------------


def replay_verify(t: Tracer, report_path: str) -> int:
    reports = []
    for claim in ALL_CLAIMS:
        reports.extend(t.call(f"scanner.claim.{claim}", verify_claims, claims=[claim]))
    spot_checked = {}
    for n in range(2, VERIFY_MAX_TREE_ORDER + 1):
        checked = t.call("oracle.spot", spot_check_trees, n, SPOT_CHECK_RATE)
        spot_checked[n] = checked
        t.count("oracle.spot_count", checked)
        t.count("oracle.subsets", checked * 2 * 2 ** n)
    _emit_traced(t, lambda: {
        "reports": [r.to_json_dict() for r in reports],
        "spot_checked_trees": spot_checked,
        "inequality_violations": sum(len(r.inequality_violations) for r in reports),
        "recorded_discrepancies": sum(1 for r in reports for v in r.violations if v.equality_claim),
    }, report_path)
    return 1 if has_inequality_violations(reports) else 0


# -- tree-sweep: `nisets conjecture --orders 4:17`, replayed at one worker ----


def _to_graph(levels):
    return LevelSequence(levels).to_graph()


def _scalars1(graph):
    return Engine(graph).scalars1()


class _TreeFold:
    """Min/max witnesses and the top-k list of one order's tree stream."""

    def __init__(self, top_k: int):
        self.best = {"min": None, "max": None}
        self.top: list[tuple[Fraction, str]] = []
        self.top_k = top_k

    def add(self, sig: int, tot: int, g6: str) -> None:
        value = Fraction(tot, sig) if sig else Fraction(0)
        for side, keep in (("min", value.__le__), ("max", value.__ge__)):
            slot = self.best[side]
            if slot is None or keep(slot[0]):
                if slot is None or slot[0] != value:
                    self.best[side] = (value, [g6], 1)
                else:
                    slot[1].append(g6)
                    self.best[side] = (value, slot[1], slot[2] + 1)
        entry = (-value, g6)
        if len(self.top) < self.top_k:
            insort(self.top, entry)
        elif entry < self.top[-1]:
            insort(self.top, entry)
            self.top.pop()


def _conjecture_record(t: Tracer, n: int, fold: _TreeFold) -> ConjectureRecord:
    value, witnesses, count = fold.best["max"]
    r_tree = build(FamilySpec("R", n))
    sig, tot = Engine(r_tree).scalars1()
    r_value = Fraction(tot, sig) if sig else Fraction(0)
    unique = count == 1 and value == r_value
    if unique:
        witness = t.call("formats.from_graph6", from_graph6, witnesses[0])
        unique = tree_canonical_key(witness) == tree_canonical_key(r_tree)
    return ConjectureRecord(
        order=n,
        max_value=value,
        max_witnesses=tuple(sorted(witnesses)[:WITNESS_CAP]),
        subdivided_star_value=r_value,
        subdivided_star_is_unique_max=unique,
        top=tuple((g6, -negv) for negv, g6 in fold.top),
    )


def replay_tree_sweep(t: Tracer, report_path: str) -> int:
    records = []
    lo, hi = TREE_SWEEP_ORDERS
    for n in range(lo, hi + 1):
        stream = level_sequences(n)
        levels = []
        while (seq := t.call("trees.successor", next, stream, None)) is not None:
            levels.append(seq.levels)
        t.count("trees.count", len(levels))
        fold = _TreeFold(TREE_SWEEP_TOP)
        for seq_levels in levels:
            graph = t.call("graphs.to_graph", _to_graph, seq_levels)
            sig, tot = t.call("engine.scalars1", _scalars1, graph)
            g6 = t.call("formats.to_graph6", to_graph6, graph)
            t.call("scanner.fold", fold.add, sig, tot, g6)
        records.append(t.call("scanner.conjecture_record", _conjecture_record, t, n, fold))
    _emit_traced(t, lambda: [rec.to_json_dict() for rec in records], report_path)
    return 0


# -- graph-scan: `nisets scan --population graphs --order 7` ------------------


def _both_scalars(graph):
    eng = Engine(graph)
    return eng.scalars0(), eng.scalars1()


def _structure(graph):
    good = is_good_graph(graph)
    edges = graph.edges()
    sizes = [(graph.adj[u] | graph.adj[v]).bit_count() for u, v in edges]
    delta = (min(sizes), max(sizes)) if sizes else None
    return good, delta, structural_predicates(graph)


def _graph_report(n: int, rows) -> ScanReport:
    entries = [(Fraction(s1, sig1) if sig1 else Fraction(0), g6)
               for g6, edge_count, (sig1, s1) in rows if edge_count]
    lo = min(v for v, _ in entries)
    hi = max(v for v, _ in entries)
    lo_wits = sorted(g6 for v, g6 in entries if v == lo)
    hi_wits = sorted(g6 for v, g6 in entries if v == hi)
    return ScanReport(
        "scan-av1", "graphs/all", n, "av1", lo, hi,
        tuple(lo_wits[:WITNESS_CAP]), tuple(hi_wits[:WITNESS_CAP]),
        len(lo_wits), len(hi_wits), (),
    )


def replay_graph_scan(t: Tracer, report_path: str) -> int:
    n = GRAPH_SCAN_ORDER
    classes = t.call("scanner.orbit_enum", labeled_graph_classes, n)
    t.count("scanner.class_count", len(classes))
    sid = t.begin("scanner.class_records")
    rows = []
    for graph, _labelled in classes:
        g6 = t.call("formats.to_graph6", to_graph6, graph)
        _s0, s1 = t.call("engine.scalars", _both_scalars, graph)
        t.call("graphs.structural", _structure, graph)
        rows.append((g6, graph.edge_count, s1))
    t.end(sid)
    report = t.call("scanner.fold", _graph_report, n, rows)
    _emit_traced(t, report.to_json_dict, report_path)
    return 0


# -- compute-batch: `nisets compute --batch FILE` ------------------------------


def _decimal(value: Fraction) -> str:
    return f"{value.numerator / value.denominator:.6f}"


def _compute_record(t: Tracer, graph) -> dict:
    eng = Engine(graph)
    p0 = t.call("engine.i0", eng.i0)
    p1 = t.call("engine.i1", eng.i1)
    p1_edges = t.call("engine.i1_by_edges", eng.i1_by_edges)
    sig1, tot1 = t.call("engine.scalars", eng.scalars1)
    if p1 != p1_edges or (sig1, tot1) != (sum(p1), sum(k * c for k, c in enumerate(p1))):
        raise RouteDisagreement(f"internal routes disagree on {to_graph6(graph)}")
    sig0, tot0 = t.call("engine.scalars", eng.scalars0)
    av0 = Fraction(tot0, sig0) if sig0 else Fraction(0)
    av1 = Fraction(tot1, sig1) if sig1 else Fraction(0)
    record = {
        "n": graph.n,
        "edges": graph.edge_count,
        "sigma0": sig0,
        "s0": tot0,
        "av0": format_rational(av0),
        "av0_decimal": _decimal(av0),
        "sigma1": sig1,
        "s1": tot1,
        "av1": format_rational(av1),
        "av1_decimal": _decimal(av1),
        "i0_coefficients": list(p0),
        "i1_coefficients": list(p1),
    }
    if sig1 == 0:
        record["note"] = "no 1-nearly independent sets"
    terms = t.call("engine.edge_terms", eng.edge_terms) if graph.edge_count else []
    record["edge_terms"] = [{
        "u": term.edge[0],
        "v": term.edge[1],
        "residual": list(iter_bits(term.residual_mask)),
        "sigma0": term.sigma0,
        "s0": term.s0,
        "weight": format_rational(term.weight),
        "av0": format_rational(term.av0),
        "union_size": term.union_size,
    } for term in terms]
    return record


def replay_compute_batch(t: Tracer, report_path: str, batch_path: str) -> int:
    with open(batch_path) as handle:
        graphs = [t.call("formats.from_graph6", from_graph6, line) for line in handle if line.strip()]
    records = [t.call("cli.compute_record", _compute_record, t, g) for g in graphs]
    _emit_traced(t, lambda: records, report_path)
    return 0


REPLAYS = {
    "verify-default": replay_verify,
    "tree-sweep": replay_tree_sweep,
    "graph-scan": replay_graph_scan,
    "compute-batch": replay_compute_batch,
}


def main(argv: list[str]) -> int:
    workload, report_path, trace_path, *batch = argv
    tracer = Tracer(run_id=f"{workload}-{os.getpid()}")
    root = tracer.begin(ROOT)
    status = REPLAYS[workload](tracer, report_path, *batch)
    tracer.end(root)
    tracer.write(trace_path)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
