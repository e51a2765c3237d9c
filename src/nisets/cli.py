"""Command-line front door.

Subcommands: compute (statistics of one graph, or a graph6 batch), oracle
(brute-force subset counts), families (closed-form regression table), trees
(free-tree stream as graph6), scan (extremal sweep of one population),
verify (the full claim suites, JSON report) and conjecture (tree-maximum
evidence).  All output is byte-deterministic for a fixed configuration;
rationals are printed in lowest terms as ``p/q``.  The exit status is
nonzero exactly when an inequality claim fails or two internal computation
routes disagree.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .engine import Engine, format_rational
from .families import FAMILY_MIN_ORDER, FamilySpec, closed_form_summary
from .formats import FormatError, from_graph6, parse_edge_list, to_graph6
from .graphs import Graph, iter_bits
from .oracle import oracle_profile
from .scanner import (
    RouteDisagreement,
    conjecture_scan,
    has_inequality_violations,
    scan_graphs,
    scan_trees,
    spot_check_trees,
    verify_claims,
)
from .trees import free_trees

ENV_OUTPUT_DIR = "NISETS_OUTPUT_DIR"


@dataclass
class RunConfig:
    """Resolved invocation: one command plus its options."""

    command: str
    input: str | None = None
    orders: tuple[int, int] | None = None
    output_format: str = "json"
    output_path: str | None = None
    worker_count: int = 1
    oracle_spot_check_rate: float = 0.01
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.output_format not in ("json", "csv"):
            raise ValueError("output format must be json or csv")
        if not 0 <= self.oracle_spot_check_rate <= 1:
            raise ValueError("spot-check rate must lie in [0, 1]")
        if self.worker_count < 1:
            raise ValueError("worker count must be at least 1")


def _resolve_out(path: str | None) -> str | None:
    if path is None:
        return None
    base = os.environ.get(ENV_OUTPUT_DIR)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _output(path: str | None):
    """Context manager for the output file, or stdout (left open) when
    ``path`` is None."""
    return contextlib.nullcontext(sys.stdout) if path is None else open(path, "w")


def _emit(text: str, path: str | None) -> None:
    with _output(path) as handle:
        handle.write(text)


def _emit_json(payload, path: str | None) -> None:
    """Write ``payload`` as indented JSON chunk by chunk, so the whole text
    is never held in memory."""
    with _output(path) as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _read_graph(config: RunConfig) -> Graph:
    opts = config.options
    if opts.get("graph6"):
        return from_graph6(opts["graph6"])
    if opts.get("edges"):
        return parse_edge_list(opts["edges"].replace(" / ", "\n").replace("/", "\n"))
    if config.input is None:
        raise ValueError("no graph given: use --graph6, --edges or --input")
    if config.input == "-":
        return parse_edge_list(sys.stdin.read())
    with open(config.input) as handle:
        return parse_edge_list(handle.read())


def _decimal(value: Fraction) -> str:
    return f"{value.numerator / value.denominator:.6f}"


def _compute_record(graph: Graph) -> dict:
    eng = Engine(graph)
    p0 = eng.i0()
    p1 = eng.i1()
    p1_edges = eng.i1_by_edges()
    sig1, tot1 = eng.scalars1()
    if p1 != p1_edges or (sig1, tot1) != (sum(p1), sum(k * c for k, c in enumerate(p1))):
        raise RouteDisagreement(
            f"internal routes disagree on {to_graph6(graph)}: "
            f"pivot {p1}, per-edge {p1_edges}, scalar ({sig1}, {tot1})"
        )
    sig0, tot0 = eng.scalars0()
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
    terms = []
    if graph.edge_count:
        for term in eng.edge_terms():
            terms.append({
                "u": term.edge[0],
                "v": term.edge[1],
                "residual": list(iter_bits(term.residual_mask)),
                "sigma0": term.sigma0,
                "s0": term.s0,
                "weight": format_rational(term.weight),
                "av0": format_rational(term.av0),
                "union_size": term.union_size,
            })
    record["edge_terms"] = terms
    return record


def _compute_csv(records) -> str:
    head = ["n", "edges", "sigma0", "s0", "av0", "av0_decimal",
            "sigma1", "s1", "av1", "av1_decimal", "i0_coefficients", "i1_coefficients", "note"]
    rows = []
    for rec in records:
        rows.append([rec[k] if k != "i0_coefficients" and k != "i1_coefficients"
                     else ";".join(map(str, rec[k]))
                     for k in head[:-1]] + [rec.get("note", "")])
    text = _csv_text(head, rows)
    edge_rows = []
    for i, rec in enumerate(records):
        for term in rec["edge_terms"]:
            edge_rows.append([i, term["u"], term["v"], term["sigma0"], term["s0"],
                              term["weight"], term["av0"], term["union_size"]])
    text += "\n" + _csv_text(
        ["graph_index", "u", "v", "sigma0", "s0", "weight", "av0", "union_size"], edge_rows)
    return text


def _cmd_compute(config: RunConfig) -> int:
    opts = config.options
    if opts.get("batch"):
        with open(opts["batch"]) as handle:
            records = [_compute_record(from_graph6(line)) for line in handle if line.strip()]
        payload: object = records
    else:
        records = [_compute_record(_read_graph(config))]
        payload = records[0]
    if config.output_format == "json":
        _emit_json(payload, config.output_path)
    else:
        _emit(_compute_csv(records), config.output_path)
    return 0


def _cmd_oracle(config: RunConfig) -> int:
    graph = _read_graph(config)
    level = config.options.get("level", 1)
    profile = oracle_profile(graph, level)
    avg = Fraction(profile.total, profile.sigma) if profile.sigma else Fraction(0)
    payload = {
        "n": graph.n,
        "level": level,
        "by_size": list(profile.by_size),
        "sigma": profile.sigma,
        "total": profile.total,
        "average": format_rational(avg),
    }
    if config.output_format == "json":
        _emit_json(payload, config.output_path)
    else:
        _emit(_csv_text(payload.keys(),
                        [[v if k != "by_size" else ";".join(map(str, v))
                          for k, v in payload.items()]]), config.output_path)
    return 0


def _family_rows(family: str, orders) -> list[list]:
    rows = []
    for n in orders:
        if n < max(FAMILY_MIN_ORDER[family], 2):
            continue
        summary = closed_form_summary(FamilySpec(family, n), 1)
        rows.append([
            family, n, summary.sigma, summary.total,
            summary.average.numerator, summary.average.denominator,
        ])
    return rows


def _cmd_families(config: RunConfig) -> int:
    family = config.options.get("family", "all")
    lo, hi = config.orders if config.orders else (2, 12)
    orders = range(lo, hi + 1)
    names = [f for f in FAMILY_MIN_ORDER if f != "cycle"] if family == "all" else [family]
    for name in names:
        if name not in FAMILY_MIN_ORDER:
            raise ValueError(f"unknown family {name!r}")
        if name == "cycle":
            raise ValueError("no closed form for cycle; use the engine via 'compute'")
    header = ["family", "n", "sigma1", "s1", "av1_num", "av1_den"]
    rows = []
    for name in names:
        rows.extend(_family_rows(name, orders))
    if config.output_format == "csv":
        _emit(_csv_text(header, rows), config.output_path)
    else:
        _emit_json([dict(zip(header, row)) for row in rows], config.output_path)
    return 0


def _cmd_trees(config: RunConfig) -> int:
    order = config.options.get("order")
    if order is None:
        raise ValueError("trees requires --order")
    emit = config.options.get("emit", "graph6")
    if emit != "graph6":
        raise ValueError(f"unknown emission format {emit!r}")
    lines = [to_graph6(tree) for tree in free_trees(order)]
    _emit("\n".join(lines) + "\n", config.output_path)
    return 0


def _witness_cap(opts) -> int | None:
    # a negative flag requests the full, uncapped witness lists
    cap = opts.get("witness_cap", 100)
    return None if cap is not None and cap < 0 else cap


def _cmd_scan(config: RunConfig) -> int:
    opts = config.options
    population = opts.get("population", "trees")
    objective = opts.get("objective", "av1")
    order = opts.get("order")
    if order is None:
        raise ValueError("scan requires --order")
    cap = _witness_cap(opts)
    if population == "trees":
        report = scan_trees(
            order, objective,
            workers=config.worker_count,
            witness_cap=cap,
            spot_check_rate=config.oracle_spot_check_rate,
        )
    elif population == "graphs":
        report = scan_graphs(order, opts.get("filter", "all"), objective, witness_cap=cap)
    else:
        raise ValueError(f"unknown population {population!r}")
    if config.output_format == "json":
        _emit_json(report.to_json_dict(), config.output_path)
    else:
        d = report.to_json_dict()
        header = ["population", "order", "objective", "min", "max",
                  "min_count", "max_count", "min_witnesses", "max_witnesses"]
        row = [d["population"], d["order"], d["objective"],
               d["extremal"]["min"], d["extremal"]["max"],
               d["min_count"], d["max_count"],
               ";".join(d["min_witnesses"]), ";".join(d["max_witnesses"])]
        _emit(_csv_text(header, [row]), config.output_path)
    return 0


def _cmd_verify(config: RunConfig) -> int:
    opts = config.options
    claims = opts.get("claims", "all")
    if claims != "all":
        claims = [c for c in (c.strip() for c in claims.split(",")) if c]
        if not claims:
            raise ValueError("--claims names no claim: give 'all' or comma-separated claim ids")
    reports = verify_claims(
        claims=claims,
        max_tree_order=opts.get("max_tree_order", 16),
        max_graph_order=opts.get("max_graph_order", 7),
        max_ratio_order=opts.get("max_ratio_order", 10),
        max_family_order=opts.get("max_family_order", 40),
        witness_cap=_witness_cap(opts),
    )
    spot_checked = {}
    if config.oracle_spot_check_rate > 0:
        for n in range(2, opts.get("max_tree_order", 16) + 1):
            spot_checked[n] = spot_check_trees(n, config.oracle_spot_check_rate)
    payload = {
        "reports": [r.to_json_dict() for r in reports],
        "spot_checked_trees": spot_checked,
        "inequality_violations": sum(len(r.inequality_violations) for r in reports),
        "recorded_discrepancies": sum(
            1 for r in reports for v in r.violations if v.equality_claim),
    }
    if config.output_format == "json":
        _emit_json(payload, config.output_path)
    else:
        header = ["claim_id", "population", "order", "status", "min", "max", "violations"]
        rows = [[r.claim_id, r.population, r.order, r.status,
                 None if r.min_value is None else format_rational(r.min_value),
                 None if r.max_value is None else format_rational(r.max_value),
                 len(r.violations)] for r in reports]
        _emit(_csv_text(header, rows), config.output_path)
    return 1 if has_inequality_violations(reports) else 0


def _cmd_conjecture(config: RunConfig) -> int:
    lo, hi = config.orders if config.orders else (4, 12)
    records = conjecture_scan(
        range(lo, hi + 1),
        workers=config.worker_count,
        top_k=config.options.get("top", 5),
        spot_check_rate=config.oracle_spot_check_rate,
    )
    if config.output_format == "json":
        _emit_json([rec.to_json_dict() for rec in records], config.output_path)
    else:
        header = ["order", "max", "subdivided_star", "unique_max", "max_witnesses"]
        rows = [[rec.order, format_rational(rec.max_value),
                 format_rational(rec.subdivided_star_value),
                 rec.subdivided_star_is_unique_max,
                 ";".join(rec.max_witnesses)] for rec in records]
        _emit(_csv_text(header, rows), config.output_path)
    return 0


_COMMANDS = {
    "compute": _cmd_compute,
    "oracle": _cmd_oracle,
    "families": _cmd_families,
    "trees": _cmd_trees,
    "scan": _cmd_scan,
    "verify": _cmd_verify,
    "conjecture": _cmd_conjecture,
}


def run(config: RunConfig) -> int:
    """Execute one resolved configuration; returns the process exit code."""
    return _COMMANDS[config.command](config)


def _parse_orders(text: str) -> tuple[int, int]:
    if ":" in text:
        lo, hi = text.split(":", 1)
        return int(lo), int(hi)
    value = int(text)
    return value, value


def _add_common(parser: argparse.ArgumentParser, default_format: str) -> None:
    parser.add_argument("--out", help="output path (stdout when omitted); "
                        f"relative paths resolve under ${ENV_OUTPUT_DIR} when set")
    parser.add_argument("--output-format", choices=["json", "csv"], default=default_format)
    parser.add_argument("--config", help="JSON file with defaults for any long option")


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's parser by name."""
    parser = argparse.ArgumentParser(
        prog="nisets",
        description="Exact statistics of vertex subsets inducing exactly one edge.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    p = commands["compute"] = sub.add_parser(
        "compute", help="statistics of one graph (or a graph6 batch)")
    p.add_argument("--input", help="edge-list file, or - for stdin")
    p.add_argument("--graph6", help="inline graph6 string")
    p.add_argument("--edges", help="inline edge list, lines separated by '/'")
    p.add_argument("--batch", help="file of newline-delimited graph6 strings")
    _add_common(p, "json")

    p = commands["oracle"] = sub.add_parser("oracle", help="brute-force subset counts (debugging)")
    p.add_argument("--input", help="edge-list file, or - for stdin")
    p.add_argument("--graph6", help="inline graph6 string")
    p.add_argument("--edges", help="inline edge list, lines separated by '/'")
    p.add_argument("--l", dest="level", type=int, default=1, help="induced-edge count")
    _add_common(p, "json")

    p = commands["families"] = sub.add_parser("families", help="closed-form regression table")
    p.add_argument("--family", default="all",
                   choices=sorted(set(FAMILY_MIN_ORDER) - {"cycle"} | {"all"}))
    p.add_argument("--n", type=int, help="single order")
    p.add_argument("--orders", help="order range LO:HI")
    _add_common(p, "csv")

    p = commands["trees"] = sub.add_parser("trees", help="free-tree stream")
    p.add_argument("--order", type=int)
    p.add_argument("--emit", default="graph6", choices=["graph6"])
    _add_common(p, "json")

    p = commands["scan"] = sub.add_parser("scan", help="extremal sweep over one population")
    p.add_argument("--population", choices=["trees", "graphs"], default="trees")
    p.add_argument("--order", type=int)
    p.add_argument("--objective", choices=["av1", "sigma-ratio"], default="av1")
    p.add_argument("--filter", default="all",
                   choices=["all", "connected", "no-isolated-max-deg-2", "non-edgeless"])
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--witness-cap", type=int, default=100,
                   help="max stored witnesses per extreme; negative for full lists")
    p.add_argument("--spot-check-rate", type=float, default=0.0)
    _add_common(p, "json")

    p = commands["verify"] = sub.add_parser("verify", help="run the claim suites")
    p.add_argument("--claims", default="all", help="'all' or comma-separated claim ids")
    p.add_argument("--max-tree-order", type=int, default=16)
    p.add_argument("--max-graph-order", type=int, default=7)
    p.add_argument("--max-ratio-order", type=int, default=10)
    p.add_argument("--max-family-order", type=int, default=40)
    p.add_argument("--witness-cap", type=int, default=100,
                   help="max stored witnesses per extreme; negative for full lists")
    p.add_argument("--spot-check-rate", type=float, default=0.01)
    _add_common(p, "json")

    p = commands["conjecture"] = sub.add_parser("conjecture", help="tree-maximum evidence scan")
    p.add_argument("--orders", default="4:12", help="order range LO:HI")
    p.add_argument("--top", type=int, default=5)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--spot-check-rate", type=float, default=0.0)
    _add_common(p, "json")

    return parser, commands


def _reparse_with_config(argv, command: str, config_path: str) -> argparse.Namespace:
    """Re-parse after installing config-file values as subcommand defaults,
    so explicit flags still win."""
    with open(config_path) as handle:
        defaults = json.load(handle)
    parser, commands = _build_parser()
    subparser = commands[command]
    # every option of a subcommand is optional, so parsing no arguments
    # lists each destination with its default
    valid = set(vars(subparser.parse_args([])))
    mapped = {}
    for key, value in defaults.items():
        dest = key.replace("-", "_")
        if dest not in valid:
            raise ValueError(f"config key {key!r} unknown for command {command!r}")
        mapped[dest] = value
    subparser.set_defaults(**mapped)
    return parser.parse_args(argv)


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    orders = None
    if getattr(args, "orders", None):
        orders = _parse_orders(args.orders)
    elif getattr(args, "n", None) is not None:
        orders = (args.n, args.n)
    options = {}
    for key in ("graph6", "edges", "batch", "level", "family", "order", "emit",
                "population", "objective", "filter", "witness_cap", "claims",
                "max_tree_order", "max_graph_order", "max_ratio_order",
                "max_family_order", "top"):
        if hasattr(args, key) and getattr(args, key) is not None:
            options[key] = getattr(args, key)
    return RunConfig(
        command=args.command,
        input=getattr(args, "input", None),
        orders=orders,
        output_format=args.output_format,
        output_path=_resolve_out(args.out),
        worker_count=getattr(args, "workers", 1),
        oracle_spot_check_rate=getattr(args, "spot_check_rate", 0.0) or 0.0,
        options=options,
    )


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, _ = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            args = _reparse_with_config(argv, args.command, args.config)
        config = _config_from_args(args)
        return run(config)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RouteDisagreement as exc:
        print(f"internal disagreement: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
