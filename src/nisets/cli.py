"""Command-line front door.

Subcommands: compute (statistics of one graph, or a graph6 batch), oracle
(brute-force subset counts), families (closed-form regression table), trees
(free-tree stream as graph6), scan (extremal sweep of one population),
verify (the full claim suites, JSON report) and conjecture (tree-maximum
evidence).  All output is byte-deterministic for a fixed configuration;
rationals are printed in lowest terms as ``p/q``.  The exit status is
nonzero exactly when an inequality claim fails or two internal computation
routes disagree.  Each command reads the parsed ``argparse.Namespace``;
every default lives in ``_build_parser``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import stat
import sys
from fractions import Fraction
from itertools import chain

from .engine import Engine, NisSummary, format_rational, moments
from .families import CLOSED_FORM_FAMILIES, FAMILY_MIN_ORDER, FamilySpec, closed_form_summary
from .formats import from_graph6, parse_edge_list, to_graph6
from .graphs import Graph, iter_bits
from .oracle import oracle_profile
from .scanner import (
    GRAPH_FILTERS,
    OBJECTIVES,
    WITNESS_CAP,
    RouteDisagreement,
    conjecture_scan,
    has_inequality_violations,
    scan_graphs,
    scan_trees,
    verify_claims,
)
from .trees import free_trees

ENV_OUTPUT_DIR = "NISETS_OUTPUT_DIR"
_RATE_HELP = "share of each tree order checked against the subset oracle, in [0, 1]"
_WORKERS_HELP = "processes that score the trees, this one included: w - 1 pool processes"


@contextlib.contextmanager
def _output(path: str | None):
    """Handle for the output file, or stdout (left open) when ``path`` is
    None.  A new or regular file, with any symlink to it followed, is
    written beside it under a temporary name that takes its mode and is
    renamed onto it only on success, so a failed run leaves no report.
    Any other target (a device, a FIFO, /dev/fd/N), or a file in a
    directory that takes no new file, is written in place."""
    if path is None:
        yield sys.stdout
        return
    try:
        info = os.stat(path)
    except FileNotFoundError:
        info = None
    target = os.path.realpath(path)
    partial = f"{target}.{os.getpid()}.partial"
    handle = None
    if info is None or stat.S_ISREG(info.st_mode):
        with contextlib.suppress(OSError):
            handle = open(partial, "w")
    if handle is None:
        with open(path, "w") as handle:
            yield handle
        return
    try:
        with handle:
            if info is not None:
                os.chmod(handle.fileno(), stat.S_IMODE(info.st_mode))
                with contextlib.suppress(OSError):  # only root may give a file away
                    os.chown(handle.fileno(), info.st_uid, info.st_gid)
            yield handle
        os.replace(partial, target)
    except BaseException:
        os.unlink(partial)
        raise


def _emit(text: str, path: str | None) -> None:
    with _output(path) as handle:
        handle.write(text)


_escape = json.encoder.encode_basestring_ascii  # the C escaper where json has one


def _indented(value, pad: str = "") -> str:
    """``json.dumps(value, indent=2)``, for a value nested ``pad`` deep.

    On an indent, ``json`` takes its pure-Python encoder; this builds the
    same text from the C string escaper, ``int.__repr__`` and one join per
    dict or list.  Inside a dict or a list, leaves of exact type int or
    str are written in place; other leaves (bool, None, float) go through
    ``json.dumps``, which also raises the same ``TypeError`` on a value
    json cannot write."""
    if isinstance(value, str):
        return _escape(value)
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = [f"{_key(key)}: " + (int.__repr__(item) if type(item) is int
                                    else _escape(item) if type(item) is str
                                    else _indented(item, inner))
                for key, item in value.items()]
        return "{\n" + inner + (",\n" + inner).join(body) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        body = [int.__repr__(item) if type(item) is int
                else _escape(item) if type(item) is str
                else _indented(item, inner)
                for item in value]
        return "[\n" + inner + (",\n" + inner).join(body) + "\n" + pad + "]"
    if type(value) is int:
        return int.__repr__(value)
    return json.dumps(value)


def _key(key) -> str:
    """A dict key as ``json`` writes it: a non-str key is quoted as its own
    JSON text (bool and None included)."""
    if isinstance(key, str):
        return _escape(key)
    if isinstance(key, (int, float)) or key is None:
        return f'"{json.dumps(key)}"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _emit_json_array(items, path: str | None) -> None:
    """Write an iterable's items as one indented JSON array, each as soon as
    it is produced: the bytes of ``_indented(list(items))`` and a newline."""
    with _output(path) as handle:
        opening = "[\n  "
        for item in items:
            handle.write(opening + _indented(item, "  "))
            opening = ",\n  "
        handle.write("[]\n" if opening == "[\n  " else "\n]\n")


def _cell(value):
    """A report value as one CSV cell: a list is one ``;``-joined cell."""
    return ";".join(map(str, value)) if isinstance(value, list) else value


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _write(args: argparse.Namespace, payload, header, rows) -> None:
    """The report as JSON ``payload`` or as a CSV table, per --output-format;
    ``rows`` may be a generator, consumed only for CSV."""
    if args.output_format == "json":
        _emit(_indented(payload) + "\n", args.out)
    else:
        _emit(_csv_text(header, rows), args.out)


def _one_input(args: argparse.Namespace, names) -> str | None:
    """The one option of ``names`` that is given, or None; two are refused."""
    given = [name for name in names if getattr(args, name) is not None]
    if len(given) > 1:
        flags = " and ".join(f"--{name}" for name in given)
        raise ValueError(f"{flags} conflict: give only one graph input")
    return given[0] if given else None


def _read_graph(args: argparse.Namespace) -> Graph:
    source = _one_input(args, ("graph6", "edges", "input"))
    if source == "graph6":
        return from_graph6(args.graph6)
    if source == "edges":
        return parse_edge_list(args.edges.replace(" / ", "\n").replace("/", "\n"))
    if source is None:
        raise ValueError("no graph given: use --graph6, --edges or --input")
    if args.input == "-":
        return parse_edge_list(sys.stdin.read())
    with open(args.input) as handle:
        return parse_edge_list(handle.read())


def _decimal(value: Fraction) -> str:
    return f"{value.numerator / value.denominator:.6f}"


def _compute_record(graph: Graph) -> dict:
    eng = Engine(graph)
    p0 = eng.i0()
    p1 = eng.i1()
    p1_edges = eng.i1_by_edges()
    (sig1, tot1), (sig0, tot0) = eng.scalars1(), eng.scalars0()

    edge_terms = eng.edge_terms()
    # each one-edge subset is an edge uv plus an independent set of R_uv
    by_terms = (sum(t.sigma0 for t in edge_terms), sum(2 * t.sigma0 + t.s0 for t in edge_terms))
    if (p1 != p1_edges or (sig1, tot1) != moments(p1) or (sig0, tot0) != moments(p0)
            or by_terms != (sig1, tot1)):
        raise RouteDisagreement(
            f"internal routes disagree on {to_graph6(graph)}: "
            f"pivot {p1}, per-edge {p1_edges}, scalar ({sig1}, {tot1}), "
            f"edge terms {by_terms}; level 0 {p0}, scalar ({sig0}, {tot0})"
        )
    av0 = NisSummary.from_counts(sig0, tot0).average
    av1 = NisSummary.from_counts(sig1, tot1).average
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
    record["edge_terms"] = [{
        "u": term.edge[0],
        "v": term.edge[1],
        "residual": list(iter_bits(term.residual_mask)),
        "sigma0": term.sigma0,
        "s0": term.s0,
        "weight": format_rational(term.sigma0, term.sigma1),
        "av0": format_rational(term.s0, term.sigma0),
        "union_size": term.union_size,
    } for term in edge_terms]
    return record


def _compute_csv(records) -> str:
    head = ["n", "edges", "sigma0", "s0", "av0", "av0_decimal",
            "sigma1", "s1", "av1", "av1_decimal", "i0_coefficients", "i1_coefficients", "note"]
    text = _csv_text(head, ([_cell(rec.get(k, "")) for k in head] for rec in records))
    edge_head = ["u", "v", "sigma0", "s0", "weight", "av0", "union_size"]
    edge_rows = ([i, *(term[k] for k in edge_head)]
                 for i, rec in enumerate(records) for term in rec["edge_terms"])
    return text + "\n" + _csv_text(["graph_index", *edge_head], edge_rows)


def _batch_record(number: int, line: str) -> dict:
    """The record of one batch line; an error names the line, counted from 1."""
    try:
        return _compute_record(from_graph6(line))
    except ValueError as exc:
        raise ValueError(f"line {number}: {exc}") from exc


def _cmd_compute(args: argparse.Namespace) -> int:
    if _one_input(args, ("batch", "graph6", "edges", "input")) != "batch":
        record = _compute_record(_read_graph(args))
        if args.output_format == "json":
            _emit(_indented(record) + "\n", args.out)
        else:
            _emit(_compute_csv([record]), args.out)
        return 0
    with open(args.batch) as handle:
        lines = ((number, line) for number, line in enumerate(handle, 1) if line.strip())
        first = next(lines, None)
        if first is None:
            raise ValueError(f"batch {args.batch} holds no graph, so compute would check nothing")
        records = (_batch_record(number, line) for number, line in chain([first], lines))
        if args.output_format == "json":
            _emit_json_array(records, args.out)
        else:
            _emit(_compute_csv(list(records)), args.out)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    graph = _read_graph(args)
    profile = oracle_profile(graph, args.level)
    payload = {
        "n": graph.n,
        "level": args.level,
        "by_size": list(profile.by_size),
        "sigma": profile.sigma,
        "total": profile.total,
        "average": format_rational(NisSummary.from_counts(profile.sigma, profile.total).average),
    }
    _write(args, payload, payload.keys(), [[_cell(v) for v in payload.values()]])
    return 0


def _cmd_families(args: argparse.Namespace) -> int:
    lo, hi = args.orders
    names = CLOSED_FORM_FAMILIES if args.family == "all" else [args.family]
    # every order is refused or accepted before any closed form is evaluated
    specs = [FamilySpec(name, n) for name in names
             for n in range(max(lo, FAMILY_MIN_ORDER[name], 2), hi + 1)]
    if not specs:
        first = min(max(FAMILY_MIN_ORDER[name], 2) for name in names)
        what = "any family" if args.family == "all" else args.family
        raise ValueError(f"orders {lo}:{hi} lie below the first order of {what} ({first}), "
                         "so the table would be empty")
    header = ["family", "n", "sigma1", "s1", "av1_num", "av1_den"]
    rows = []
    for spec in specs:
        summary = closed_form_summary(spec, 1)
        rows.append([spec.family, spec.n, summary.sigma, summary.total,
                     summary.average.numerator, summary.average.denominator])
    _write(args, [dict(zip(header, row)) for row in rows], header, rows)
    return 0


def _cmd_trees(args: argparse.Namespace) -> int:
    if args.order is None:
        raise ValueError("trees requires --order")
    trees = free_trees(args.order)
    first = next(trees)  # checks the order before the output is opened
    with _output(args.out) as handle:
        handle.writelines(to_graph6(tree) + "\n" for tree in chain([first], trees))
    return 0


def _witness_cap(args: argparse.Namespace) -> int | None:
    # a negative flag requests the full, uncapped witness lists
    return None if args.witness_cap < 0 else args.witness_cap


def _cmd_scan(args: argparse.Namespace) -> int:
    if args.order is None:
        raise ValueError("scan requires --order")
    # refuse, rather than ignore, the options of the other population
    if args.population == "graphs" and (args.workers != 1 or args.spot_check_rate != 0):
        raise ValueError("--workers and --spot-check-rate apply only to --population trees")
    if args.population == "trees" and args.filter != "all":
        raise ValueError("--filter applies only to --population graphs")
    if args.population == "trees":
        report = scan_trees(
            args.order, args.objective,
            workers=args.workers,
            witness_cap=_witness_cap(args),
            spot_check_rate=args.spot_check_rate,
        )
    else:
        report = scan_graphs(args.order, args.filter, args.objective,
                             witness_cap=_witness_cap(args))
        # only order 1 can keep no class: its one graph is edgeless
        if report.max_value is None:
            raise ValueError(f"--filter {args.filter} keeps no order-{args.order} class for "
                             f"--objective {args.objective}, so the scan would check nothing")
    d = report.to_json_dict()
    header = ["population", "order", "objective", "min", "max",
              "min_count", "max_count", "min_witnesses", "max_witnesses"]
    cells = {**d, **d["extremal"]}
    _write(args, d, header, [[_cell(cells[key]) for key in header]])
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    claims = args.claims
    if claims != "all":
        claims = [c for c in (c.strip() for c in claims.split(",")) if c]
    spot_checked = {}
    reports = verify_claims(
        claims=claims,
        max_tree_order=args.max_tree_order,
        max_graph_order=args.max_graph_order,
        max_ratio_order=args.max_ratio_order,
        max_family_order=args.max_family_order,
        witness_cap=_witness_cap(args),
        spot_check_rate=args.spot_check_rate,
        spot_checked=spot_checked,
    )
    payload = {
        "reports": [r.to_json_dict() for r in reports],
        "spot_checked_trees": spot_checked,
        "inequality_violations": sum(len(r.inequality_violations) for r in reports),
        "recorded_discrepancies": sum(
            1 for r in reports for v in r.violations if v.equality_claim),
    }
    header = ["claim_id", "population", "order", "status", "min", "max", "violations"]
    rows = ([d["claim_id"], d["population"], d["order"], d["status"],
             d["extremal"]["min"], d["extremal"]["max"], len(d["violations"])]
            for d in payload["reports"])
    _write(args, payload, header, rows)
    return 1 if has_inequality_violations(reports) else 0


def _cmd_conjecture(args: argparse.Namespace) -> int:
    lo, hi = args.orders
    records = conjecture_scan(
        range(lo, hi + 1),
        workers=args.workers,
        top_k=args.top,
        spot_check_rate=args.spot_check_rate,
    )
    dicts = [rec.to_json_dict() for rec in records]
    header = ["order", "max", "subdivided_star", "unique_max", "max_witnesses"]
    rows = ([d["order"], d["max"], d["subdivided_star"], d["subdivided_star_is_unique_max"],
             _cell(d["max_witnesses"])] for d in dicts)
    _write(args, dicts, header, rows)
    return 0


def _parse_orders(text: str) -> tuple[int, int]:
    lo, colon, hi = text.partition(":")
    try:
        lo, hi = int(lo), int(hi if colon else lo)
    except ValueError:
        raise argparse.ArgumentTypeError(f"order range {text!r} is not LO:HI in integers") from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"order range {text} is reversed: LO exceeds HI")
    return lo, hi


def _single_order(text: str) -> tuple[int, int]:
    try:
        return (int(text),) * 2
    except ValueError:
        raise argparse.ArgumentTypeError(f"order {text!r} is not an integer N") from None


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that records, for config files, the flag behind
    each config key: the option's destination, or ``key`` where two flags
    share one."""

    def __init__(self, **kwargs):
        self.flags: dict[str, str] = {}
        super().__init__(**kwargs)
        # options the constructor adds, such as -h, take no config key
        self.flags.clear()

    def add_argument(self, *names, key=None, **kwargs):
        action = super().add_argument(*names, **kwargs)
        self.flags[key or action.dest] = names[0]
        return action


def _add_graph_input(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", help="edge-list file, or - for stdin")
    parser.add_argument("--graph6", help="inline graph6 string")
    parser.add_argument("--edges", help="inline edge list, lines separated by '/'")


def _add_witness_cap(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--witness-cap", type=int, default=WITNESS_CAP,
                        help="max stored witnesses per extreme; negative for full lists")


def _add_sweep(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
    parser.add_argument("--spot-check-rate", type=float, default=0.0, help=_RATE_HELP)


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, _Parser]]:
    """The top-level parser and each subcommand's parser by name."""
    parser = _Parser(
        prog="nisets",
        description="Exact statistics of vertex subsets inducing exactly one edge.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def command(name: str, func, summary: str, output_format: str | None = "json") -> _Parser:
        p = commands[name] = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        p.add_argument("--out", help="output path (stdout when omitted); "
                       f"relative paths resolve under ${ENV_OUTPUT_DIR} when set")
        if output_format:
            p.add_argument("--output-format", choices=["json", "csv"], default=output_format)
        p.add_argument("--config", help="JSON object of option values, keyed by "
                       "destination (max_tree_order, level, n); explicit flags win")
        return p

    p = command("compute", _cmd_compute, "statistics of one graph (or a graph6 batch)")
    _add_graph_input(p)
    p.add_argument("--batch", help="file of newline-delimited graph6 strings")

    p = command("oracle", _cmd_oracle, "brute-force subset counts (debugging)")
    _add_graph_input(p)
    p.add_argument("--l", dest="level", type=int, default=1, help="induced-edge count")

    p = command("families", _cmd_families, "closed-form regression table", output_format="csv")
    p.add_argument("--family", default="all",
                   choices=sorted([*CLOSED_FORM_FAMILIES, "all"]))
    # --n and --orders set one destination, so the later of the two wins
    p.add_argument("--orders", type=_parse_orders, default="2:12", help="order range LO:HI")
    p.add_argument("--n", dest="orders", key="n", type=_single_order, metavar="N",
                   help="single order")

    p = command("trees", _cmd_trees, "free-tree stream", output_format=None)
    p.add_argument("--order", type=int)

    p = command("scan", _cmd_scan, "extremal sweep over one population")
    p.add_argument("--population", choices=["trees", "graphs"], default="trees")
    p.add_argument("--order", type=int)
    p.add_argument("--objective", choices=OBJECTIVES, default="av1")
    p.add_argument("--filter", choices=GRAPH_FILTERS, default="all")
    _add_sweep(p)
    _add_witness_cap(p)

    p = command("verify", _cmd_verify, "run the claim suites")
    p.add_argument("--claims", default="all", help="'all' or comma-separated claim ids")
    p.add_argument("--max-tree-order", type=int, default=16)
    p.add_argument("--max-graph-order", type=int, default=7)
    p.add_argument("--max-ratio-order", type=int, default=10)
    p.add_argument("--max-family-order", type=int, default=40)
    p.add_argument("--spot-check-rate", type=float, default=0.01, help=_RATE_HELP)
    _add_witness_cap(p)

    p = command("conjecture", _cmd_conjecture, "tree-maximum evidence scan")
    p.add_argument("--orders", type=_parse_orders, default="4:12", help="order range LO:HI")
    p.add_argument("--top", type=int, default=5)
    _add_sweep(p)

    return parser, commands


def _config_argv(path: str, command: str, flags: dict[str, str]) -> list[str]:
    """A config file's entries as ``--flag=value`` tokens.  Keys are option
    destinations, with either ``-`` or ``_``; values are JSON strings or
    numbers."""
    with open(path) as handle:
        entries = json.load(handle)
    if not isinstance(entries, dict):
        raise ValueError("config file must hold a JSON object")
    tokens = []
    for key, value in entries.items():
        flag = flags.get(key.replace("-", "_"))
        if flag is None:
            raise ValueError(f"config key {key!r} unknown for command {command!r}")
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise ValueError(f"config value of {key!r} must be a string or a number")
        tokens.append(f"{flag}={value}")
    return tokens


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # config tokens go straight after the command, so explicit flags,
            # parsed later, overwrite them
            at = argv.index(args.command) + 1
            config = _config_argv(args.config, args.command, commands[args.command].flags)
            args = parser.parse_args(argv[:at] + config + argv[at:])
        base = os.environ.get(ENV_OUTPUT_DIR)
        if args.out and base and not os.path.isabs(args.out):
            args.out = os.path.join(base, args.out)
        return args.func(args)
    except RouteDisagreement as exc:
        print(f"internal disagreement: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
