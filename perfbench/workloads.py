"""The benchmark's workloads: their commands, inputs and output checks.

See README.md for why each workload exists and which layer it stresses.
Each check takes one command output and returns a list of problems; an
empty list is a pass.  ``selftest.py`` feeds every check a deliberately
corrupted report to show that none of them passes vacuously.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text())

VERIFY_MAX_TREE_ORDER = 16
SPOT_CHECK_RATE = 0.01
TREE_SWEEP_ORDERS = (4, 17)
TREE_SWEEP_TOP = 5
GRAPH_SCAN_ORDER = 7
ORACLE_CHECK_MAX_ORDER = 20

# compute-batch cells: (order, edge density, graphs per cell).  Every graph
# has exactly round(density * C(n, 2)) edges placed at random.  Counts are
# chosen so that no single graph is a large share of the batch time, which
# keeps the total within a few percent between seeds; the dense large
# graphs carry most of the edge-term and JSON volume.
BATCH_CELLS = (
    *((16, p, 6) for p in (0.1, 0.2, 0.3, 0.4, 0.5)),
    *((20, p, 3) for p in (0.1, 0.2, 0.3, 0.4, 0.5)),
    *((24, p, 8) for p in (0.1, 0.2, 0.3, 0.4, 0.5)),
    *((28, p, 8) for p in (0.1, 0.2, 0.3, 0.4, 0.5)),
    (32, 0.1, 8), (32, 0.2, 6), (32, 0.3, 6), (32, 0.4, 8), (32, 0.5, 8),
    (36, 0.1, 6), (36, 0.3, 4), (36, 0.4, 6), (36, 0.5, 8),
    (40, 0.4, 4), (40, 0.5, 8),
    (44, 0.5, 8),
)
TINY_BATCH_CELLS = ((8, 0.3, 1), (11, 0.4, 1), (14, 0.2, 1))


@dataclass(frozen=True)
class Output:
    """What one command run left behind."""

    status: int
    data: bytes
    batch: tuple[str, ...] = ()

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.data).hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]  # after `python3 -m nisets.cli`; BATCH stands for the input file
    workers: int  # processes that compute at once
    checks: tuple  # functions Output -> list[str]
    golden: str | None = None  # sha256 of the report at the full size, if seed-independent


def _payload(out: Output):
    return json.loads(out.data)


def check_exit_zero(out: Output) -> list[str]:
    return [] if out.status == 0 else [f"exit status {out.status}, expected 0"]


def check_verify_counts(out: Output) -> list[str]:
    payload = _payload(out)
    violations = [v for r in payload["reports"] for v in r["violations"]]
    inequality = sum(1 for v in violations if not v["equality_claim"])
    recorded = sum(1 for v in violations if v["equality_claim"])
    problems = []
    if inequality != 0 or payload["inequality_violations"] != 0:
        problems.append(f"{inequality} inequality violations in the reports, "
                        f"{payload['inequality_violations']} in the summary; expected 0")
    if recorded != 2 or payload["recorded_discrepancies"] != 2:
        problems.append(f"{recorded} recorded discrepancies in the reports, "
                        f"{payload['recorded_discrepancies']} in the summary; expected 2")
    return problems


def tree_maxima_check(orders: tuple[int, int]):
    lo, hi = orders
    want = REFERENCE["tree_maxima"]

    def check_tree_maxima(out: Output) -> list[str]:
        payload = _payload(out)
        got = [rec["order"] for rec in payload]
        if got != list(range(lo, hi + 1)):
            return [f"orders {got}, expected {lo}..{hi}"]
        problems = []
        for rec in payload:
            ref = want[str(rec["order"])]
            if rec["max"] != ref["max"] or rec["subdivided_star_is_unique_max"] != ref["unique"]:
                problems.append(f"order {rec['order']}: max {rec['max']} unique "
                                f"{rec['subdivided_star_is_unique_max']}, expected "
                                f"{ref['max']} unique {ref['unique']}")
        return problems

    return check_tree_maxima


def graph_extremes_check(n: int):
    def check_graph_extremes(out: Output) -> list[str]:
        payload = _payload(out)
        top = Fraction(n, 2) + 1
        want = {"order": n, "min": "2", "max": str(top), "max_count": 1}
        got = {"order": payload["order"], "min": payload["extremal"]["min"],
               "max": payload["extremal"]["max"], "max_count": payload["max_count"]}
        return [] if got == want else [f"scan gave {got}, expected {want}"]

    return check_graph_extremes


def check_compute_oracle(out: Output) -> list[str]:
    from nisets.formats import from_graph6
    from nisets.oracle import oracle_summary

    records = _payload(out)
    if len(records) != len(out.batch):
        return [f"{len(records)} records for {len(out.batch)} input graphs"]
    problems = []
    for index, (rec, line) in enumerate(zip(records, out.batch)):
        graph = from_graph6(line)
        if (rec["n"], rec["edges"]) != (graph.n, graph.edge_count):
            problems.append(f"record {index}: order/size {rec['n']}/{rec['edges']}, "
                            f"input {graph.n}/{graph.edge_count}")
            continue
        if graph.n > ORACLE_CHECK_MAX_ORDER:
            continue
        for level, sigma, total in ((0, rec["sigma0"], rec["s0"]), (1, rec["sigma1"], rec["s1"])):
            want = oracle_summary(graph, level)
            if (sigma, total) != (want.sigma, want.total):
                problems.append(f"record {index} level {level}: ({sigma}, {total}), "
                                f"oracle ({want.sigma}, {want.total})")
    return problems


def make_batch(cells, seed: int) -> list[str]:
    """The compute-batch input for ``seed``: graph6 lines, cell by cell."""
    rng = random.Random(seed)
    lines = []
    for n, density, count in cells:
        pairs = [(u, v) for v in range(1, n) for u in range(v)]
        for _ in range(count):
            lines.append(_graph6(n, rng.sample(pairs, round(density * len(pairs)))))
    return lines


def _graph6(n: int, edges) -> str:
    """Header-less graph6, written here rather than by the package so the
    input does not depend on the code under test."""
    bits = [0] * (n * (n - 1) // 2)
    for u, v in edges:
        bits[v * (v - 1) // 2 + u] = 1
    bits += [0] * (-len(bits) % 6)
    data = (int("".join(map(str, bits[k:k + 6])), 2) for k in range(0, len(bits), 6))
    return chr(63 + n) + "".join(chr(63 + x) for x in data)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "verify-default",
            ("verify",), 1,
            (check_exit_zero, check_verify_counts),
            REFERENCE["golden"]["verify-default"],
        ),
        Workload(
            "tree-sweep",
            ("conjecture", "--orders", "%d:%d" % TREE_SWEEP_ORDERS, "--workers", "2"), 2,
            (check_exit_zero, tree_maxima_check(TREE_SWEEP_ORDERS)),
            REFERENCE["golden"]["tree-sweep"],
        ),
        Workload(
            "graph-scan",
            ("scan", "--population", "graphs", "--order", str(GRAPH_SCAN_ORDER)), 1,
            (check_exit_zero, graph_extremes_check(GRAPH_SCAN_ORDER)),
            REFERENCE["golden"]["graph-scan"],
        ),
        Workload(
            "compute-batch",
            ("compute", "--batch", "BATCH"), 1,
            (check_exit_zero, check_compute_oracle),
        ),
    )
}
