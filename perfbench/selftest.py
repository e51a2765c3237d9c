"""Self-test of the benchmark's output checks at tiny sizes.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Each workload's command runs at a tiny
size (trees to order 8, graphs of order 4, a 3-graph batch); every check
must accept the real report and reject each deliberately corrupted copy
of it, so that no check passes vacuously.  Exits 1 if any expectation
fails.
"""

from __future__ import annotations

import json
import os
import sys

import run
from workloads import (
    TINY_BATCH_CELLS,
    Output,
    check_compute_oracle,
    check_exit_zero,
    check_verify_counts,
    graph_extremes_check,
    make_batch,
    tree_maxima_check,
)

TINY_TREE_ORDERS = (4, 8)
TINY_GRAPH_ORDER = 4


def _cli(label: str, args: list[str], batch: tuple[str, ...] = ()) -> Output:
    report = run.OUT / f"selftest-{label}.json"
    argv = [sys.executable, "-m", "nisets.cli", *args, "--out", str(report)]
    return run.execute(label, argv, sorted(os.sched_getaffinity(0))[:2], report, batch).output


def _edit(out: Output, change, status: int | None = None) -> Output:
    payload = json.loads(out.data)
    change(payload)
    return Output(out.status if status is None else status, (json.dumps(payload, indent=2) + "\n").encode(), out.batch)


def _fake_inequality(payload):
    payload["reports"][0]["violations"].append({
        "graph6": "A_", "claim": "injected", "observed": "1", "expected": ">= 2", "equality_claim": False})


def _reclassify_discrepancy(payload):
    for report in payload["reports"]:
        for violation in report["violations"]:
            if violation["equality_claim"]:
                violation["equality_claim"] = False
                return


def _drop_discrepancy(payload):
    for report in payload["reports"]:
        kept = [v for v in report["violations"] if not v["equality_claim"]]
        if len(kept) != len(report["violations"]):
            report["violations"] = kept
            payload["recorded_discrepancies"] -= 1
            return


def _set(path, value):
    def change(payload):
        target = payload
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value(target[path[-1]]) if callable(value) else value
    return change


def main() -> int:
    if not (run.SRC / "nisets" / "cli.py").is_file():
        print(f"error: no package source at {run.SRC / 'nisets'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(exist_ok=True)
    lo, hi = TINY_TREE_ORDERS
    batch = tuple(make_batch(TINY_BATCH_CELLS, seed=0))
    batch_path = run.OUT / "selftest-batch.g6"
    batch_path.write_text("\n".join(batch) + "\n")

    verify = _cli("verify", ["verify", "--max-tree-order", str(hi), "--max-graph-order", str(TINY_GRAPH_ORDER)])
    trees2 = _cli("trees-2w", ["conjecture", "--orders", f"{lo}:{hi}", "--workers", "2"])
    trees1 = _cli("trees-1w", ["conjecture", "--orders", f"{lo}:{hi}", "--workers", "1"])
    graphs = _cli("graphs", ["scan", "--population", "graphs", "--order", str(TINY_GRAPH_ORDER)])
    compute = _cli("compute", ["compute", "--batch", str(batch_path)], batch)
    tree_maxima = tree_maxima_check(TINY_TREE_ORDERS)
    graph_extremes = graph_extremes_check(TINY_GRAPH_ORDER)

    # (check, real output, {corruption name: corrupted output})
    cases = [
        (check_exit_zero, verify, {"exit status 1": _edit(verify, lambda p: None, status=1)}),
        (check_verify_counts, verify, {
            "an injected inequality violation": _edit(verify, _fake_inequality),
            "a summary claiming one inequality violation": _edit(verify, _set(["inequality_violations"], 1)),
            "a discrepancy recast as an inequality violation": _edit(verify, _reclassify_discrepancy),
            "one recorded discrepancy dropped": _edit(verify, _drop_discrepancy),
        }),
        (tree_maxima, trees2, {
            "a wrong maximum at order 8": _edit(trees2, _set([-1, "max"], "1")),
            "a flipped uniqueness flag at order 7": _edit(trees2, _set([-2, "subdivided_star_is_unique_max"], lambda v: not v)),
            "order 8 missing": _edit(trees2, lambda p: p.pop()),
        }),
        (graph_extremes, graphs, {
            "a second maximiser": _edit(graphs, _set(["max_count"], 2)),
            "a minimum below 2": _edit(graphs, _set(["extremal", "min"], "3/2")),
        }),
        (check_compute_oracle, compute, {
            "sigma1 off by one": _edit(compute, _set([0, "sigma1"], lambda v: v + 1)),
            "s0 off by one": _edit(compute, _set([2, "s0"], lambda v: v - 1)),
            "a record dropped": _edit(compute, lambda p: p.pop()),
        }),
    ]
    failures = 0

    def expect(ok: bool, text: str) -> None:
        nonlocal failures
        failures += not ok
        print(("ok    " if ok else "FAIL  ") + text)

    for fn, real, corrupted in cases:
        expect(not fn(real), f"{fn.__name__} accepts the real report")
        for name, bad in corrupted.items():
            try:
                rejected = bool(fn(bad))
            except (ValueError, KeyError, TypeError, IndexError):
                rejected = True
            expect(rejected, f"{fn.__name__} rejects {name}")

    flipped = Output(trees1.status, trees1.data.replace(b'"order": 8', b'"order": 9', 1), trees1.batch)
    expect(not any(run.check((), None, [("2w", trees2), ("1w", trees1)]).values()),
           "byte identity holds between 2 workers and 1 worker")
    expect(bool(run.check((), None, [("2w", trees2), ("1w", flipped)])["1w"]),
           "byte identity rejects a 1-worker report that differs")
    expect(not any(run.check((), graphs.sha256, [("a", graphs)]).values()),
           "the golden digest accepts the report it was taken from")
    expect(bool(run.check((), graphs.sha256, [("a", trees2)])["a"]),
           "the golden digest rejects another report")
    print(f"{failures} expectation(s) failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
