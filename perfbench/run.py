"""nisets benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src``.
With ``--trace 0`` the workload's command runs in fresh processes, one at a
time, until S seconds are used (at least once), and the end-to-end metrics
are printed.  With ``--trace 1`` the command runs untraced as a reference,
then ``replay.py`` re-runs its pipeline with one span per layer call, and
the per-layer metrics are printed.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  A full
record of the run, stamped with versions and load, is written under
``.perfbench_out/``.  See README.md for the metrics and how to read them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from pathlib import Path

import probe
from tracing import ROOT as ROOT_SPAN
from tracing import read_trace, self_times
from workloads import BATCH_CELLS, WORKLOADS, Output, make_batch

HERE = Path(__file__).resolve().parent
CHECKOUT = Path.cwd()
SRC = CHECKOUT / "src"
OUT = CHECKOUT / ".perfbench_out"
SETUP_SAMPLES = 7
RUN_LIMIT_S = 165  # a command still running then is killed, so the run ends within 180 s
STARTED = time.perf_counter()
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import nisets.cli; "
                "print(time.perf_counter() - t0, nisets.cli.__file__)")


@dataclass
class Execution:
    """One timed process: raw measurements plus the speed factor of its
    interval (probe.SpeedLog); ``*_ref`` values are scaled by it."""

    label: str
    cpus: tuple[int, ...]
    start: float
    end: float
    cpu_s: float
    maxrss_kb: int
    output: Output
    stdout: str
    factor: float = 1.0
    import_s: float = 0.0  # setup samples only: in-process import time

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    @property
    def wall_ref(self) -> float:
        return self.wall_s * self.factor

    @property
    def cpu_ref(self) -> float:
        return self.cpu_s * self.factor


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@contextmanager
def _pinned(cpus):
    """Pin this process, and so every child it starts, to ``cpus``."""
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, set(cpus))
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


class Overrun(Exception):
    """The run's time limit passed while a command was still running."""


def _overrun(signum, frame):
    raise Overrun


def execute(label: str, argv: list[str], cpus, report: Path | None = None,
            batch: tuple[str, ...] = ()) -> Execution:
    """Run ``argv`` to completion on ``cpus``; its resource usage comes
    from wait4, which covers the process and every child it reaped.  A
    command still running RUN_LIMIT_S after the benchmark started is
    killed with its whole process group and reported with status -9."""
    log = OUT / "child.log"
    if report is not None and report.exists():
        report.unlink()
    with _pinned(cpus), open(log, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=CHECKOUT, env=_child_env(), stdout=sink,
                                stderr=subprocess.STDOUT, start_new_session=True)
        signal.signal(signal.SIGALRM, _overrun)
        signal.setitimer(signal.ITIMER_REAL, max(STARTED + RUN_LIMIT_S - start, 0.001))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException as exc:
            with suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            if not isinstance(exc, Overrun):
                raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    data = report.read_bytes() if report is not None and report.exists() else b""
    return Execution(label, tuple(cpus), start, end, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss, Output(proc.returncode, data, batch), log.read_text())


@contextmanager
def probes(cpus):
    """Keep one speed probe pinned to each CPU in ``cpus``; yields a list
    that holds the SpeedLog once the probes have stopped."""
    paths = {cpu: OUT / f"probe-{cpu}.txt" for cpu in cpus}
    procs = [subprocess.Popen([sys.executable, str(HERE / "probe.py"), str(cpu), str(path)])
             for cpu, path in paths.items()]
    result = []
    try:
        time.sleep(0.2)
        yield result
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.wait()
    result.append(probe.SpeedLog.read(paths))


def setup_samples(cpu) -> list[Execution]:
    """Fresh interpreters that import nisets.cli and do no work."""
    runs = []
    for i in range(SETUP_SAMPLES):
        ex = execute(f"setup-{i}", [sys.executable, "-c", IMPORT_PROBE], (cpu,))
        fields = ex.stdout.split()
        if ex.output.status != 0 or len(fields) != 2 or not Path(fields[1]).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"nisets did not import from {SRC}: {ex.stdout.strip()}")
        ex.import_s = float(fields[0])
        runs.append(ex)
    return runs


def command(workload, report: Path, batch_path: Path, workers: int | None = None) -> list[str]:
    argv = [str(batch_path) if a == "BATCH" else a for a in workload.argv]
    if workers is not None:
        argv[argv.index("--workers") + 1] = str(workers)
    return [sys.executable, "-m", "nisets.cli", *argv, "--out", str(report)]


def run_for(seconds: float, once) -> list[Execution]:
    """Call ``once(i)`` until ``seconds`` are used, at least once, starting
    no execution that would be expected to end past the budget."""
    runs = [once(0)]
    while (runs[-1].end - runs[0].start) + statistics.fmean(r.wall_s for r in runs) <= seconds:
        runs.append(once(len(runs)))
    return runs


def check(checks, golden: str | None, outputs: list[tuple[str, Output]]) -> dict[str, list[str]]:
    """Problems per labelled output: each of ``checks``, the golden digest
    when given, and byte identity with the first output."""
    verdicts: dict[str, list[str]] = {}
    first_label, first = outputs[0]
    for label, out in outputs:
        problems = []
        for fn in checks:
            try:
                problems += fn(out)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problems.append(f"{fn.__name__}: unreadable report ({exc!r})")
        if golden and out.sha256 != golden:
            problems.append(f"report sha256 {out.sha256} differs from the reference")
        if out.data != first.data:
            problems.append(f"report bytes differ from {first_label}")
        verdicts[label] = problems
    return verdicts


def stamp(load_start, load_end) -> dict:
    import numpy

    ncpu = os.cpu_count()
    sha = None
    if (CHECKOUT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=CHECKOUT, capture_output=True, text=True)
        sha = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "nisets").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": ncpu,
        "affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": load_end,
        "loaded_at_start": load_start[0] > ncpu,
    }


def end_to_end(runs: list[Execution], setup: list[Execution], failed: int) -> dict:
    """End-to-end metrics: medians over the runs, times scaled by speed."""
    return {
        "wall_s": (statistics.median(r.wall_ref for r in runs), "s"),
        "cpu_s": (statistics.median(r.cpu_ref for r in runs), "s"),
        "peak_rss_mb": (statistics.median(r.maxrss_kb / 1024 for r in runs), "MB"),
        "setup_s": (statistics.median(r.wall_ref for r in setup), "s"),
        "pass_ratio": (1 - failed / len(runs), "ratio"),
    }


# The claims named in the per-layer metrics (BENCHMARK.json); the replay
# spans every claim the package runs, in nisets.scanner.ALL_CLAIMS order.
CLAIMS = (
    "graph-average-lower", "graph-average-upper", "tree-average-lower", "tree-average-band",
    "union-size-sandwich", "edge-average-bracket", "residual-count-sandwich",
    "degree-two-ratio", "tree-average-cap", "internal-degree-cap", "subdivided-star-band",
)


def per_layer(times: dict, counts: dict, extra: dict) -> dict:
    """Per-layer metrics from the replay's span table; a layer the
    workload's pipeline does not reach reads 0."""

    def self_s(name):
        return times.get(name, {}).get("self_s", 0.0)

    trees = counts.get("trees.count", 0)
    objects = trees + counts.get("scanner.class_count", 0)
    g6_calls = times.get("formats.to_graph6", {}).get("calls", 0)
    metrics = {
        "trees.successor_s": (self_s("trees.successor"), "s"),
        "trees.count": (trees, "count"),
        "graphs.to_graph_s": (self_s("graphs.to_graph"), "s"),
        "graphs.structural_s": (self_s("graphs.structural"), "s"),
        "engine.scalars1_s": (self_s("engine.scalars1"), "s"),
        "engine.us_per_tree": (self_s("engine.scalars1") / trees * 1e6 if trees else 0.0, "us"),
        "engine.i0_s": (self_s("engine.i0"), "s"),
        "engine.i1_s": (self_s("engine.i1"), "s"),
        "engine.i1_by_edges_s": (self_s("engine.i1_by_edges"), "s"),
        "engine.scalars_s": (self_s("engine.scalars"), "s"),
        "engine.edge_terms_s": (self_s("engine.edge_terms"), "s"),
        "formats.to_graph6_s": (self_s("formats.to_graph6"), "s"),
        "formats.to_graph6_calls": (g6_calls / objects if objects else 0.0, "calls/object"),
        "formats.from_graph6_s": (self_s("formats.from_graph6"), "s"),
        "scanner.fold_s": (self_s("scanner.fold"), "s"),
        "scanner.pool_efficiency": (extra.get("pool_efficiency", 0.0), "ratio"),
        "scanner.pool_overhead_cpu_s": (extra.get("pool_overhead_cpu_s", 0.0), "s"),
        "scanner.orbit_enum_s": (self_s("scanner.orbit_enum"), "s"),
        "scanner.class_count": (counts.get("scanner.class_count", 0), "count"),
        "scanner.class_records_s": (times.get("scanner.class_records", {}).get("inclusive_s", 0.0), "s"),
        **{f"scanner.claim.{c}_s": (self_s(f"scanner.claim.{c}"), "s") for c in CLAIMS},
        "oracle.spot_s": (self_s("oracle.spot"), "s"),
        "oracle.spot_count": (counts.get("oracle.spot_count", 0), "count"),
        "oracle.subsets": (counts.get("oracle.subsets", 0), "count"),
        "cli.compute_record_s": (self_s("cli.compute_record"), "s"),
        "cli.emit_s": (self_s("cli.emit"), "s"),
        "cli.output_bytes": (counts.get("cli.output_bytes", 0), "bytes"),
        "cli.import_s": (extra["import_s"], "s"),
        "trace.overhead_s": (extra["overhead_s"], "s"),
        "trace.self_coverage": (extra["self_coverage"], "ratio"),
    }
    return metrics


def measure(workload, seed: int, seconds: int, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    report = OUT / "report.json"
    batch_path = OUT / f"batch-seed{seed}.g6"
    batch: tuple[str, ...] = ()
    if "BATCH" in workload.argv:
        batch = tuple(make_batch(BATCH_CELLS, seed))
        batch_path.write_text("\n".join(batch) + "\n")
    cpus = tuple(sorted(os.sched_getaffinity(0)))[:workload.workers]
    main_cpu = cpus[0]
    record: dict = {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
                    "input_sha256": hashlib.sha256(batch_path.read_bytes()).hexdigest() if batch else None}
    extra: dict = {}
    with probes(cpus) as speed:
        setup = setup_samples(main_cpu)
        runs = run_for(seconds, lambda i: execute(f"run-{i}", command(workload, report, batch_path),
                                                  cpus, report, batch))
        reference = runs
        if trace and workload.workers > 1:
            single = execute("one-worker", command(workload, report, batch_path, workers=1),
                             (main_cpu,), report, batch)
            reference = [single]
            runs.append(single)
        if trace:
            replay_report = OUT / "replay-report.json"
            trace_path = OUT / f"{workload.name}-seed{seed}.trace.jsonl"
            replay = execute("replay", [sys.executable, str(HERE / "replay.py"), workload.name,
                                        str(replay_report), str(trace_path),
                                        *([str(batch_path)] if batch else [])],
                             (main_cpu,), replay_report, batch)
    log = speed[0]
    for ex in [*setup, *runs, *([replay] if trace else [])]:
        ex.factor = log.factor(ex.start, ex.end, ex.cpus)
    verdicts = check(workload.checks, workload.golden, [(ex.label, ex.output) for ex in runs])
    if trace:
        verdicts["replay"] = ([] if replay.output.data == reference[0].output.data
                              and replay.output.status == reference[0].output.status
                              else [f"replay report differs from {reference[0].label} "
                                    f"(status {replay.output.status}): {replay.stdout[-400:]}"])
        header, spans = read_trace(trace_path)
        times = self_times(spans, scale=lambda a, b: log.factor(a, b, (main_cpu,)))
        root = times.pop(ROOT_SPAN)
        setup_ref = statistics.median(r.wall_ref for r in setup)
        extra["import_s"] = statistics.median(r.import_s * r.factor for r in setup)
        extra["overhead_s"] = root["inclusive_s"] - (statistics.median(r.wall_ref for r in reference) - setup_ref)
        extra["self_coverage"] = sum(t["self_s"] for t in times.values()) / root["inclusive_s"]
        if workload.workers > 1:
            multi = statistics.median(r.wall_ref for r in runs if r.label != "one-worker")
            multi_cpu = statistics.median(r.cpu_ref for r in runs if r.label != "one-worker")
            extra["pool_efficiency"] = single.wall_ref / (workload.workers * multi)
            extra["pool_overhead_cpu_s"] = multi_cpu - single.cpu_ref
        metrics = per_layer(times, header["counts"], extra)
        record["trace_file"] = str(trace_path.relative_to(CHECKOUT))
        record["spans"] = len(spans)
        record["layers"] = times
    else:
        metrics = end_to_end(runs, setup, sum(1 for problems in verdicts.values() if problems))
    record["executions"] = [{
        "label": ex.label, "wall_s": ex.wall_s, "cpu_s": ex.cpu_s, "speed": ex.factor,
        "wall_ref_s": ex.wall_ref, "cpu_ref_s": ex.cpu_ref, "maxrss_mb": ex.maxrss_kb / 1024,
        "status": ex.output.status, "report_sha256": ex.output.sha256, "problems": verdicts.get(ex.label, []),
    } for ex in [*runs, *([replay] if trace else [])]]
    record["setup"] = [{"wall_s": ex.wall_s, "speed": ex.factor} for ex in setup]
    record["metrics"] = metrics
    record["attempted"] = len(verdicts)
    record["failed"] = sum(1 for problems in verdicts.values() if problems)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nisets" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'nisets'}; run from the root of a nisets checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    load_start = os.getloadavg()
    record = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    record["stamp"] = stamp(load_start, os.getloadavg())
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")

    st = record["stamp"]
    print(f"# {args.workload} seed {args.seed}: {record['attempted']} checked, {record['failed']} failed; "
          f"python {st['python']} numpy {st['numpy']} nproc {st['nproc']} "
          f"load {st['loadavg_start'][0]:.2f}->{st['loadavg_end'][0]:.2f}"
          + (" LOADED AT START" if st["loaded_at_start"] else "") + f"; record in .perfbench_out/{name}")
    for ex in record["executions"]:
        print(f"#   {ex['label']}: wall {ex['wall_s']:.3f} s at speed {ex['speed']:.3f} -> {ex['wall_ref_s']:.3f} s, "
              f"rss {ex['maxrss_mb']:.1f} MB" + (f"; PROBLEMS: {ex['problems']}" if ex["problems"] else ""))
    for key, (value, unit) in record["metrics"].items():
        print(f"{key} {value} {unit}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
