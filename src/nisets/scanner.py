"""Exhaustive verification scans over all small graphs and all free trees.

Graph populations are enumerated as full labelled-graph orbits (every
2^C(n,2) edge set, deduplicated into isomorphism classes by expanding the
permutation orbit of each previously unseen mask), so the exhaustiveness of
every claim check is auditable.  Tree populations come from the free-tree
generator.  All claim checks are exact rational comparisons.

Failed equality statements are recorded as violations and never dropped;
a failed inequality would indicate an engine bug and makes the surrounding
tooling exit nonzero.
"""

from __future__ import annotations

import random
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import factorial
from multiprocessing import Pool

import numpy as np

from .engine import Engine, format_rational, tree_scalars
from .families import FamilySpec, build
from .formats import from_graph6, to_graph6
from .graphs import (
    Graph,
    all_pairs,
    canonical_code,
    disjoint_union,
    graph_from_pair_mask,
    is_good_graph,
    structural_predicates,
)
from .oracle import oracle_summary
from .trees import (
    TREE_ORDER_LIMIT,
    _level_tuples,
    count_free_trees,
    levels_to_graph,
    tree_canonical_key,
)

GRAPH_SCAN_LIMIT = 7
WITNESS_CAP = 100
GRAPH_FILTERS = ("all", "connected", "no-isolated-max-deg-2", "non-edgeless")
OBJECTIVES = ("av1", "sigma-ratio")

ALL_CLAIMS = (
    "graph-average-lower",
    "graph-average-upper",
    "tree-average-lower",
    "tree-average-band",
    "union-size-sandwich",
    "edge-average-bracket",
    "residual-count-sandwich",
    "degree-two-ratio",
    "tree-average-cap",
    "internal-degree-cap",
    "subdivided-star-band",
)


class RouteDisagreement(RuntimeError):
    """Two supposedly equivalent computations returned different values."""


@dataclass(frozen=True)
class Violation:
    graph6: str
    claim: str
    observed: str
    expected: str
    equality_claim: bool = False

    def to_json_dict(self) -> dict:
        return {
            "graph6": self.graph6,
            "claim": self.claim,
            "observed": self.observed,
            "expected": self.expected,
            "equality_claim": self.equality_claim,
        }


@dataclass(frozen=True)
class ScanReport:
    claim_id: str
    population: str
    order: int
    objective: str
    min_value: Fraction | None
    max_value: Fraction | None
    min_witnesses: tuple[str, ...]
    max_witnesses: tuple[str, ...]
    min_count: int
    max_count: int
    violations: tuple[Violation, ...]

    @property
    def status(self) -> str:
        return "violation" if self.violations else "pass"

    @property
    def inequality_violations(self) -> tuple[Violation, ...]:
        return tuple(v for v in self.violations if not v.equality_claim)

    def to_json_dict(self) -> dict:
        witnesses = sorted(set(self.min_witnesses) | set(self.max_witnesses))
        return {
            "claim_id": self.claim_id,
            "population": self.population,
            "order": self.order,
            "objective": self.objective,
            "status": self.status,
            "extremal": {
                "min": None if self.min_value is None else format_rational(self.min_value),
                "max": None if self.max_value is None else format_rational(self.max_value),
            },
            "witnesses": witnesses,
            "min_witnesses": list(self.min_witnesses),
            "max_witnesses": list(self.max_witnesses),
            "min_count": self.min_count,
            "max_count": self.max_count,
            "violations": [v.to_json_dict() for v in self.violations],
        }


def has_inequality_violations(reports) -> bool:
    return any(r.inequality_violations for r in reports)


# -- exhaustive labelled-graph enumeration -------------------------------------

_CLASS_CACHE: dict[int, list] = {}


def labeled_graph_classes(n: int) -> list[tuple[Graph, int]]:
    """One representative per isomorphism class plus its labelled count.

    Walks every edge mask in increasing order; an unseen mask starts a new
    class and its whole permutation orbit is marked, so each class's
    representative is the minimal mask of its orbit.
    """
    if not 1 <= n <= GRAPH_SCAN_LIMIT:
        raise ValueError(f"order above exhaustive limit ({GRAPH_SCAN_LIMIT})")
    pairs = all_pairs(n)
    slot = np.zeros((n, n), dtype=np.int32)
    for s, (i, j) in enumerate(pairs):
        slot[i, j] = slot[j, i] = s
    nperms = factorial(n)
    perms = np.fromiter(permutations(range(n)), dtype=np.dtype((np.int8, n)), count=nperms)
    first = [i for i, _ in pairs]
    second = [j for _, j in pairs]
    # table[s, p] is the single-bit image of pair slot s under permutation p,
    # so an orbit is one gather and sum; int32 holds the C(7,2) = 21 bits.
    table = np.ascontiguousarray((1 << slot[perms[:, first], perms[:, second]]).T)
    seen = bytearray(1 << len(pairs))
    marks = np.frombuffer(seen, dtype=np.uint8)
    classes = []
    mask = 0
    while mask >= 0:
        images = table[[s for s in range(len(pairs)) if mask >> s & 1]].sum(axis=0)
        marks[images] = 1
        # orbit-stabiliser: the labelled count is n! over the stabiliser size
        count = nperms // int(np.count_nonzero(images == mask))
        classes.append((graph_from_pair_mask(n, mask, pairs), count))
        mask = seen.find(0, mask + 1)
    return classes


class ClassRecord:
    """Per-isomorphism-class statistics shared by the claim suites."""

    __slots__ = (
        "graph", "graph6",
        "sigma0", "s0", "sigma1", "s1", "good", "delta", "structure",
    )

    def __init__(self, graph: Graph):
        self.graph = graph
        self.graph6 = to_graph6(graph)
        eng = Engine(graph)
        self.sigma0, self.s0 = eng.scalars0()
        self.sigma1, self.s1 = eng.scalars1()
        self.good = is_good_graph(graph)
        edges = graph.edges()
        if edges:
            sizes = [(graph.adj[u] | graph.adj[v]).bit_count() for u, v in edges]
            self.delta = (min(sizes), max(sizes))
        else:
            self.delta = None
        self.structure = structural_predicates(graph)

    @property
    def edge_count(self) -> int:
        return self.graph.edge_count

    @property
    def av1(self) -> Fraction:
        return Fraction(self.s1, self.sigma1) if self.sigma1 else Fraction(0)

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.sigma1, self.sigma0)


def _graph_class_records(n: int) -> list[ClassRecord]:
    cached = _CLASS_CACHE.get(n)
    if cached is None:
        cached = [ClassRecord(g) for g, _ in labeled_graph_classes(n)]
        _CLASS_CACHE[n] = cached
    return cached


def _matches_filter(record: ClassRecord, graph_filter: str) -> bool:
    if graph_filter == "all":
        return True
    if graph_filter == "connected":
        return record.structure.is_connected
    if graph_filter == "non-edgeless":
        return record.edge_count > 0
    if graph_filter == "no-isolated-max-deg-2":
        return not record.structure.has_isolated_vertex and record.structure.max_degree <= 2
    raise ValueError(f"unknown graph filter {graph_filter!r}")


def scan_graphs(
    n: int,
    graph_filter: str = "all",
    objective: str = "av1",
    *,
    witness_cap: int | None = WITNESS_CAP,
) -> ScanReport:
    """Exact extremal values of the objective over isomorphism classes.

    With the ``av1`` objective, the edgeless class is always excluded.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    if graph_filter not in GRAPH_FILTERS:
        raise ValueError(f"unknown graph filter {graph_filter!r}")
    records = _graph_class_records(n)
    entries = []
    for rec in records:
        if not _matches_filter(rec, graph_filter):
            continue
        if objective == "av1":
            if rec.edge_count == 0:
                continue
            entries.append((rec.av1, rec.graph6))
        else:
            entries.append((rec.ratio, rec.graph6))
    return _report_from_entries(
        claim_id=f"scan-{objective}",
        population=f"graphs/{graph_filter}",
        order=n,
        objective=objective,
        entries=entries,
        witness_cap=witness_cap,
    )


def _report_from_entries(claim_id, population, order, objective, entries, witness_cap,
                         violations=()):
    if not entries:
        return ScanReport(claim_id, population, order, objective,
                          None, None, (), (), 0, 0, tuple(violations))
    min_value = min(v for v, _ in entries)
    max_value = max(v for v, _ in entries)
    min_wits = sorted(g6 for v, g6 in entries if v == min_value)
    max_wits = sorted(g6 for v, g6 in entries if v == max_value)
    return ScanReport(
        claim_id, population, order, objective,
        min_value, max_value,
        tuple(min_wits[:witness_cap]), tuple(max_wits[:witness_cap]),
        len(min_wits), len(max_wits),
        tuple(violations),
    )


# -- tree sweeps ---------------------------------------------------------------


def _tree_stat(graph: Graph, objective: str) -> Fraction:
    eng = Engine(graph)
    if objective == "av1":
        sig, tot = eng.scalars1()
        return Fraction(tot, sig) if sig else Fraction(0)
    sig1, _ = eng.scalars1()
    sig0, _ = eng.scalars0()
    return Fraction(sig1, sig0)


def _tree_value(levels, objective: str) -> tuple[int, int]:
    """The objective of one tree as an unreduced (numerator, denominator)
    pair, from the linear tree DP.  Sweeps start at order 2, where every
    tree has an edge, so both denominators are positive."""
    sig0, _, sig1, tot1 = tree_scalars(levels)
    return (tot1, sig1) if objective == "av1" else (sig1, sig0)


def _spot_check(levels) -> None:
    """Compare the tree DP, the engine and the subset oracle on one tree."""
    graph = levels_to_graph(levels)
    dp = tree_scalars(levels)
    eng = Engine(graph)
    routes = (("tree DP", dp[:2], dp[2:]), ("engine", eng.scalars0(), eng.scalars1()))
    for level in (0, 1):
        want = oracle_summary(graph, level)
        want = (want.sigma, want.total)
        for name, *by_level in routes:
            if by_level[level] != want:
                raise RouteDisagreement(
                    f"{name} {by_level[level]} vs subset oracle {want} "
                    f"at level {level} on {to_graph6(graph)}"
                )


def _spot_sample(n: int, rate: float, seed: int) -> frozenset[int]:
    """Deterministic sample of stream indices of the order-n trees."""
    if not 0 <= rate <= 1:
        raise ValueError("spot-check rate must lie in [0, 1]")
    if rate == 0:
        return frozenset()
    total = count_free_trees(n)
    want = min(total, max(1, int(rate * total)))
    rng = random.Random(seed * 1000003 + n)
    return frozenset(rng.sample(range(total), want))


def _enter(side, num, den, g6):
    """Side after a tree whose value ties or beats the side's value."""
    if side is not None and num * side[1] == side[0] * den:
        side[2].append(g6)
        return side
    return [num, den, [g6]]


def _sweep_chunk(payload):
    """Min side, max side and top-k list of one chunk of the tree stream.

    Values stay unreduced integer pairs compared by cross-multiplication;
    the graph6 code and the Fraction are built only for a tree that enters
    a side or the top list (ties included), so witness lists and tie order
    are those of an eager fold."""
    objective, top_k, chunk, spots = payload
    lo = hi = None  # [numerator, denominator, witnesses]
    top: list[tuple[Fraction, str]] = []
    floor = None  # (numerator, denominator) of the top list's last value once full
    for index, levels in chunk:
        if index in spots:
            _spot_check(levels)
        num, den = _tree_value(levels, objective)
        g6 = None
        if lo is None or num * lo[1] <= lo[0] * den:
            g6 = to_graph6(levels_to_graph(levels))
            lo = _enter(lo, num, den, g6)
        if hi is None or num * hi[1] >= hi[0] * den:
            if g6 is None:
                g6 = to_graph6(levels_to_graph(levels))
            hi = _enter(hi, num, den, g6)
        if top_k and (floor is None or num * floor[1] >= floor[0] * den):
            if g6 is None:
                g6 = to_graph6(levels_to_graph(levels))
            entry = (-Fraction(num, den), g6)
            if len(top) < top_k:
                insort(top, entry)
            elif entry < top[-1]:
                insort(top, entry)
                top.pop()
            if len(top) == top_k:
                last = -top[-1][0]
                floor = (last.numerator, last.denominator)
    return _finished(lo), _finished(hi), top


def _finished(side):
    """(value, witnesses, count) of a side, the shape ``_merge_side`` takes."""
    if side is None:
        return None
    return Fraction(side[0], side[1]), side[2], len(side[2])


def _merge_side(a, b, smaller):
    if a is None:
        return b
    if b is None:
        return a
    if a[0] == b[0]:
        return (a[0], a[1] + b[1], a[2] + b[2])
    keep_a = a[0] < b[0] if smaller else a[0] > b[0]
    return a if keep_a else b


def _tree_sweep(n, objective, workers, spot_check_rate, seed, top_k):
    if not 2 <= n <= TREE_ORDER_LIMIT:
        raise ValueError(f"unsupported order for tree scan (2..{TREE_ORDER_LIMIT})")
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    spots = _spot_sample(n, spot_check_rate, seed)
    entries = list(enumerate(_level_tuples(n)))
    if workers <= 1 or len(entries) < 64:
        parts = [_sweep_chunk((objective, top_k, entries, spots))]
    else:
        step = (len(entries) + workers * 4 - 1) // (workers * 4)
        payloads = []
        for lo in range(0, len(entries), step):
            chunk = entries[lo : lo + step]
            local = frozenset(i for i, _ in chunk) & spots
            payloads.append((objective, top_k, chunk, local))
        with Pool(workers) as pool:
            parts = pool.map(_sweep_chunk, payloads)
    mins, maxs, top = None, None, []
    for pmin, pmax, ptop in parts:
        mins = _merge_side(mins, pmin, smaller=True)
        maxs = _merge_side(maxs, pmax, smaller=False)
        for entry in ptop:
            insort(top, entry)
        if top_k:
            del top[top_k:]
    return mins, maxs, [(-negv, g6) for negv, g6 in top]


def spot_check_trees(n: int, rate: float, seed: int = 2024) -> int:
    """Check a deterministic sample of order-n trees: the tree DP, the
    engine and the subset oracle must agree at both levels.  Returns how
    many trees were checked; raises RouteDisagreement on any mismatch."""
    spots = _spot_sample(n, rate, seed)
    checked = 0
    if spots:
        for index, levels in enumerate(_level_tuples(n)):
            if index in spots:
                _spot_check(levels)
                checked += 1
    return checked


def scan_trees(
    n: int,
    objective: str = "av1",
    *,
    workers: int = 1,
    witness_cap: int | None = WITNESS_CAP,
    spot_check_rate: float = 0.0,
    seed: int = 2024,
) -> ScanReport:
    """Exact extremal values of the objective over all free trees of order n."""
    mins, maxs, _ = _tree_sweep(n, objective, workers, spot_check_rate, seed, top_k=0)
    return ScanReport(
        claim_id=f"scan-{objective}",
        population="free-trees",
        order=n,
        objective=objective,
        min_value=mins[0],
        max_value=maxs[0],
        min_witnesses=tuple(sorted(mins[1])[:witness_cap]),
        max_witnesses=tuple(sorted(maxs[1])[:witness_cap]),
        min_count=mins[2],
        max_count=maxs[2],
        violations=(),
    )


@dataclass(frozen=True)
class ConjectureRecord:
    """Evidence row: does the subdivided star attain the tree maximum?"""

    order: int
    max_value: Fraction
    max_witnesses: tuple[str, ...]
    subdivided_star_value: Fraction
    subdivided_star_is_unique_max: bool
    top: tuple[tuple[str, Fraction], ...]

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "max": format_rational(self.max_value),
            "max_witnesses": list(self.max_witnesses),
            "subdivided_star": format_rational(self.subdivided_star_value),
            "subdivided_star_is_unique_max": self.subdivided_star_is_unique_max,
            "top": [{"graph6": g6, "av1": format_rational(v)} for g6, v in self.top],
        }


def conjecture_scan(
    orders,
    *,
    workers: int = 1,
    top_k: int = 5,
    spot_check_rate: float = 0.0,
    seed: int = 2024,
) -> list[ConjectureRecord]:
    """For each order, the av1-maximal trees and whether the subdivided star
    is the unique maximizer; evidence only, nothing is asserted."""
    out = []
    for n in orders:
        if n < 4:
            raise ValueError("conjecture scan needs order >= 4")
        mins, maxs, top = _tree_sweep(n, "av1", workers, spot_check_rate, seed, top_k)
        del mins
        r_tree = build(FamilySpec("R", n))
        r_value = _tree_stat(r_tree, "av1")
        unique = maxs[2] == 1 and maxs[0] == r_value
        if unique:
            unique = tree_canonical_key(from_graph6(maxs[1][0])) == tree_canonical_key(r_tree)
        out.append(
            ConjectureRecord(
                order=n,
                max_value=maxs[0],
                max_witnesses=tuple(sorted(maxs[1])[:WITNESS_CAP]),
                subdivided_star_value=r_value,
                subdivided_star_is_unique_max=unique,
                top=tuple((g6, v) for v, g6 in top),
            )
        )
    return out


# -- structured populations -----------------------------------------------------


def path_cycle_unions(n: int):
    """(component multiset, graph) pairs covering, once per isomorphism
    class, every order-n graph with no isolated vertex and max degree <= 2:
    the disjoint unions of paths (>= 2 vertices) and cycles."""
    choices = [("path", k) for k in range(n, 1, -1)] + [("cycle", k) for k in range(n, 2, -1)]

    def rec(remaining, start):
        if remaining == 0:
            yield []
            return
        for i in range(start, len(choices)):
            kind, k = choices[i]
            if k <= remaining:
                for rest in rec(remaining - k, i):
                    yield [(kind, k)] + rest

    for combo in rec(n, 0):
        graph = build(FamilySpec(*combo[0]))
        for kind, k in combo[1:]:
            graph = disjoint_union(graph, build(FamilySpec(kind, k)))
        yield combo, graph


# -- claim suites ----------------------------------------------------------------


def _claim_graph_average_lower(orders, witness_cap):
    for n in orders:
        violations = []
        entries = []
        good_set = set()
        equal_set = set()
        for rec in _graph_class_records(n):
            if rec.edge_count == 0:
                continue
            value = rec.av1
            entries.append((value, rec.graph6))
            if rec.good:
                good_set.add(rec.graph6)
            if value == 2:
                equal_set.add(rec.graph6)
            if value < 2:
                violations.append(Violation(
                    rec.graph6, "average size of one-edge subsets is at least 2",
                    observed=format_rational(value), expected=">= 2",
                ))
        for g6 in sorted(good_set ^ equal_set):
            violations.append(Violation(
                g6, "average equals 2 exactly for graphs whose every edge covers all vertices",
                observed="mismatch between equality class and covering-edge predicate",
                expected="equal sets",
            ))
        yield _report_from_entries(
            "graph-average-lower", "graphs/non-edgeless", n, "av1",
            entries, witness_cap, violations)


def _claim_graph_average_upper(orders, witness_cap):
    for n in orders:
        if n < 6:
            continue
        report = scan_graphs(n, "non-edgeless", "av1", witness_cap=witness_cap)
        violations = []
        bound = Fraction(n, 2) + 1
        single_edge = build(FamilySpec("G_special", n))
        attained = (
            report.max_value == bound
            and report.max_count == 1
            and canonical_code(from_graph6(report.max_witnesses[0])) == canonical_code(single_edge)
        )
        if not attained:
            violations.append(Violation(
                to_graph6(single_edge),
                "the single edge plus isolated vertices uniquely maximizes the average",
                observed=f"max {format_rational(report.max_value)} on {report.max_count} classes",
                expected=f"max {format_rational(bound)} on exactly this class",
            ))
        yield ScanReport(
            "graph-average-upper", report.population, n, "av1",
            report.min_value, report.max_value,
            report.min_witnesses, report.max_witnesses,
            report.min_count, report.max_count, tuple(violations))


def _tree_records(n: int):
    records = []
    for levels in _level_tuples(n):
        _, _, sig1, tot1 = tree_scalars(levels)
        value = Fraction(tot1, sig1) if sig1 else Fraction(0)
        tree = levels_to_graph(levels)
        records.append((to_graph6(tree), value, structural_predicates(tree)))
    return records


_TREE_RECORD_CACHE: dict[int, list] = {}


def _tree_records_cached(n: int):
    if n > 18:
        return _tree_records(n)
    cached = _TREE_RECORD_CACHE.get(n)
    if cached is None:
        cached = _tree_records(n)
        _TREE_RECORD_CACHE[n] = cached
    return cached


def _claim_tree_average_lower(orders, witness_cap):
    for n in orders:
        if n < 3:
            continue
        violations = []
        entries = [(value, g6) for g6, value, _ in _tree_records_cached(n)]
        stars = [(g6, s) for g6, value, s in _tree_records_cached(n) if s.max_degree == n - 1]
        min_value = min(v for v, _ in entries)
        min_wits = [g6 for v, g6 in entries if v == min_value]
        if min_value != 2 or len(min_wits) != 1 or min_wits[0] != stars[0][0]:
            violations.append(Violation(
                stars[0][0], "the star uniquely minimizes the tree average",
                observed=f"min {format_rational(min_value)} on {len(min_wits)} trees",
                expected="min 2, only at the star",
            ))
        yield _report_from_entries(
            "tree-average-lower", "free-trees", n, "av1", entries, witness_cap, violations)


def _claim_tree_average_band(orders, witness_cap):
    for n in orders:
        if n < 9:
            continue
        entries = [(value, g6) for g6, value, _ in _tree_records_cached(n)]
        max_value = max(v for v, _ in entries)
        violations = []
        if not Fraction(n, 2) < max_value < Fraction(n + 1, 2):
            violations.append(Violation(
                "", "tree maximum lies strictly between n/2 and (n+1)/2",
                observed=format_rational(max_value),
                expected=f"in ({format_rational(Fraction(n, 2))}, {format_rational(Fraction(n + 1, 2))})",
            ))
        yield _report_from_entries(
            "tree-average-band", "free-trees", n, "av1", entries, witness_cap, violations)


def _claim_union_size_sandwich(orders, witness_cap):
    for n in orders:
        violations = []
        entries = []
        for rec in _graph_class_records(n):
            if rec.edge_count == 0:
                continue
            d1, d2 = rec.delta
            value = rec.av1
            lower = Fraction(3 * n + 2 - 3 * d2, n + 1 - d2)
            upper = Fraction(n + 4 - d1, 2)
            entries.append((value, rec.graph6))
            if not (2 <= lower <= value <= upper <= Fraction(n + 2, 2)):
                violations.append(Violation(
                    rec.graph6, "neighbourhood-union size sandwich around the average",
                    observed=f"lower {format_rational(lower)}, av {format_rational(value)}, "
                             f"upper {format_rational(upper)}",
                    expected="2 <= lower <= av <= upper <= (n+2)/2",
                ))
        yield _report_from_entries(
            "union-size-sandwich", "graphs/non-edgeless", n, "av1",
            entries, witness_cap, violations)


def _claim_edge_average_bracket(orders, witness_cap):
    for n in orders:
        violations = []
        entries = []
        for rec in _graph_class_records(n):
            if rec.edge_count == 0:
                continue
            value = rec.av1
            per_edge = [2 + term.av0 for term in Engine(rec.graph).edge_terms()]
            entries.append((value, rec.graph6))
            if not min(per_edge) <= value <= max(per_edge):
                violations.append(Violation(
                    rec.graph6, "per-edge conditional averages bracket the average",
                    observed=f"av {format_rational(value)} outside "
                             f"[{format_rational(min(per_edge))}, {format_rational(max(per_edge))}]",
                    expected="min edge average <= av <= max edge average",
                ))
        yield _report_from_entries(
            "edge-average-bracket", "graphs/non-edgeless", n, "av1",
            entries, witness_cap, violations)


def _claim_residual_count_sandwich(orders, witness_cap):
    for n in orders:
        violations = []
        entries = []
        for rec in _graph_class_records(n):
            if rec.edge_count == 0:
                continue
            graph = rec.graph
            eng = Engine(graph)
            sigma_g = rec.sigma0
            entries.append((rec.ratio, rec.graph6))
            for term in eng.edge_terms():
                u, v = term.edge
                ratio = Fraction(term.sigma0, sigma_g)
                l_uv = term.union_size
                lower = 1 / (Fraction(2) ** (l_uv - 2)
                             + Fraction(2) ** (l_uv - term.closed_size_u)
                             + Fraction(2) ** (l_uv - term.closed_size_v) + 1)
                ok = lower <= ratio
                for w in (u, v):
                    s_minus, _ = eng.scalars0(graph.universe & ~(1 << w))
                    ok = ok and ratio <= 1 - Fraction(s_minus, sigma_g)
                if not ok:
                    violations.append(Violation(
                        rec.graph6, "per-edge residual independent-set count sandwich",
                        observed=f"edge ({u},{v}) ratio {format_rational(ratio)}",
                        expected="within the closed-neighbourhood bounds",
                    ))
        yield _report_from_entries(
            "residual-count-sandwich", "graphs/non-edgeless", n, "sigma-ratio",
            entries, witness_cap, violations)


def _claim_degree_two_ratio(orders, witness_cap):
    for n in orders:
        violations = []
        entries = []
        for combo, graph in path_cycle_unions(n):
            eng = Engine(graph)
            sig1, _ = eng.scalars1()
            sig0, _ = eng.scalars0()
            value = Fraction(sig1, sig0)
            g6 = to_graph6(graph)
            entries.append((value, g6))
            parts = Fraction(0)
            for kind, k in combo:
                part_eng = Engine(build(FamilySpec(kind, k)))
                p1, _ = part_eng.scalars1()
                p0, _ = part_eng.scalars0()
                parts += Fraction(p1, p0)
            if parts != value:
                violations.append(Violation(
                    g6, "count ratio adds over disjoint-union components",
                    observed=format_rational(value),
                    expected=format_rational(parts),
                ))
            if value < Fraction(1, 3):
                violations.append(Violation(
                    g6, "count ratio is at least one third at max degree 2",
                    observed=format_rational(value), expected=">= 1/3",
                ))
            if value == Fraction(1, 3) and combo != [("path", 2)]:
                violations.append(Violation(
                    g6, "ratio one third is attained only by the single edge",
                    observed="unexpected equality case",
                    expected="equality only at the two-vertex path",
                ))
        yield _report_from_entries(
            "degree-two-ratio", "path-cycle-unions", n, "sigma-ratio",
            entries, witness_cap, violations)


def _claim_tree_average_cap(orders, witness_cap):
    claimed_equality = {2, 3, 4}  # stated for the paths of these orders
    for n in orders:
        violations = []
        entries = []
        bound = 2 + Fraction(max(n - 3, 0), 2)
        for g6, value, structure in _tree_records_cached(n):
            entries.append((value, g6))
            if value > bound:
                violations.append(Violation(
                    g6, "tree average capped by 2 + max(n-3,0)/2",
                    observed=format_rational(value),
                    expected=f"<= {format_rational(bound)}",
                ))
            if n in claimed_equality and structure.max_degree <= 2 and value != bound:
                violations.append(Violation(
                    g6, "claimed equality of the tree cap at the short paths",
                    observed=format_rational(value),
                    expected=format_rational(bound),
                    equality_claim=True,
                ))
        yield _report_from_entries(
            "tree-average-cap", "free-trees", n, "av1", entries, witness_cap, violations)


def _claim_internal_degree_cap(orders, witness_cap):
    for n in orders:
        violations = []
        entries = []
        for g6, value, structure in _tree_records_cached(n):
            internal = structure.min_internal_degree
            if internal is None:
                continue
            entries.append((value, g6))
            bound = 2 + Fraction(n - internal - 1, 2)
            if value > bound:
                violations.append(Violation(
                    g6, "tree average capped via the minimum internal degree",
                    observed=format_rational(value),
                    expected=f"<= {format_rational(bound)}",
                ))
        yield _report_from_entries(
            "internal-degree-cap", "free-trees", n, "av1", entries, witness_cap, violations)


def _claim_subdivided_star_band(orders, witness_cap):
    strict_below_half = {7, 8}
    for n in orders:
        if n < 4:
            continue
        tree = build(FamilySpec("R", n))
        value = _tree_stat(tree, "av1")
        g6 = to_graph6(tree)
        violations = []
        if not value < Fraction(n + 1, 2):
            violations.append(Violation(
                g6, "subdivided-star average below (n+1)/2",
                observed=format_rational(value),
                expected=f"< {format_rational(Fraction(n + 1, 2))}",
            ))
        half = Fraction(n, 2)
        if n == 6:
            if value != half:
                violations.append(Violation(
                    g6, "subdivided-star average versus n/2 at order 6",
                    observed=format_rational(value), expected=format_rational(half),
                ))
            else:
                violations.append(Violation(
                    g6, "strictness above n/2 fails at order 6: the average equals n/2 exactly",
                    observed=format_rational(value),
                    expected="> 3 claimed, observed exact equality",
                    equality_claim=True,
                ))
        elif n in strict_below_half:
            if not value < half:
                violations.append(Violation(
                    g6, "subdivided-star average below n/2 at the documented exceptions",
                    observed=format_rational(value), expected=f"< {format_rational(half)}",
                ))
        elif not value > half:
            violations.append(Violation(
                g6, "subdivided-star average above n/2",
                observed=format_rational(value), expected=f"> {format_rational(half)}",
            ))
        yield _report_from_entries(
            "subdivided-star-band", "subdivided-star-family", n, "av1",
            [(value, g6)], witness_cap, violations)


_CLAIM_RUNNERS = {
    "graph-average-lower": ("graph", _claim_graph_average_lower),
    "graph-average-upper": ("graph", _claim_graph_average_upper),
    "tree-average-lower": ("tree", _claim_tree_average_lower),
    "tree-average-band": ("tree", _claim_tree_average_band),
    "union-size-sandwich": ("graph", _claim_union_size_sandwich),
    "edge-average-bracket": ("graph", _claim_edge_average_bracket),
    "residual-count-sandwich": ("graph", _claim_residual_count_sandwich),
    "degree-two-ratio": ("ratio", _claim_degree_two_ratio),
    "tree-average-cap": ("tree", _claim_tree_average_cap),
    "internal-degree-cap": ("tree", _claim_internal_degree_cap),
    "subdivided-star-band": ("family", _claim_subdivided_star_band),
}


def verify_claims(
    *,
    claims="all",
    max_tree_order: int = 16,
    max_graph_order: int = 7,
    max_ratio_order: int = 10,
    max_family_order: int = 40,
    witness_cap: int | None = WITNESS_CAP,
) -> list[ScanReport]:
    """Run the claim suites exhaustively and return one report per claim
    and order.  Equality discrepancies are recorded, not raised."""
    if claims == "all":
        selected = list(ALL_CLAIMS)
    else:
        selected = list(claims)
        unknown = [c for c in selected if c not in _CLAIM_RUNNERS]
        if unknown:
            raise ValueError(f"unknown claims: {', '.join(unknown)}")
    if max_graph_order > GRAPH_SCAN_LIMIT:
        raise ValueError(f"order above exhaustive limit ({GRAPH_SCAN_LIMIT})")
    if max_tree_order > TREE_ORDER_LIMIT:
        raise ValueError(f"order outside supported range (1..{TREE_ORDER_LIMIT})")
    ranges = {
        "graph": range(2, max_graph_order + 1),
        "tree": range(2, max_tree_order + 1),
        "ratio": range(2, max_ratio_order + 1),
        "family": range(4, max_family_order + 1),
    }
    reports = []
    for claim_id in selected:
        kind, runner = _CLAIM_RUNNERS[claim_id]
        reports.extend(runner(ranges[kind], witness_cap))
    return reports
