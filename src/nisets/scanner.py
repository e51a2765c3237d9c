"""Exhaustive verification scans over all small graphs and all free trees.

Graph populations are enumerated as full labelled-graph orbits (every
2^C(n,2) edge set, deduplicated into isomorphism classes by expanding the
permutation orbit of each previously unseen mask, summed from tables of the
images of three pair slots' bit patterns), so the exhaustiveness of every
claim check is auditable.  Tree populations come from the free-tree
stream as segments of joined rooted trees, cut into runs and scored a
slice of trees at a time.  All claim checks are exact rational comparisons.

Failed equality statements are recorded as violations and never dropped;
a failed inequality would indicate an engine bug and makes the surrounding
tooling exit nonzero.
"""

from __future__ import annotations

from collections import deque
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import permutations
from math import factorial
from multiprocessing import Pool

import numpy as np

from .engine import Engine, _join_child, format_rational, join_scalars, nis_summary
from .families import FamilySpec, build
from .formats import GRAPH6_ORDER_LIMIT, to_graph6
from .graphs import (
    Graph,
    all_pairs,
    disjoint_union,
    graph_from_pair_mask,
    structural_predicates,
)
from .oracle import oracle_profiles_of
from .trees import (
    TREE_ORDER_LIMIT,
    RootedTables,
    count_free_trees,
    levels_to_graph,
    tree_segments,
)

# the graph walk's subset tables hold sigma0 <= 2^n and S0 <= n * 2^(n-1)
# of every induced subgraph in int32, so n * 2^(n-1) < 2^31 needs n <= 27
GRAPH_SCAN_LIMIT = 7
# the ratio suite scores every union of paths and cycles of each order: 15,341 at order 30
RATIO_ORDER_LIMIT = 30
WITNESS_CAP = 100
SPOT_CHECK_SEED = 2024
# trees per slice of a sweep's joins and folds
_BLOCK = 1024
# blocks per task of a tree sweep; shorter runs balance the load more
# finely, longer ones send fewer tasks
_RUN_BLOCKS = 16
# the most pool processes a sweep opens
WORKER_LIMIT = 64
GRAPH_FILTERS = ("all", "connected", "no-isolated-max-deg-2", "non-edgeless")
OBJECTIVES = ("av1", "sigma-ratio")

# each claim's suite, whose one run per order checks it; the first order at
# which it checks anything (internal-degree-cap: the order-2 tree has no
# internal vertex), a suite starting at the least first order of its claims;
# and the population and objective its reports name
_CLAIMS = {
    "graph-average-lower": ("graph", 2, "graphs/non-edgeless", "av1"),
    "graph-average-upper": ("graph", 6, "graphs/non-edgeless", "av1"),
    "tree-average-lower": ("tree", 3, "free-trees", "av1"),
    "tree-average-band": ("tree", 9, "free-trees", "av1"),
    "union-size-sandwich": ("graph", 2, "graphs/non-edgeless", "av1"),
    "edge-average-bracket": ("graph", 2, "graphs/non-edgeless", "av1"),
    "residual-count-sandwich": ("graph", 2, "graphs/non-edgeless", "sigma-ratio"),
    "degree-two-ratio": ("ratio", 2, "path-cycle-unions", "sigma-ratio"),
    "tree-average-cap": ("tree", 2, "free-trees", "av1"),
    "internal-degree-cap": ("tree", 3, "free-trees", "av1"),
    "subdivided-star-band": ("family", 4, "subdivided-star-family", "av1"),
}
ALL_CLAIMS = tuple(_CLAIMS)


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
        return asdict(self)


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


class _Side:
    """The min (``smaller``) or max side of a stream of values num/den with
    positive denominators: its best values, best first, each an unreduced
    [num, den, codes] list compared by cross-multiplication, whose codes
    key the entries that reach it, in stream order: graph6, or a tree
    sweep's row keys (``_Tables``).  The side keeps the fewest values that
    hold ``keep`` entries, so every tie of the last one stays.  ``value`` and
    ``codes`` are the extreme's; an empty side has value None and no codes."""

    __slots__ = ("smaller", "keep", "values")

    def __init__(self, smaller: bool, keep: int = 1):
        self.smaller, self.keep = smaller, keep
        self.values: list[list] = []

    @property
    def value(self) -> Fraction | None:
        return Fraction(*self.values[0][:2]) if self.values else None

    @property
    def codes(self) -> list[str]:
        return self.values[0][2] if self.values else []

    def _keeps(self, lhs, rhs):
        """Whether lhs ties or beats rhs on this side, elementwise on arrays."""
        return lhs <= rhs if self.smaller else lhs >= rhs

    def _full(self) -> bool:
        return sum(len(codes) for *_, codes in self.values) >= self.keep

    def offer(self, num, den, codes) -> None:
        """Take entries of value num/den with these codes: they join a value
        they tie and enter before the values they beat, and the values
        past the first ``keep`` entries are dropped."""
        values, at = self.values, 0
        while at < len(values) and not self._keeps(num * values[at][1], values[at][0] * den):
            at += 1
        if at < len(values) and num * values[at][1] == values[at][0] * den:
            values[at][2].extend(codes)
            return
        values.insert(at, [num, den, list(codes)])
        held = 0
        for k, (*_, kept) in enumerate(values):
            held += len(kept)
            if held >= self.keep:
                del values[k + 1:]
                return

    def fold(self, num, den, keys) -> None:
        """Take one block of int64 values num/den, where ``keys[i]`` is the
        key of entry i.

        Each round drops the entries that the last kept value beats, once
        the side is full; the rest meet in an exact tournament of
        cross-multiplications, and the entries tied with its winner are
        offered together.  So each value's keys arrive in stream order, and
        the side does not depend on where blocks start."""
        contenders = np.arange(len(num))
        while contenders.size:
            if self._full():
                last_num, last_den, _ = self.values[-1]
                contenders = contenders[self._keeps(num[contenders] * last_den,
                                                    last_num * den[contenders])]
                if not contenders.size:
                    return
            alive = contenders
            while alive.size > 1:
                half = alive.size // 2
                a, b = alive[:half], alive[half:2 * half]
                winners = np.where(self._keeps(num[a] * den[b], num[b] * den[a]), a, b)
                alive = np.concatenate((winners, alive[2 * half:]))
            best_num, best_den = int(num[alive[0]]), int(den[alive[0]])
            tied = num[contenders] * best_den == best_num * den[contenders]
            self.offer(best_num, best_den, keys[contenders[tied]].tolist())
            contenders = contenders[~tied]

    def merge(self, other: _Side) -> None:
        """Join the side of a later stretch of the same stream."""
        for num, den, codes in other.values:
            self.offer(num, den, codes)

    def ranked(self) -> list[tuple[str, Fraction]]:
        """The first ``keep`` (graph6, value) pairs, best first, ties in
        graph6 order."""
        return [(g6, Fraction(num, den)) for num, den, codes in self.values
                for g6 in sorted(codes)][:self.keep]


def _extremes(entries=()):
    """Min and max sides of (numerator, denominator, graph6) entries with
    positive denominators; both are empty when there are no entries."""
    lo, hi = _Side(smaller=True), _Side(smaller=False)
    for num, den, g6 in entries:
        lo.offer(num, den, [g6])
        hi.offer(num, den, [g6])
    return lo, hi


def _report(claim_id, population, order, objective, sides, witness_cap, violations=()):
    """ScanReport of a population's min and max sides."""
    low, high = sides
    return ScanReport(
        claim_id, population, order, objective,
        low.value, high.value,
        tuple(sorted(low.codes)[:witness_cap]), tuple(sorted(high.codes)[:witness_cap]),
        len(low.codes), len(high.codes),
        tuple(violations),
    )


# -- exhaustive labelled-graph enumeration -------------------------------------


def _orbit_tables(n: int) -> list[np.ndarray]:
    """Permutation images of the order-n edge masks, three pair slots at a time.

    ``tables[k][b, p]`` is the image under the p-th permutation of the bit
    pattern b on pair slots 3k..3k+2, built by doubling from the images of
    the single slots, so a mask's images are one row per table added up.
    Every image is below 2^C(n,2), and int32 holds them while
    C(GRAPH_SCAN_LIMIT, 2) < 31.
    """
    pairs = all_pairs(n)
    slot = np.zeros((n, n), dtype=np.int32)
    for s, (i, j) in enumerate(pairs):
        slot[i, j] = slot[j, i] = s
    perms = np.fromiter(permutations(range(n)), dtype=np.dtype((np.int8, n)), count=factorial(n))
    # single[s, p] is the slot that pair slot s moves to under permutation p
    single = slot[perms[:, [i for i, _ in pairs]], perms[:, [j for _, j in pairs]]].T
    tables = []
    for start in range(0, len(pairs), 3):
        rows = np.zeros((8, len(perms)), dtype=np.int32)
        for b, s in enumerate(range(start, min(start + 3, len(pairs)))):
            rows[1 << b:2 << b] = rows[:1 << b] + (1 << single[s])
        tables.append(rows)
    return tables


def labeled_graph_classes(n: int) -> list[tuple[Graph, int]]:
    """One representative per isomorphism class plus its labelled count.

    Walks every edge mask in increasing order; an unseen mask starts a new
    class and its whole permutation orbit, summed from ``_orbit_tables``,
    is marked, so each class's representative is the minimal mask of its
    orbit.  The labelled counts must sum to 2^C(n,2), or RouteDisagreement
    is raised.
    """
    if not 1 <= n <= GRAPH_SCAN_LIMIT:
        raise ValueError(f"order {n} outside 1..{GRAPH_SCAN_LIMIT}; graphs are enumerated "
                         f"up to the exhaustive limit ({GRAPH_SCAN_LIMIT})")
    pairs = all_pairs(n)
    nperms = factorial(n)
    tables = _orbit_tables(n)
    seen = bytearray(1 << len(pairs))
    marks = np.frombuffer(seen, dtype=np.uint8)
    classes = []
    mask = 0
    while mask >= 0:
        images = np.zeros(nperms, dtype=np.int32)
        for k, rows in enumerate(tables):
            images += rows[mask >> 3 * k & 7]
        # numpy scatters intp indices fastest, so widen once before marking
        marks[images.astype(np.intp)] = 1
        # orbit-stabiliser: the labelled count is n! over the stabiliser size
        count = nperms // int(np.count_nonzero(images == mask))
        classes.append((graph_from_pair_mask(n, mask, pairs), count))
        mask = seen.find(0, mask + 1)
    total = sum(count for _, count in classes)
    if total != 1 << len(pairs):
        raise RouteDisagreement(f"the order-{n} classes count {total} labelled graphs, "
                                f"but there are 2^{len(pairs)}")
    return classes


def _subset_scalars(graphs, n: int):
    """(sigma0, S0) of the subgraph each vertex subset induces, for every
    order-n graph: two (graphs, 2^n) int32 arrays indexed by vertex mask.

    Built by doubling over the vertices: a subset whose top vertex is v is
    a lower subset L with v added, and its independent sets are those of L
    plus v joined to each of L outside N[v], which is L & ~N(v)."""
    adj = np.array([graph.adj for graph in graphs], dtype=np.int32).reshape(len(graphs), n)
    count = np.ones((len(graphs), 1 << n), dtype=np.int32)
    size = np.zeros((len(graphs), 1 << n), dtype=np.int32)
    for v in range(n):
        low = 1 << v
        rest = np.arange(low, dtype=np.int32) & ~adj[:, v:v + 1]
        with_v = np.take_along_axis(count[:, :low], rest, axis=1)
        count[:, low:2 * low] = count[:, :low] + with_v
        size[:, low:2 * low] = (size[:, :low] + np.take_along_axis(size[:, :low], rest, axis=1)
                                + with_v)
    return count, size


def _class_records(n: int, graph_filter: str):
    """(graph, graph6, counts, totals, sigma1, S1) of each order-n class the
    filter keeps, in ``labeled_graph_classes`` order: the one walk of the
    graph population, read by ``scan_graphs`` and the graph claims alike.

    ``counts[mask]`` and ``totals[mask]`` are the sigma0 and S0 of the
    subgraph the vertex mask induces, one row of ``_subset_scalars`` built
    once over the kept classes.  An edge uv's one-edge sets are uv joined
    to each independent set of V - (N(u) | N(v)), so sigma1 sums that
    residual's sigma0 over the edges, and S1 its 2 sigma0 + S0."""
    kept = []
    for graph, _ in labeled_graph_classes(n):
        if graph_filter == "non-edgeless" and not graph.edge_count:
            continue
        if graph_filter == "connected" and not structural_predicates(graph).is_connected:
            continue
        if graph_filter == "no-isolated-max-deg-2":
            s = structural_predicates(graph)
            if s.has_isolated_vertex or s.max_degree > 2:
                continue
        kept.append(graph)
    count, size = _subset_scalars(kept, n)
    for graph, count_row, size_row in zip(kept, count, size):
        counts, totals = count_row.tolist(), size_row.tolist()
        adj, universe = graph.adj, graph.universe
        rests = [universe & ~(adj[u] | adj[v]) for u, v in graph.edges()]
        sigma1 = sum(counts[m] for m in rests)
        s1 = 2 * sigma1 + sum(totals[m] for m in rests)
        yield graph, to_graph6(graph), counts, totals, sigma1, s1


def scan_graphs(
    n: int,
    graph_filter: str = "all",
    objective: str = "av1",
    *,
    witness_cap: int | None = WITNESS_CAP,
) -> ScanReport:
    """Exact extremal values of the objective over isomorphism classes.

    With the ``av1`` objective only the classes with sigma1 > 0, every graph
    but the edgeless one, count; ``sigma-ratio`` reads each record's
    whole-graph sigma0 from its table row.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    if graph_filter not in GRAPH_FILTERS:
        raise ValueError(f"unknown graph filter {graph_filter!r}")
    records = _class_records(n, graph_filter)
    if objective == "av1":
        entries = [(s1, sigma1, g6) for _, g6, _, _, sigma1, s1 in records if sigma1]
    else:
        entries = [(sigma1, counts[graph.universe], g6)
                   for graph, g6, counts, _, sigma1, _ in records]
    return _report(f"scan-{objective}", f"graphs/{graph_filter}", n, objective,
                   _extremes(entries), witness_cap)


# -- tree sweeps ---------------------------------------------------------------

def _spot_check(levels, rows) -> None:
    """Compare the joined DP rows (sigma0, S0, sigma1, S1) of a block's
    sampled trees, given by their level sequences, with the engine and the
    subset oracle, whose one kernel call takes every tree's table; the
    first mismatch in stream order is raised."""
    graphs = [levels_to_graph(tree) for tree in levels]
    for graph, row, profiles in zip(graphs, rows, oracle_profiles_of(graphs)):
        eng = Engine(graph)
        routes = (("tree DP", row[:2], row[2:]), ("engine", eng.scalars0(), eng.scalars1()))
        # the padding is level 1 of a one-vertex tree
        wants = [(p.sigma, p.total) for p in profiles[:2]] + [(0, 0)]
        for level in (0, 1):
            for name, *by_level in routes:
                if by_level[level] != wants[level]:
                    raise RouteDisagreement(
                        f"{name} {by_level[level]} vs subset oracle {wants[level]} "
                        f"at level {level} on {to_graph6(graph)}"
                    )


@dataclass(frozen=True)
class _SpotSample:
    """The stream indices i of the order-n trees with
    (i + seed)·want mod total < want.  As i runs over the total indices,
    (i + seed)·want mod total meets each multiple of gcd(want, total)
    gcd(want, total) times, so exactly ``want`` indices pass, spread evenly
    over the stream; the rule is three integers, whatever the order."""

    total: int
    want: int
    seed: int

    def picks(self, indices: np.ndarray) -> np.ndarray:
        """Positions of the sampled indices in an int array of stream
        indices.  Reducing the seed first keeps every product below
        2·total·want < 2^63."""
        shifted = indices + self.seed % self.total
        return np.flatnonzero(shifted * self.want % self.total < self.want)


def _spot_sample(n: int, rate: float) -> _SpotSample:
    """Deterministic sample of stream indices of the order-n trees."""
    if not 0 <= rate <= 1:
        raise ValueError("spot-check rate must lie in [0, 1]")
    if rate == 0:
        return _SpotSample(1, 0, SPOT_CHECK_SEED)
    total = count_free_trees(n)
    return _SpotSample(total, min(total, max(1, int(rate * total))), SPOT_CHECK_SEED)


class _Sweep:
    """What a sweep found over consecutive trees of one order's stream: the
    min side, the max side keeping the top_k best entries (at least one),
    the tree count, how many trees were spot-checked, and, when the caps
    are checked, the trees over the tree cap or off its claimed equality
    and those over the internal-degree cap, as Violation lists in stream
    order.  ``merge`` joins the sweep of the next stretch of the stream."""

    def __init__(self, top_k: int):
        self.lo, self.hi = _Side(smaller=True), _Side(smaller=False, keep=max(top_k, 1))
        self.cap_violations, self.internal_violations = [], []
        self.count = self.checked = 0

    def merge(self, part: _Sweep) -> None:
        self.lo.merge(part.lo)
        self.hi.merge(part.hi)
        self.cap_violations += part.cap_violations
        self.internal_violations += part.internal_violations
        self.count += part.count
        self.checked += part.checked


def _join_degrees(rest, child):
    """The degree data of the rooted trees made of a rooted tree R' with one
    more child subtree C at its root, from R''s and C's, as three int8
    arrays: the largest degree, the least internal (> 1) degree of the
    vertices other than the root (``TREE_ORDER_LIMIT``, which no degree
    reaches, when none) and the root's degree, with every root counted
    with one more edge, to the tree it is joined to.  So C's vertices keep
    their degrees, C's root now among the others, and R''s root gains C."""
    largest, inner, root = rest
    child_largest, child_inner, child_root = child
    child_inner = np.where(child_root > 1, np.minimum(child_inner, child_root), child_inner)
    return (np.maximum(np.maximum(largest, child_largest), root + 1),
            np.minimum(inner, child_inner), root + 1)


class _Tables:
    """What a sweep scores its trees from, built once per call for its top
    order: the ``RootedTables``, the eight root states (``_join_child``) of
    every row, and, for the caps, every row's degree data
    (``_join_degrees``).  Each is one array over the rows of all sizes,
    those of size k from ``offsets[k]`` on.  The states are held and
    joined exactly as int32 (the bound at ``TREE_ORDER_LIMIT``), and
    ``scalars`` widens the rows it gathers to int64 before they are
    multiplied.

    Sizes are built in ascending order, each along the segments it was
    joined from (``RootedTables.joins``), which are consumed and dropped:
    a row X of size k is its first child subtree C joined one level down
    to the root of its remainder R', so X's states and degrees are R''s
    and C's joined, read through ``rows`` a run (``_runs``) at a time.  A
    sweep names each tree by its key (``keys``), rest·R + first for its
    two rows with R = ``offsets[-1]``, below R^2 < 2^41 at
    ``TREE_ORDER_LIMIT``."""

    def __init__(self, top: int, caps: bool):
        self.rooted = RootedTables(top)
        self.offsets = np.cumsum([0, 0] + [len(self.rooted.tables[k]) for k in range(1, top)])
        self.states = np.empty((8, self.offsets[-1]), dtype=np.int32)
        self.states[:, 0] = (1, 0, 1, 1, 0, 0, 0, 0)  # one vertex: a = (1, 0), b = (1, 1)
        self.degrees = None
        if caps:
            self.degrees = np.empty((3, self.offsets[-1]), dtype=np.int8)
            self.degrees[:, 0] = (1, TREE_ORDER_LIMIT, 1)  # one vertex, nothing below it
        for k in range(2, top):
            for first, segments in _runs(self.rooted.joins.pop(k)):
                rest, child = self.rows(k, segments)
                at = slice(self.offsets[k] + first, self.offsets[k] + first + len(rest))
                self.states[:, at] = _join_child(self.states[:, rest], self.states[:, child])
                if caps:
                    self.degrees[:, at] = _join_degrees(self.degrees[:, rest],
                                                        self.degrees[:, child])

    def rows(self, n: int, segments):
        """The rest's row and the first subtree's row of each tree of
        order-n segments (rows of ``tree_segments``, or
        ``RootedTables.joins[n]``), in order."""
        s, t, a, b = np.asarray(segments).T
        counts = b - a
        shift = np.repeat(self.offsets[n - s] + a + counts - np.cumsum(counts), counts)
        return np.arange(counts.sum()) + shift, np.repeat(self.offsets[s] + t, counts)

    def keys(self, rest, first):
        """The keys of the trees of these rows, which ``levels`` spells."""
        return rest * self.offsets[-1] + first

    def levels(self, keys) -> list[list[int]]:
        """The level sequence of the tree each of a sequence of keys names:
        its rest's root, its first subtree one level down, then the rest's
        other vertices.  The keys' rows and sizes are found in one pass."""
        rows = np.stack(np.divmod(np.asarray(keys, dtype=np.int64), self.offsets[-1]))
        sizes = np.searchsorted(self.offsets, rows, "right") - 1
        rests, firsts = (rows - self.offsets[sizes]).tolist()
        tables = self.rooted.tables
        return [[0, *(tables[t][j] + 1).tolist(), *tables[s][i][1:].tolist()]
                for s, t, i, j in zip(*sizes.tolist(), rests, firsts)]

    def scalars(self, rest, first):
        """(sigma0, S0, sigma1, S1) of the trees of these rows."""
        return join_scalars(self.states[:, rest].astype(np.int64),
                            self.states[:, first].astype(np.int64))

    def tree_degrees(self, rest, first):
        """Max degree and minimum internal degree (degree > 1; 0 when no
        vertex is internal) of the trees of these rows: R's root and T's
        gain the edge that joins them, so a tree's degrees are its two
        rows' together."""
        maxima, inner, roots = self.degrees[:, [rest, first]]
        internal = np.where(roots > 1, np.minimum(inner, roots), inner).min(axis=0)
        internal[internal == TREE_ORDER_LIMIT] = 0
        return maxima.max(axis=0), internal


def _runs(segments):
    """(first index, segments) of each run of ``_RUN_BLOCKS``·``_BLOCK``
    consecutive trees of a segment array (the last may be shorter), a
    segment that crosses the end of a run split in two."""
    size = _RUN_BLOCKS * _BLOCK
    ends = np.cumsum(segments[:, 3] - segments[:, 2])  # the index after each segment
    for first in range(0, ends[-1], size):
        last = min(first + size, ends[-1])
        lo, hi = np.searchsorted(ends, [first, last - 1], "right")  # those of its ends
        run = segments[lo:hi + 1].copy()
        run[0, 2] = run[0, 3] - (ends[lo] - first)
        run[-1, 3] -= ends[hi] - last
        yield first, run


def _score_run(tables, payload):
    """The _Sweep of a run of segments of the order-n tree stream
    (``_runs``), starting at stream index ``first``, spot-checked at the
    stream indices ``spots`` samples against Engine and the subset oracle,
    with the rows the folds use.  With ``caps`` set (av1 only) both tree
    caps are compared per slice in integers, with degrees from the tables.

    The run's rows are expanded once, then joined and scored ``_BLOCK``
    trees at a time.  Values stay unreduced int64 pairs compared by
    cross-multiplication, and the sides hold keys (``_Tables``), so witness
    lists and tie order are those of an eager fold; a tree is spelled only
    for a spot check, and encoded only when it breaks a cap."""
    n, objective, top_k, spots, caps, first, segments = payload
    cap = 4 + max(n - 3, 0)  # twice the tree cap 2 + max(n-3, 0)/2
    cap_text = format_rational(cap, 2)
    claimed_equality = n in (2, 3, 4)  # stated for the paths of these orders
    found = _Sweep(top_k)
    rests, subtrees = tables.rows(n, segments)
    for lo in range(0, len(rests), _BLOCK):
        rest, subtree = rests[lo:lo + _BLOCK], subtrees[lo:lo + _BLOCK]
        key = tables.keys(rest, subtree)
        values = tables.scalars(rest, subtree)
        if spots.want:
            picks = spots.picks(np.arange(first + lo, first + lo + len(rest)))
            _spot_check(tables.levels(key[picks]), list(zip(*(v[picks].tolist() for v in values))))
            found.checked += len(picks)
        # sweeps start at order 2, where every tree has an edge, so both
        # denominators are positive
        sig0, _, sig1, tot1 = values
        num, den = (tot1, sig1) if objective == "av1" else (sig1, sig0)
        found.lo.fold(num, den, key)
        found.hi.fold(num, den, key)
        found.count += len(num)
        if not caps:
            continue
        max_degree, internal = tables.tree_degrees(rest, subtree)
        over_cap = 2 * num > cap * den
        off_equality = claimed_equality & (max_degree <= 2) & (2 * num != cap * den)
        over_internal = (internal > 0) & (2 * num > (n - internal + 3) * den)
        flagged = np.flatnonzero(over_cap | off_equality | over_internal)
        for i, levels in zip(flagged, tables.levels(key[flagged])):
            g6 = to_graph6(levels_to_graph(levels))
            observed = format_rational(int(num[i]), int(den[i]))
            if over_cap[i]:
                found.cap_violations.append(Violation(
                    g6, "tree average capped by 2 + max(n-3,0)/2",
                    observed=observed, expected=f"<= {cap_text}",
                ))
            if off_equality[i]:
                found.cap_violations.append(Violation(
                    g6, "claimed equality of the tree cap at the short paths",
                    observed=observed, expected=cap_text, equality_claim=True,
                ))
            if over_internal[i]:
                found.internal_violations.append(Violation(
                    g6, "tree average capped via the minimum internal degree",
                    observed=observed,
                    expected=f"<= {format_rational(n - int(internal[i]) + 3, 2)}",
                ))
    return found


_pool_tables = None  # a pool worker's _Tables, from _hold_tables


def _hold_tables(tables) -> None:
    """Pool initializer: keep the sweep's tables in this worker."""
    global _pool_tables
    _pool_tables = tables


def _pooled_run(payload):
    return _score_run(_pool_tables, payload)


def _in_order(pool, tables, tasks, limit):
    """(tag, ``_score_run`` result) of each (tag, payload) task, in task
    order: in this process without a pool, else on the pool, whose workers
    hold ``tables``, with at most ``limit`` tasks submitted and not yet
    read, so the tasks are taken only as results are read."""
    if pool is None:
        yield from ((tag, _score_run(tables, payload)) for tag, payload in tasks)
        return
    pending = deque()
    for tag, payload in tasks:
        pending.append((tag, pool.apply_async(_pooled_run, (payload,))))
        if len(pending) == limit:
            tag, result = pending.popleft()
            yield tag, result.get()
    yield from ((tag, result.get()) for tag, result in pending)


def _tree_sweeps(orders, objective, workers, top_k, spot_check_rate, caps=False):
    """The _Sweep of the trees of each order, in a list, its max side
    keeping the top_k best entries.  The spot-check rate and the worker
    count are checked before the call's one process pool opens (none at
    one worker).

    The tables (``_Tables``) are built once, for the largest order, before
    the pool opens; its workers receive them through the pool's
    initializer.  This process walks each order's stream once as segments,
    no rows copied, and cuts it into runs of ``_RUN_BLOCKS`` blocks
    (``_runs``), one task each, at every worker count.  One
    worker scores each run here as it is cut; more take the runs from a
    pool fed at most 2·workers runs ahead of the results read.  So memory
    does not grow with the tree count, and a free worker takes the next
    run, whatever its order.  A task knows its first stream index, so it
    spot-checks the order's sampled trees in it as it goes; the tasks, and
    so the trees checked, are the same at every worker count.  Results are
    merged in task order, which is stream order.  Every order's tree count
    must equal ``count_free_trees``, or RouteDisagreement is raised.  Only
    then is each key the merged sides keep encoded, once."""
    samples = [_spot_sample(n, spot_check_rate) for n in orders]
    if workers < 1:
        raise ValueError("worker count must be at least 1")
    if workers > WORKER_LIMIT:
        raise ValueError(f"worker count {workers} above the limit ({WORKER_LIMIT})")
    tables = _Tables(max(orders), caps)
    tasks = ((k, (n, objective, top_k, spots, caps, first, segments))
             for k, (n, spots) in enumerate(zip(orders, samples))
             for first, segments in _runs(tree_segments(tables.rooted, n)))
    sweeps = [_Sweep(top_k) for _ in orders]
    with (Pool(workers, initializer=_hold_tables, initargs=(tables,)) if workers > 1
          else nullcontext()) as pool:
        for k, part in _in_order(pool, tables, tasks, 2 * workers):
            sweeps[k].merge(part)
    for n, sweep in zip(orders, sweeps):
        if sweep.count != count_free_trees(n):
            raise RouteDisagreement(f"the order-{n} stream held {sweep.count} trees, but the "
                                    f"counting recurrence gives {count_free_trees(n)}")
        for side in (sweep.lo, sweep.hi):
            for value in side.values:
                value[2] = [to_graph6(levels_to_graph(levels)) for levels in tables.levels(value[2])]
    return sweeps


def spot_check_trees(n: int, rate: float) -> int:
    """Check a deterministic sample of order-n trees: the joined tree DP,
    the engine and the subset oracle must agree at both levels.  Every tree
    of the order is scored, as on a sweep.  Returns how many trees were
    checked; raises RouteDisagreement on any mismatch."""
    [sweep] = _tree_sweeps([n], "av1", 1, 0, rate)
    return sweep.checked


def scan_trees(
    n: int,
    objective: str = "av1",
    *,
    workers: int = 1,
    witness_cap: int | None = WITNESS_CAP,
    spot_check_rate: float = 0.0,
) -> ScanReport:
    """Exact extremal values of the objective over all free trees of order n."""
    if not 2 <= n <= TREE_ORDER_LIMIT:
        raise ValueError(f"unsupported order for tree scan (2..{TREE_ORDER_LIMIT})")
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    [sweep] = _tree_sweeps([n], objective, workers, 0, spot_check_rate)
    return _report(f"scan-{objective}", "free-trees", n, objective, (sweep.lo, sweep.hi),
                   witness_cap)


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
) -> list[ConjectureRecord]:
    """For each order, the av1-maximal trees and whether the subdivided star
    is the unique maximizer; evidence only, nothing is asserted.  The stream
    roots R at its hub with the subdivided edge first, so R's graph6 is the
    one the sweep's sides hold.  An empty order list is refused, since it
    would check nothing."""
    orders = list(orders)
    if not orders:
        raise ValueError("no order selected: give one or more tree orders")
    if not all(4 <= n <= TREE_ORDER_LIMIT for n in orders):
        raise ValueError(f"conjecture scan needs orders >= 4 and <= {TREE_ORDER_LIMIT}")
    if top_k < 0:
        raise ValueError("top list length must be non-negative")
    out = []
    for n, sweep in zip(orders, _tree_sweeps(orders, "av1", workers, top_k, spot_check_rate)):
        hi = sweep.hi
        r_tree = levels_to_graph([0, 1, 2] + [1] * (n - 3))
        r_value = nis_summary(r_tree, 1).average
        out.append(
            ConjectureRecord(
                order=n,
                max_value=hi.value,
                max_witnesses=tuple(sorted(hi.codes)[:WITNESS_CAP]),
                subdivided_star_value=r_value,
                subdivided_star_is_unique_max=(hi.value == r_value
                                               and hi.codes == [to_graph6(r_tree)]),
                top=tuple(hi.ranked()[:top_k]),
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


def _stated(claim_id: str, n: int) -> bool:
    """Whether the claim checks anything at order n."""
    return n >= _CLAIMS[claim_id][1]


def _suite_first_order(suite: str) -> int:
    return min(first for claim_suite, first, *_ in _CLAIMS.values() if claim_suite == suite)


def _tree_claim_reports(n: int, sweep: _Sweep) -> dict:
    """The tree claims' (sides, violations) at order n >= 2, keyed by claim
    id (a claim stated only above n has none), from the av1 sweep of its
    trees with both caps checked.  ``build`` labels the star as the stream
    does, so its graph6 is the one the sweep's sides hold."""
    lo, hi = sides = sweep.lo, sweep.hi
    # below its first order internal-degree-cap is still reported, with empty sides
    checks = {
        "tree-average-cap": (sides, sweep.cap_violations),
        "internal-degree-cap": (sides if _stated("internal-degree-cap", n) else _extremes(),
                                sweep.internal_violations),
    }
    if _stated("tree-average-lower", n):
        star = to_graph6(build(FamilySpec("star", n)))
        lower = []
        if lo.value != 2 or lo.codes != [star]:
            lower.append(Violation(
                star, "the star uniquely minimizes the tree average",
                observed=f"min {format_rational(lo.value)} on {len(lo.codes)} trees",
                expected="min 2, only at the star",
            ))
        checks["tree-average-lower"] = (sides, lower)
    if _stated("tree-average-band", n):
        band = []
        if not Fraction(n, 2) < hi.value < Fraction(n + 1, 2):
            band.append(Violation(
                "", "tree maximum lies strictly between n/2 and (n+1)/2",
                observed=format_rational(hi.value),
                expected=f"in ({format_rational(n, 2)}, {format_rational(n + 1, 2)})",
            ))
        checks["tree-average-band"] = (sides, band)
    return checks


def _graph_claim_reports(n: int) -> dict:
    """The graph claims' (sides, violations) at order n >= 2 from one pass
    over the "non-edgeless" class records, keyed by claim id
    (graph-average-upper has none below its first order).

    Each record's table row serves every claim: per edge uv, the union
    N(u) | N(v) comes from the adjacency masks, and the (sigma0, S0) of the
    graph left after deleting it, like sigma0 of G and of each G - w, is
    the row's entry at that vertex mask.
    The classes where "every edge's union covers all n vertices" disagrees
    with av1 = 2 close graph-average-lower's violations, in graph6 order.
    Every comparison is made in integers; a Fraction is built only for
    the extremes, the upper bound and a bracket violation's range."""
    av1_entries, ratio_entries = [], []
    mismatched = []
    lower, union, bracket, residual = [], [], [], []
    for graph, g6, counts, totals, sigma1, s1 in _class_records(n, "non-edgeless"):
        adj, universe = graph.adj, graph.universe
        sigma_g = counts[universe]
        av1_entries.append((s1, sigma1, g6))
        ratio_entries.append((sigma1, sigma_g, g6))
        edges = graph.edges()
        unions = [adj[u] | adj[v] for u, v in edges]
        sizes = [mask.bit_count() for mask in unions]
        residuals = [(counts[universe & ~mask], totals[universe & ~mask]) for mask in unions]
        d1, d2 = min(sizes), max(sizes)
        if (d1 == n) != (s1 == 2 * sigma1):
            mismatched.append(g6)
        if s1 < 2 * sigma1:
            lower.append(Violation(
                g6, "average size of one-edge subsets is at least 2",
                observed=format_rational(s1, sigma1), expected=">= 2",
            ))
        # union-size sandwich: lower bound low_num/low_den (low_den >= 1), upper bound up2/2
        low_num, low_den, up2 = 3 * n + 2 - 3 * d2, n + 1 - d2, n + 4 - d1
        if not (2 * low_den <= low_num and low_num * sigma1 <= s1 * low_den
                and 2 * s1 <= up2 * sigma1 and up2 <= n + 2):
            union.append(Violation(
                g6, "neighbourhood-union size sandwich around the average",
                observed=f"lower {format_rational(low_num, low_den)}, "
                         f"av {format_rational(s1, sigma1)}, "
                         f"upper {format_rational(up2, 2)}",
                expected="2 <= lower <= av <= upper <= (n+2)/2",
            ))
        # av1 - 2 = excess/sigma1 against each edge's residual average s0/sigma0
        excess = s1 - 2 * sigma1
        if not (any(s0 * sigma1 <= excess * sigma0 for sigma0, s0 in residuals)
                and any(s0 * sigma1 >= excess * sigma0 for sigma0, s0 in residuals)):
            per_edge = [2 + Fraction(s0, sigma0) for sigma0, s0 in residuals]
            bracket.append(Violation(
                g6, "per-edge conditional averages bracket the average",
                observed=f"av {format_rational(s1, sigma1)} outside "
                         f"[{format_rational(min(per_edge))}, {format_rational(max(per_edge))}]",
                expected="min edge average <= av <= max edge average",
            ))
        for (u, v), size, (sigma0, _) in zip(edges, sizes, residuals):
            # the residual ratio sigma0/sigma_g lies between 1/lower_den, where
            # lower_den = 2^(l-2) + 2^(l-|N[u]|) + 2^(l-|N[v]|) + 1, and 1 - s0(G - w)/sigma_g
            # for each endpoint w; l >= |N[u]|, |N[v]| >= 2 keeps every exponent >= 0
            closed = (2, graph.degree(u) + 1, graph.degree(v) + 1)
            lower_den = sum(1 << (size - c) for c in closed) + 1
            minus = max(counts[universe ^ 1 << u], counts[universe ^ 1 << v])
            if not sigma_g <= sigma0 * lower_den or sigma0 + minus > sigma_g:
                residual.append(Violation(
                    g6, "per-edge residual independent-set count sandwich",
                    observed=f"edge ({u},{v}) ratio {format_rational(sigma0, sigma_g)}",
                    expected="within the closed-neighbourhood bounds",
                ))
    for g6 in sorted(mismatched):
        lower.append(Violation(
            g6, "average equals 2 exactly for graphs whose every edge covers all vertices",
            observed="mismatch between equality class and covering-edge predicate",
            expected="equal sets",
        ))
    sides = _extremes(av1_entries)
    checks = {
        "graph-average-lower": (sides, lower),
        "union-size-sandwich": (sides, union),
        "edge-average-bracket": (sides, bracket),
        "residual-count-sandwich": (_extremes(ratio_entries), residual),
    }
    if _stated("graph-average-upper", n):
        high = sides[1]
        bound = Fraction(n, 2) + 1
        # the walk's one-edge class is labelled as ``build`` labels the single edge
        single_edge = to_graph6(build(FamilySpec("G_special", n)))
        upper = []
        if not (high.value == bound and high.codes == [single_edge]):
            upper.append(Violation(
                single_edge,
                "the single edge plus isolated vertices uniquely maximizes the average",
                observed=f"max {format_rational(high.value)} on {len(high.codes)} classes",
                expected=f"max {format_rational(bound)} on exactly this class",
            ))
        checks["graph-average-upper"] = (sides, upper)
    return checks


def _degree_two_ratio_reports(n: int) -> dict:
    violations = []
    entries = []
    for combo, graph in path_cycle_unions(n):
        eng = Engine(graph)
        sig1, _ = eng.scalars1()
        sig0, _ = eng.scalars0()
        value = Fraction(sig1, sig0)
        g6 = to_graph6(graph)
        entries.append((sig1, sig0, g6))
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
    return {"degree-two-ratio": (_extremes(entries), violations)}


def _subdivided_star_reports(n: int) -> dict:
    strict_below_half = {7, 8}
    tree = build(FamilySpec("R", n))
    value = nis_summary(tree, 1).average
    g6 = to_graph6(tree)
    violations = []
    if not value < Fraction(n + 1, 2):
        violations.append(Violation(
            g6, "subdivided-star average below (n+1)/2",
            observed=format_rational(value),
            expected=f"< {format_rational(n + 1, 2)}",
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
    return {"subdivided-star-band": (_extremes([(value.numerator, value.denominator, g6)]),
                                     violations)}


def verify_claims(
    *,
    claims="all",
    max_tree_order: int = 16,
    max_graph_order: int = 7,
    max_ratio_order: int = 10,
    max_family_order: int = 40,
    witness_cap: int | None = WITNESS_CAP,
    spot_check_rate: float = 0.0,
    spot_checked: dict[int, int] | None = None,
) -> list[ScanReport]:
    """Run the claim suites exhaustively and return one report per claim
    and order, claim by claim in the order selected (a repeated claim id
    counts once): ``claims`` is "all", one claim id or an iterable of
    them.  Equality discrepancies are recorded, not raised.

    A selection that names no claim ([], () or ""), and a maximum order
    below the first order of a suite under "all" (4 for the family suite,
    2 for the others) or of a named claim, are refused before any suite
    runs, since they would check nothing.  At a positive ``spot_check_rate``
    a sample of the trees of every order up to ``max_tree_order`` is
    spot-checked on the tree claims' sweep, with the DP rows their reports
    came from; without a tree claim no tree is walked.  ``spot_checked``,
    when given, receives the number of trees checked at each order."""
    if claims == "all":
        selected = ALL_CLAIMS
    else:
        selected = list(dict.fromkeys([claims] if isinstance(claims, str) else claims))
        if not any(selected):
            raise ValueError("no claim selected: give 'all' or one or more claim ids")
        unknown = [c for c in selected if c not in _CLAIMS]
        if unknown:
            raise ValueError(f"unknown claims: {', '.join(unknown)}")
    if max_graph_order > GRAPH_SCAN_LIMIT:
        raise ValueError(f"max graph order {max_graph_order} above the exhaustive limit "
                         f"({GRAPH_SCAN_LIMIT})")
    if max_tree_order > TREE_ORDER_LIMIT:
        raise ValueError(f"max tree order {max_tree_order} above the free-tree range "
                         f"(1..{TREE_ORDER_LIMIT})")
    if max_ratio_order > RATIO_ORDER_LIMIT:
        raise ValueError(f"max ratio order {max_ratio_order} above the path-cycle limit "
                         f"({RATIO_ORDER_LIMIT})")
    if max_family_order > GRAPH6_ORDER_LIMIT:
        raise ValueError(f"max family order {max_family_order} above the graph6 limit "
                         f"({GRAPH6_ORDER_LIMIT})")
    maxima = {"tree": max_tree_order, "graph": max_graph_order,
              "ratio": max_ratio_order, "family": max_family_order}
    for claim_id in selected:
        suite, first, *_ = _CLAIMS[claim_id]
        what = f"{claim_id} ({first}), so it"
        if claims == "all":
            first = _suite_first_order(suite)
            what = f"the {suite} claims ({first}), so they"
        if maxima[suite] < first:
            raise ValueError(f"max {suite} order {maxima[suite]} lies below the first order "
                             f"of {what} would check nothing")
    _spot_sample(2, spot_check_rate)  # refuses a rate outside [0, 1] before any suite runs
    checked = {} if spot_checked is None else spot_checked

    def tree_checks(orders):
        # one sweep, one table build and at most one pool for every order
        sweeps = _tree_sweeps(orders, "av1", 1, 0, spot_check_rate, caps=True)
        if spot_check_rate:
            checked.update((n, sweep.checked) for n, sweep in zip(orders, sweeps))
        return map(_tree_claim_reports, orders, sweeps)

    # each suite maps its orders to their claims' (sides, violations); an
    # order's population (trees or graph classes) is walked once and dropped
    suites = {
        "tree": tree_checks,
        "graph": lambda orders: map(_graph_claim_reports, orders),
        "ratio": lambda orders: map(_degree_two_ratio_reports, orders),
        "family": lambda orders: map(_subdivided_star_reports, orders),
    }
    reports, by_suite = [], {}
    for claim_id in selected:
        suite, _, population, objective = _CLAIMS[claim_id]
        if suite not in by_suite:
            orders = list(range(_suite_first_order(suite), maxima[suite] + 1))
            by_suite[suite] = dict(zip(orders, suites[suite](orders)))
        for n, checks in by_suite[suite].items():
            if claim_id in checks:
                sides, violations = checks[claim_id]
                reports.append(_report(claim_id, population, n, objective, sides, witness_cap,
                                       violations))
    return reports
