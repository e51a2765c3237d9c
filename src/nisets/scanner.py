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

from collections import namedtuple
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import chain, permutations
from math import factorial
from multiprocessing import Pipe, Process

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
from .oracle import oracle_levels_of
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
# blocks per task of a tree sweep; shorter runs even out the pool's shares
# more finely, longer ones leave fewer parts to merge
_RUN_BLOCKS = 16
# the most processes a sweep scores in, this one included
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


def _class_masks(n: int) -> list[tuple[int, int]]:
    """(pair mask, labelled count) of one representative per order-n
    isomorphism class.  Walks every edge mask in increasing order; an
    unseen mask starts a new class and its whole permutation orbit, summed
    from ``_orbit_tables``, is marked, so each class's representative is
    the minimal mask of its orbit.  The labelled counts must sum to
    2^C(n,2), or RouteDisagreement is raised."""
    if not 1 <= n <= GRAPH_SCAN_LIMIT:
        raise ValueError(f"order {n} outside 1..{GRAPH_SCAN_LIMIT}; graphs are enumerated "
                         f"up to the exhaustive limit ({GRAPH_SCAN_LIMIT})")
    slots = n * (n - 1) // 2
    nperms = factorial(n)
    tables = _orbit_tables(n)
    seen = bytearray(1 << slots)
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
        classes.append((mask, nperms // int(np.count_nonzero(images == mask))))
        mask = seen.find(0, mask + 1)
    total = sum(count for _, count in classes)
    if total != 1 << slots:
        raise RouteDisagreement(f"the order-{n} classes count {total} labelled graphs, "
                                f"but there are 2^{slots}")
    return classes


def labeled_graph_classes(n: int) -> list[tuple[Graph, int]]:
    """One representative per isomorphism class plus its labelled count,
    the graphs of ``_class_masks``."""
    classes, pairs = _class_masks(n), all_pairs(n)
    return [(graph_from_pair_mask(n, mask, pairs), count) for mask, count in classes]


def _subset_scalars(adj, n: int):
    """(sigma0, S0) of the subgraph each vertex subset induces, for the
    order-n graphs whose adjacency masks are the rows of ``adj``: two
    (graphs, 2^n) int32 arrays indexed by vertex mask.

    Built by doubling over the vertices: a subset whose top vertex is v is
    a lower subset L with v added, and its independent sets are those of L
    plus v joined to each of L outside N[v], which is L & ~N(v)."""
    adj = np.asarray(adj, dtype=np.int32).reshape(len(adj), n)
    count = np.ones((len(adj), 1 << n), dtype=np.int32)
    size = np.zeros((len(adj), 1 << n), dtype=np.int32)
    for v in range(n):
        low = 1 << v
        rest = np.arange(low, dtype=np.int32) & ~adj[:, v:v + 1]
        with_v = np.take_along_axis(count[:, :low], rest, axis=1)
        count[:, low:2 * low] = count[:, :low] + with_v
        size[:, low:2 * low] = (size[:, :low] + np.take_along_axis(size[:, :low], rest, axis=1)
                                + with_v)
    return count, size


_GraphRecords = namedtuple("_GraphRecords", "adj count size edge union residual0 residual1 "
                                            "sigma1 s1")


def _graph_records(adj) -> _GraphRecords:
    """The order-n graphs whose adjacency masks are the rows of ``adj``:
    their (sigma0, S0) tables; per lexicographic vertex pair uv (the
    ``Graph.edges`` order), whether it is an edge, the size of
    N(u) | N(v), and the int32 table entries (sigma0, S0) of the residual
    V - (N(u) | N(v)), widened to int64; and sigma1 and S1, which sum each
    edge's residual sigma0 and 2 sigma0 + S0, its one-edge sets being uv
    joined to each independent set of its residual.  As each count is at
    most 2^n and each size sum at most n 2^n, every claim product and fold
    cross-multiplication is below n 4^n < 2^63 up to n = 29, past the
    tables' int32 limit of 27."""
    adj = np.asarray(adj, dtype=np.int64)
    n = adj.shape[1]
    count, size = _subset_scalars(adj, n)
    us, vs = np.triu_indices(n, 1)
    union = adj[:, us] | adj[:, vs]
    edge = (adj[:, us] >> vs & 1).astype(bool)
    rests = ((1 << n) - 1) & ~union
    residual0, residual1 = (np.take_along_axis(table, rests, axis=1).astype(np.int64)
                            for table in (count, size))
    sigma1 = np.where(edge, residual0, 0).sum(axis=1)
    return _GraphRecords(adj, count, size, edge, np.bitwise_count(union).astype(np.int64),
                         residual0, residual1, sigma1,
                         2 * sigma1 + np.where(edge, residual1, 0).sum(axis=1))


def _class_records(n: int, graph_filter: str) -> _GraphRecords:
    """The records of the order-n classes the filter keeps, in walk order,
    read by ``scan_graphs`` and the graph claims alike; a Graph is built
    only for a structural filter."""
    masks = np.array([mask for mask, _ in _class_masks(n)], dtype=np.int64)
    pairs = all_pairs(n)
    # pair slot s = (i, j) puts j in N(i) and i in N(j)
    weights = np.zeros((len(pairs), n), dtype=np.int64)
    for s, (i, j) in enumerate(pairs):
        weights[s, i], weights[s, j] = 1 << j, 1 << i
    adj = (masks[:, None] >> np.arange(len(pairs)) & 1) @ weights
    if graph_filter == "non-edgeless":
        adj = adj[masks != 0]
    elif graph_filter != "all":
        summaries = [structural_predicates(Graph(n, tuple(row))) for row in adj.tolist()]
        adj = adj[[s.is_connected if graph_filter == "connected"
                   else not s.has_isolated_vertex and s.max_degree <= 2 for s in summaries]]
    return _graph_records(adj)


def _named(adj, index) -> str:
    """The graph6 of a record's graph, written only where a report names it."""
    return to_graph6(Graph(adj.shape[1], tuple(adj[int(index)].tolist())))


def _graph_sides(adj, num, den, keys):
    """Min and max sides of int64 values num/den keyed by record index,
    the kept keys then written as graph6."""
    sides = _Side(smaller=True), _Side(smaller=False)
    for side in sides:
        side.fold(num, den, keys)
        for value in side.values:
            value[2] = [_named(adj, index) for index in value[2]]
    return sides


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
        keys = np.flatnonzero(records.sigma1)
        num, den = records.s1[keys], records.sigma1[keys]
    else:
        keys = np.arange(len(records.adj))
        num, den = records.sigma1, records.count[:, -1].astype(np.int64)
    return _report(f"scan-{objective}", f"graphs/{graph_filter}", n, objective,
                   _graph_sides(records.adj, num, den, keys), witness_cap)


# -- tree sweeps ---------------------------------------------------------------

def _spot_check(levels, rows) -> None:
    """Compare the joined DP rows (sigma0, S0, sigma1, S1) of a block's
    sampled trees, given by their level sequences, with the engine and the
    subset oracle, whose one kernel call takes every tree's table; the
    first mismatch in stream order is raised."""
    graphs = [levels_to_graph(tree) for tree in levels]
    for graph, row, counts in zip(graphs, rows, oracle_levels_of(graphs)):
        eng = Engine(graph)
        routes = (("tree DP", row[:2], row[2:]), ("engine", eng.scalars0(), eng.scalars1()))
        # the padding is level 1 of a one-vertex tree
        sizes = np.arange(graph.n + 1)
        wants = [(int(level.sum()), int(level @ sizes)) for level in counts[:2]] + [(0, 0)]
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


def _shares(trees, workers):
    """Task indices of ``workers`` shares of tasks of these tree counts, in
    task order.  Most trees first, each task joins the share of least
    weight, a task weighing its trees and two blocks; share 0 weighs least."""
    shares, loads = [[] for _ in range(workers)], [0] * workers
    for index in sorted(range(len(trees)), key=trees.__getitem__, reverse=True):
        s = loads.index(min(loads))
        shares[s].append(index)
        loads[s] += trees[index] + 2 * _BLOCK
    return [sorted(shares[s]) for s in sorted(range(workers), key=loads.__getitem__)]


def _score_share(tables, tasks):
    """The _Sweep of each (tag, payload) task in order, up to the first
    error, which ends the list."""
    parts = []
    for _, payload in tasks:
        try:
            parts.append(_score_run(tables, payload))
        except Exception as error:
            return parts + [error]
    return parts


def _pooled_share(tables, tasks, sender):
    """Score a share in a pool process and send its parts in one message,
    an error with its traceback, as if raised."""
    parts = _score_share(tables, tasks)
    if parts and isinstance(parts[-1], Exception):
        from multiprocessing.pool import ExceptionWithTraceback  # slow to import: errors only
        parts[-1] = ExceptionWithTraceback(parts[-1], parts[-1].__traceback__)
    sender.send(parts)


def _tree_sweeps(orders, objective, workers, top_k, spot_check_rate, caps=False):
    """The _Sweep of the trees of each order, in a list, its max side
    keeping the top_k best entries.  The spot-check rate and the worker
    count are checked before any pool process starts (none at one worker).

    The tables (``_Tables``) are built once, for the largest order.  Each
    order's stream is walked once as segments and cut into runs of
    ``_RUN_BLOCKS`` blocks (``_runs``), one task each, which spot-checks
    the sampled trees of its run.  One worker scores each run as it is
    cut, so memory does not grow with the tree count.  At w > 1 the task
    list is cut whole and dealt into w shares (``_shares``): w - 1 pool
    processes, started with the tables and a share each, send back their
    share's parts in one message while this process scores the lightest.
    Parts merge in task order, which is stream order, so the first error
    met is the first.  Every order's tree count must equal
    ``count_free_trees``, or RouteDisagreement is raised.  Only then is
    each key the merged sides keep encoded, once."""
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
    if workers == 1:
        parts = ((k, _score_run(tables, payload)) for k, payload in tasks)
    else:
        tasks = list(tasks)
        shares = _shares([int(np.sum(p[-1][:, 3] - p[-1][:, 2])) for _, p in tasks], workers)
        held = [[tasks[i] for i in share] for share in shares]
        pipes = [Pipe(duplex=False) for _ in held[1:]]
        pool = [Process(target=_pooled_share, args=(tables, share, sender), daemon=True)
                for share, (_, sender) in zip(held[1:], pipes)]
        for process, (_, sender) in zip(pool, pipes):
            process.start()
            sender.close()  # the process holds the send end, so its death ends the pipe
        try:
            scored = [_score_share(tables, held[0]), *(receiver.recv() for receiver, _ in pipes)]
        finally:
            for process in pool:
                process.join()
        parts = ((tasks[i][0], part) for i, part in sorted(chain(*map(zip, shares, scored))))
    for k, part in parts:
        if isinstance(part, Exception):
            raise part
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
    """``_graph_checks`` of the "non-edgeless" order-n class records."""
    return _graph_checks(_class_records(n, "non-edgeless"))


def _graph_checks(records: _GraphRecords) -> dict:
    """The graph claims' (sides, violations) over records of graphs of one
    order n >= 2, each with an edge, keyed by claim id, in whole-array
    passes: one av1 fold serves four claims, and the (sigma0, S0) of each
    edge's residual, of G and of each G - w are table entries.  Every
    comparison is made in integers.  A Violation is built only for a
    flagged graph, or graph and edge, in graph-then-edge order; the graphs
    where "every edge's union covers all n vertices" disagrees with av1 = 2
    close graph-average-lower's, in graph6 order."""
    adj, count, _, edge, union, residual0, residual1, sigma1, s1 = records
    n, sigma_g, excess = adj.shape[1], count[:, -1].astype(np.int64), s1 - 2 * sigma1
    d1, d2 = np.where(edge, union, n).min(axis=1), np.where(edge, union, 0).max(axis=1)
    # union-size sandwich: lower bound low_num/low_den (low_den >= 1), upper bound up2/2
    low_num, low_den, up2 = 3 * n + 2 - 3 * d2, n + 1 - d2, n + 4 - d1
    # av1 - 2 = excess/sigma1 against each edge's residual average s0/sigma0
    left, right = residual1 * sigma1[:, None], excess[:, None] * residual0
    keys = np.arange(len(adj))

    def named(flags, claim, observed, expected, owners=keys):
        """A Violation for each flag, naming the graph ``owners`` gives it."""
        return [Violation(_named(adj, owners[i]), claim, observed(i), expected)
                for i in np.flatnonzero(flags).tolist()]

    def av1(i):
        return format_rational(int(s1[i]), int(sigma1[i]))

    def outside(i):
        per_edge = [2 + Fraction(s0, sigma0) for sigma0, s0 in
                    zip(residual0[i, edge[i]].tolist(), residual1[i, edge[i]].tolist())]
        return (f"av {av1(i)} outside "
                f"[{format_rational(min(per_edge))}, {format_rational(max(per_edge))}]")

    lower = named(excess < 0, "average size of one-edge subsets is at least 2", av1, ">= 2")
    lower += sorted(named(
        (d1 == n) != (excess == 0),
        "average equals 2 exactly for graphs whose every edge covers all vertices",
        lambda i: "mismatch between equality class and covering-edge predicate", "equal sets",
    ), key=lambda v: v.graph6)
    union_violations = named(
        ~((2 * low_den <= low_num) & (low_num * sigma1 <= s1 * low_den)
          & (2 * s1 <= up2 * sigma1) & (up2 <= n + 2)),
        "neighbourhood-union size sandwich around the average",
        lambda i: (f"lower {format_rational(int(low_num[i]), int(low_den[i]))}, av {av1(i)}, "
                   f"upper {format_rational(int(up2[i]), 2)}"),
        "2 <= lower <= av <= upper <= (n+2)/2")
    bracket = named(
        ~((edge & (left <= right)).any(axis=1) & (edge & (left >= right)).any(axis=1)),
        "per-edge conditional averages bracket the average", outside,
        "min edge average <= av <= max edge average")
    # each edge uv's residual ratio sigma0/sigma_g lies between 1/lower_den, where
    # lower_den = 2^(l-2) + 2^(l-|N[u]|) + 2^(l-|N[v]|) + 1, and 1 - s0(G - w)/sigma_g
    # for each endpoint w; l >= |N[u]|, |N[v]| >= 2 keeps every exponent >= 0
    graph, pair = np.nonzero(edge)
    us, vs = (ends[pair] for ends in np.triu_indices(n, 1))
    size, sigma0, whole = union[graph, pair], residual0[graph, pair], sigma_g[graph]
    closed = np.bitwise_count(adj).astype(np.int64) + 1
    lower_den = ((1 << size - 2) + (1 << size - closed[graph, us])
                 + (1 << size - closed[graph, vs]) + 1)
    full = (1 << n) - 1
    minus = np.maximum(count[graph, full ^ 1 << us], count[graph, full ^ 1 << vs])
    residual = named(
        (whole > sigma0 * lower_den) | (sigma0 + minus > whole),
        "per-edge residual independent-set count sandwich",
        lambda e: f"edge ({us[e]},{vs[e]}) ratio {format_rational(int(sigma0[e]), int(whole[e]))}",
        "within the closed-neighbourhood bounds", graph)
    sides = _graph_sides(adj, s1, sigma1, keys)
    checks = {
        "graph-average-lower": (sides, lower),
        "union-size-sandwich": (sides, union_violations),
        "edge-average-bracket": (sides, bracket),
        "residual-count-sandwich": (_graph_sides(adj, sigma1, sigma_g, keys), residual),
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
