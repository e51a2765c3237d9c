"""Exhaustive verification scans over all small graphs and all free trees.

Graph populations are enumerated as full labelled-graph orbits (every
2^C(n,2) edge set, deduplicated into isomorphism classes by expanding the
permutation orbit of each previously unseen mask), so the exhaustiveness of
every claim check is auditable.  Tree populations come from the free-tree
block stream, scored a block at a time.  All claim checks are exact rational
comparisons.

Failed equality statements are recorded as violations and never dropped;
a failed inequality would indicate an engine bug and makes the surrounding
tooling exit nonzero.
"""

from __future__ import annotations

from bisect import insort
from contextlib import nullcontext
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from itertools import permutations
from math import factorial
from multiprocessing import Pool

import numpy as np

from .engine import Engine, format_rational, nis_summary, tree_scalars_batch
from .families import FamilySpec, build
from .formats import GRAPH6_ORDER_LIMIT, from_graph6, to_graph6
from .graphs import (
    Graph,
    all_pairs,
    disjoint_union,
    graph_from_pair_mask,
    structural_predicates,
)
from .oracle import oracle_profiles
from .trees import (
    TREE_ORDER_LIMIT,
    count_free_trees,
    group_ranges,
    level_parents,
    levels_to_graph,
    tree_blocks,
    tree_canonical_key,
)

GRAPH_SCAN_LIMIT = 7
# the ratio suite scores every union of paths and cycles of each order: 15,341 at order 30
RATIO_ORDER_LIMIT = 30
WITNESS_CAP = 100
SPOT_CHECK_SEED = 2024
# tasks per worker at each order of a multi-worker tree sweep; each task pays
# for a partial block and a fresh top list, so more tasks balance the load
# but cost more
_TASKS_PER_WORKER = 2
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
    positive denominators: the extreme, kept as an unreduced pair and
    compared by cross-multiplication, and the graph6 codes of the entries
    that reach it, in stream order.  An empty side has value None and no
    codes."""

    __slots__ = ("smaller", "num", "den", "codes")

    def __init__(self, smaller: bool):
        self.smaller = smaller
        self.num = self.den = None
        self.codes: list[str] = []

    @property
    def value(self) -> Fraction | None:
        return None if self.den is None else Fraction(self.num, self.den)

    def _keeps(self, lhs, rhs):
        """Whether lhs ties or beats rhs on this side, elementwise on arrays."""
        return lhs <= rhs if self.smaller else lhs >= rhs

    def offer(self, num, den, codes) -> None:
        """Take entries of value num/den with these codes: they join a side
        they tie and replace a side they beat."""
        if self.den is not None and num * self.den == self.num * den:
            self.codes.extend(codes)
        elif self.den is None or self._keeps(num * self.den, self.num * den):
            self.num, self.den, self.codes = num, den, list(codes)

    def fold(self, num, den, code) -> None:
        """Take one block of int64 values num/den, where ``code(i)`` is the
        graph6 of entry i.

        The block's entries that tie or beat the side meet in an exact
        tournament of cross-multiplications; every entry tied with its
        winner then joins or replaces the side, so only those are encoded."""
        contenders = (np.arange(len(num)) if self.den is None else
                      np.flatnonzero(self._keeps(num * self.den, self.num * den)))
        if not contenders.size:
            return
        alive = contenders
        while alive.size > 1:
            half = alive.size // 2
            a, b = alive[:half], alive[half:2 * half]
            winners = np.where(self._keeps(num[a] * den[b], num[b] * den[a]), a, b)
            alive = np.concatenate((winners, alive[2 * half:]))
        best_num, best_den = int(num[alive[0]]), int(den[alive[0]])
        tied = contenders[num[contenders] * best_den == best_num * den[contenders]]
        self.offer(best_num, best_den, [code(i) for i in tied])

    def merge(self, other: _Side) -> None:
        """Join the side of a later stretch of the same stream."""
        if other.den is not None:
            self.offer(other.num, other.den, other.codes)


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


def labeled_graph_classes(n: int) -> list[tuple[Graph, int]]:
    """One representative per isomorphism class plus its labelled count.

    Walks every edge mask in increasing order; an unseen mask starts a new
    class and its whole permutation orbit is marked, so each class's
    representative is the minimal mask of its orbit.
    """
    if not 1 <= n <= GRAPH_SCAN_LIMIT:
        raise ValueError(f"order {n} outside 1..{GRAPH_SCAN_LIMIT}; graphs are enumerated "
                         f"up to the exhaustive limit ({GRAPH_SCAN_LIMIT})")
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
    entries = []
    for graph, _ in labeled_graph_classes(n):
        if not graph.edge_count and (objective == "av1" or graph_filter == "non-edgeless"):
            continue
        if graph_filter == "connected" and not structural_predicates(graph).is_connected:
            continue
        if graph_filter == "no-isolated-max-deg-2":
            s = structural_predicates(graph)
            if s.has_isolated_vertex or s.max_degree > 2:
                continue
        eng = Engine(graph)
        sigma1, s1 = eng.scalars1()
        num, den = (s1, sigma1) if objective == "av1" else (sigma1, eng.scalars0()[0])
        entries.append((num, den, to_graph6(graph)))
    return _report(f"scan-{objective}", f"graphs/{graph_filter}", n, objective,
                   _extremes(entries), witness_cap)


# -- tree sweeps ---------------------------------------------------------------

class _Block:
    """One block of trees scored by the batched tree DP: the (b, n) int8
    levels, their parent array and the DP's four value arrays."""

    def __init__(self, levels):
        self.levels = levels
        self.parent = level_parents(levels)
        self.values = tree_scalars_batch(self.parent)

    def code(self, i) -> str:
        return to_graph6(levels_to_graph(self.levels[i].tolist()))

    def pair(self, objective: str):
        """The objective of every tree as unreduced (numerator, denominator)
        int64 arrays.  Sweeps start at order 2, where every tree has an
        edge, so both denominators are positive."""
        sig0, _, sig1, tot1 = self.values
        return (tot1, sig1) if objective == "av1" else (sig1, sig0)

    def spot_check(self, positions) -> int:
        """Check the DP rows of the trees at these block positions, the
        values the sweep uses, against Engine and the subset oracle;
        returns how many trees were checked."""
        for i in positions:
            _spot_check(self.levels[i].tolist(), tuple(int(v[i]) for v in self.values))
        return len(positions)


def _spot_check(levels, row) -> None:
    """Compare one tree's batched DP row (sigma0, S0, sigma1, S1), the
    engine and the subset oracle."""
    graph = levels_to_graph(levels)
    eng = Engine(graph)
    routes = (("tree DP", row[:2], row[2:]), ("engine", eng.scalars0(), eng.scalars1()))
    # one table serves both levels; the padding is level 1 of a one-vertex tree
    wants = [(p.sigma, p.total) for p in oracle_profiles(graph)] + [(0, 0)]
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

    def count(self, first: int, stop: int) -> int:
        """How many of the stream indices first, ..., stop - 1 are sampled.
        Index i is iff ⌊(i + seed)·want/total⌋ exceeds
        ⌊(i + seed - 1)·want/total⌋, as want <= total, so the count
        telescopes."""
        shift = self.seed % self.total - 1
        return ((stop + shift) * self.want // self.total
                - (first + shift) * self.want // self.total)

    def __bool__(self) -> bool:
        return self.want > 0


def _spot_sample(n: int, rate: float) -> _SpotSample:
    """Deterministic sample of stream indices of the order-n trees."""
    if not 0 <= rate <= 1:
        raise ValueError("spot-check rate must lie in [0, 1]")
    if rate == 0:
        return _SpotSample(1, 0, SPOT_CHECK_SEED)
    total = count_free_trees(n)
    return _SpotSample(total, min(total, max(1, int(rate * total))), SPOT_CHECK_SEED)


def _blocks(n, spots, start=None, stop=None):
    """The blocks of the order-n tree stream from the sequence ``start`` up
    to the sequence ``stop`` (the whole stream when both are None; see
    ``tree_blocks``), each scored as a _Block, spot-checked at the trees
    whose indices, counted from the range's first tree, ``spots`` samples,
    and yielded with how many trees it checked."""
    first = 0
    for levels in tree_blocks(n, start, stop):
        block = _Block(levels)
        yield block, block.spot_check(spots.picks(np.arange(first, first + len(levels))))
        first += len(levels)


def _top_floor(top, top_k):
    """(numerator, denominator) of the top list's last value once it holds
    top_k entries, else None."""
    if len(top) < top_k:
        return None
    last = -top[-1][0]
    return last.numerator, last.denominator


def _fold_top(top, top_k, num, den, code) -> None:
    """Offer one block's entries, in stream order, to the top-k list of
    (-value, graph6) pairs.

    The list first takes entries as they come until it holds top_k.  From
    then on an entry can enter only if its value ties or beats the list's
    last one: a vectorized prefilter of the block's remaining entries
    against the last value at that point drops the rest, and each survivor
    is checked again against the list as it stands.  Ties pass both checks,
    so the list does not depend on where blocks start."""
    filled = min(top_k - len(top), len(num))
    for i in range(filled):
        insort(top, (-Fraction(int(num[i]), int(den[i])), code(i)))
    floor = _top_floor(top, top_k)
    if floor is None:
        return
    for i in np.flatnonzero(num[filled:] * floor[1] >= floor[0] * den[filled:]) + filled:
        n_i, d_i = int(num[i]), int(den[i])
        if n_i * floor[1] >= floor[0] * d_i:
            insort(top, (-Fraction(n_i, d_i), code(i)))
            del top[top_k:]
            floor = _top_floor(top, top_k)


def _sweep_shard(payload):
    """Min side, max side, top-k list and tree count of the order-n trees
    from the sequence start up to the sequence stop, spot-checked at the
    indices ``spots`` samples, counted from the range's first tree.  Each
    worker runs the generator itself, from its range's first tree, so no
    tree crosses a process.

    The range is read and scored one block at a time.
    Values stay unreduced int64 pairs compared by cross-multiplication;
    the graph6 code and the Fraction are built only for a tree that ties
    or beats a side or passes the top list's prefilter, so witness lists
    and tie order are those of an eager fold."""
    n, objective, top_k, spots, start, stop = payload
    lo, hi = _extremes()
    top: list[tuple[Fraction, str]] = []
    count = 0
    for block, _ in _blocks(n, spots, start, stop):
        num, den = block.pair(objective)
        lo.fold(num, den, block.code)
        hi.fold(num, den, block.code)
        if top_k:
            _fold_top(top, top_k, num, den, block.code)
        count += len(num)
    return lo, hi, top, count


def _tree_sweeps(orders, objective, workers, top_k, spot_check_rate):
    """(order, min side, max side, top-k (value, graph6) list) of the trees
    of each order, in a list.  The spot-check rate and the worker count are
    checked before the call's one process pool opens (none at one worker).

    An order is one task over its whole stream at one worker, else
    ``_TASKS_PER_WORKER``·workers ranges of ``group_ranges``.  Every
    (order, range) task is queued in one pass over the pool, so no worker
    waits at an order's end; each order's tasks are merged in task order,
    which is stream order, as they arrive.  An order's first task starts at
    stream index 0, so it carries the order's sample and spot-checks as it
    goes; a later task cannot know its first index until the tasks before
    it are counted, so it carries the empty sample.  A second pass re-walks
    just the later tasks that hold a sampled index, each with the sample's
    seed shifted by its first index, so the same trees are checked at any
    worker count."""
    samples = [_spot_sample(n, spot_check_rate) for n in orders]
    if workers < 1:
        raise ValueError("worker count must be at least 1")
    if workers > WORKER_LIMIT:
        raise ValueError(f"worker count {workers} above the limit ({WORKER_LIMIT})")
    ranges = [group_ranges(n, _TASKS_PER_WORKER * workers) if workers > 1 else [(None, None)]
              for n in orders]
    payloads = [(n, objective, top_k, _spot_sample(n, 0) if k else spots, start, stop)
                for n, spots, order_ranges in zip(orders, samples, ranges)
                for k, (start, stop) in enumerate(order_ranges)]
    sweeps, rechecks = [], []
    with Pool(workers) if workers > 1 else nullcontext() as pool:
        parts = (pool.imap if pool else map)(_sweep_shard, payloads)
        for n, spots, order_ranges in zip(orders, samples, ranges):
            lo, hi = _extremes()
            top = []
            first = 0
            for k, (start, stop) in enumerate(order_ranges):
                part_lo, part_hi, part_top, count = next(parts)
                lo.merge(part_lo)
                hi.merge(part_hi)
                top += part_top
                if k and spots.count(first, first + count):
                    rechecks.append((n, objective, 0, replace(spots, seed=spots.seed + first),
                                     start, stop))
                first += count
            sweeps.append((n, lo, hi, [(-negv, g6) for negv, g6 in sorted(top)[:top_k]]))
        if rechecks:
            list(pool.imap(_sweep_shard, rechecks))  # raises on a disagreement
    return sweeps


def spot_check_trees(n: int, rate: float) -> int:
    """Check a deterministic sample of order-n trees: the batched tree DP,
    the engine and the subset oracle must agree at both levels.  Every tree
    of the order is scored, as on a sweep.  Returns how many trees were
    checked; raises RouteDisagreement on any mismatch."""
    spots = _spot_sample(n, rate)
    return sum(checked for _, checked in _blocks(n, spots)) if spots else 0


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
    [(_, lo, hi, _)] = _tree_sweeps([n], objective, workers, 0, spot_check_rate)
    return _report(f"scan-{objective}", "free-trees", n, objective, (lo, hi), witness_cap)


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
    is the unique maximizer; evidence only, nothing is asserted."""
    orders = list(orders)
    if not all(4 <= n <= TREE_ORDER_LIMIT for n in orders):
        raise ValueError(f"conjecture scan needs orders >= 4 and <= {TREE_ORDER_LIMIT}")
    if top_k < 0:
        raise ValueError("top list length must be non-negative")
    out = []
    for n, _, hi, top in _tree_sweeps(orders, "av1", workers, top_k, spot_check_rate):
        r_tree = build(FamilySpec("R", n))
        r_value = nis_summary(r_tree, 1).average
        unique = len(hi.codes) == 1 and hi.value == r_value
        if unique:
            unique = tree_canonical_key(from_graph6(hi.codes[0])) == tree_canonical_key(r_tree)
        out.append(
            ConjectureRecord(
                order=n,
                max_value=hi.value,
                max_witnesses=tuple(sorted(hi.codes)[:WITNESS_CAP]),
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


def _block_degrees(parent):
    """Max degree and minimum internal degree (degree > 1; 0 when no
    vertex is internal) of every tree of a (B, n) parent array from
    ``level_parents``, as two int arrays: a bincount of the parents gives
    the child counts, and every vertex but the root has one more edge."""
    b, n = parent.shape
    slots = parent[:, 1:] + n * np.arange(b)[:, None]
    degree = np.bincount(slots.ravel(), minlength=b * n).reshape(b, n)
    degree[:, 1:] += 1
    # no degree reaches n, so n marks a tree without internal vertices
    internal = np.where(degree > 1, degree, n).min(axis=1)
    internal[internal == n] = 0
    return degree.max(axis=1), internal


def _stated(claim_id: str, n: int) -> bool:
    """Whether the claim checks anything at order n."""
    return n >= _CLAIMS[claim_id][1]


def _suite_first_order(suite: str) -> int:
    return min(first for claim_suite, first, *_ in _CLAIMS.values() if claim_suite == suite)


def _tree_claim_reports(n: int, spots):
    """The tree claims' (sides, violations) at order n >= 2 from one walk of
    its trees, keyed by claim id (a claim stated only above n has none), and
    how many sampled trees were spot-checked on the way.

    The walk is scored in blocks by the batched tree DP, which feeds the
    sweep's side folds.  Both caps are compared per block in integers, and
    degrees come from a bincount of the block's parent array; graph6 codes
    are built only for side entries, the star and violators, and a
    Fraction only for violators and the extremes."""
    cap = 4 + max(n - 3, 0)  # twice the tree cap 2 + max(n-3, 0)/2
    cap_text = format_rational(Fraction(cap, 2))
    claimed_equality = n in (2, 3, 4)  # stated for the paths of these orders
    lo, hi = sides = _extremes()
    star = None
    cap_violations, internal_violations = [], []
    checked = 0
    for block, checked_here in _blocks(n, spots):
        checked += checked_here
        num, den = block.pair("av1")
        lo.fold(num, den, block.code)
        hi.fold(num, den, block.code)
        max_degree, internal = _block_degrees(block.parent)
        for i in np.flatnonzero(max_degree == n - 1):
            star = block.code(i)
        over_cap = 2 * num > cap * den
        off_equality = claimed_equality & (max_degree <= 2) & (2 * num != cap * den)
        over_internal = (internal > 0) & (2 * num > (n - internal + 3) * den)
        for i in np.flatnonzero(over_cap | off_equality | over_internal):
            g6 = block.code(i)
            observed = format_rational(Fraction(int(num[i]), int(den[i])))
            if over_cap[i]:
                cap_violations.append(Violation(
                    g6, "tree average capped by 2 + max(n-3,0)/2",
                    observed=observed, expected=f"<= {cap_text}",
                ))
            if off_equality[i]:
                cap_violations.append(Violation(
                    g6, "claimed equality of the tree cap at the short paths",
                    observed=observed, expected=cap_text, equality_claim=True,
                ))
            if over_internal[i]:
                internal_violations.append(Violation(
                    g6, "tree average capped via the minimum internal degree",
                    observed=observed,
                    expected=f"<= {format_rational(Fraction(n - int(internal[i]) + 3, 2))}",
                ))
    # below its first order internal-degree-cap is still reported, with empty sides
    checks = {
        "tree-average-cap": (sides, cap_violations),
        "internal-degree-cap": (sides if _stated("internal-degree-cap", n) else _extremes(),
                                internal_violations),
    }
    if _stated("tree-average-lower", n):
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
                expected=f"in ({format_rational(Fraction(n, 2))}, {format_rational(Fraction(n + 1, 2))})",
            ))
        checks["tree-average-band"] = (sides, band)
    return checks, checked


def _graph_claim_reports(n: int) -> dict:
    """The graph claims' (sides, violations) at order n >= 2 from one pass
    over its class representatives, keyed by claim id (graph-average-upper
    has none below its first order).

    Each non-edgeless class gets one Engine, which serves every claim.
    Whether the class is good (every edge's N(u) | N(v) covers all n
    vertices) and its union-size bounds (d1, d2) are read off that
    engine's edge terms.  Every comparison is made in integers; a Fraction
    is built only for violation text and the extremes."""
    av1_entries, ratio_entries = [], []
    good_set, equal_set = set(), set()
    lower, union, bracket, residual = [], [], [], []
    for graph, _ in labeled_graph_classes(n):
        if graph.edge_count == 0:
            continue
        g6 = to_graph6(graph)
        eng = Engine(graph)
        sigma_g, _ = eng.scalars0()
        sigma1, s1 = eng.scalars1()
        terms = eng.edge_terms()
        av1_entries.append((s1, sigma1, g6))
        ratio_entries.append((sigma1, sigma_g, g6))
        sizes = [t.union_size for t in terms]  # |N(u) | N(v)| per edge uv
        if all(size == n for size in sizes):
            good_set.add(g6)
        if s1 == 2 * sigma1:
            equal_set.add(g6)
        if s1 < 2 * sigma1:
            lower.append(Violation(
                g6, "average size of one-edge subsets is at least 2",
                observed=format_rational(Fraction(s1, sigma1)), expected=">= 2",
            ))
        # union-size sandwich: lower bound low_num/low_den (low_den >= 1), upper bound up2/2
        d1, d2 = min(sizes), max(sizes)
        low_num, low_den, up2 = 3 * n + 2 - 3 * d2, n + 1 - d2, n + 4 - d1
        if not (2 * low_den <= low_num and low_num * sigma1 <= s1 * low_den
                and 2 * s1 <= up2 * sigma1 and up2 <= n + 2):
            union.append(Violation(
                g6, "neighbourhood-union size sandwich around the average",
                observed=f"lower {format_rational(Fraction(low_num, low_den))}, "
                         f"av {format_rational(Fraction(s1, sigma1))}, "
                         f"upper {format_rational(Fraction(up2, 2))}",
                expected="2 <= lower <= av <= upper <= (n+2)/2",
            ))
        # av1 - 2 = excess/sigma1 against each edge's residual average s0/sigma0
        excess = s1 - 2 * sigma1
        if not (any(t.s0 * sigma1 <= excess * t.sigma0 for t in terms)
                and any(t.s0 * sigma1 >= excess * t.sigma0 for t in terms)):
            per_edge = [2 + t.av0 for t in terms]
            bracket.append(Violation(
                g6, "per-edge conditional averages bracket the average",
                observed=f"av {format_rational(Fraction(s1, sigma1))} outside "
                         f"[{format_rational(min(per_edge))}, {format_rational(max(per_edge))}]",
                expected="min edge average <= av <= max edge average",
            ))
        universe = graph.universe
        for t in terms:
            # the residual ratio t.sigma0/sigma_g lies between 1/lower_den, where
            # lower_den = 2^(l-2) + 2^(l-|N[u]|) + 2^(l-|N[v]|) + 1, and 1 - s0(G - w)/sigma_g
            # for each endpoint w; l >= |N[u]|, |N[v]| >= 2 keeps every exponent >= 0
            sizes = (2, t.closed_size_u, t.closed_size_v)
            lower_den = sum(1 << (t.union_size - c) for c in sizes) + 1
            ok = sigma_g <= t.sigma0 * lower_den and all(
                t.sigma0 + eng.scalars0(universe & ~(1 << w))[0] <= sigma_g for w in t.edge)
            if not ok:
                u, v = t.edge
                residual.append(Violation(
                    g6, "per-edge residual independent-set count sandwich",
                    observed=f"edge ({u},{v}) ratio {format_rational(Fraction(t.sigma0, sigma_g))}",
                    expected="within the closed-neighbourhood bounds",
                ))
    for g6 in sorted(good_set ^ equal_set):
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
        single_edge = build(FamilySpec("G_special", n))
        upper = []
        # every one-edge class of order n is the single edge plus isolated vertices
        if not (high.value == bound and len(high.codes) == 1
                and from_graph6(high.codes[0]).edge_count == 1):
            upper.append(Violation(
                to_graph6(single_edge),
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
    counts once).  Equality discrepancies are recorded, not raised.

    A maximum order below the first order of a suite under "all" (4 for the
    family suite, 2 for the others), or of a named claim, is refused, since
    it would check nothing.  At a positive
    ``spot_check_rate`` a sample of the trees of every order up to
    ``max_tree_order`` is spot-checked on the tree claims' own walk, with
    the DP rows their reports came from; without a tree claim no tree is
    walked.  ``spot_checked``, when given, receives the number of trees
    checked at each order."""
    if claims == "all":
        selected = ALL_CLAIMS
    else:
        selected = list(dict.fromkeys(claims))
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
    # sampled up front, so a rate outside [0, 1] is refused before any suite runs
    spots = {n: _spot_sample(n, spot_check_rate) for n in range(2, max_tree_order + 1)}
    checked = {} if spot_checked is None else spot_checked

    def tree_checks(n):
        checks, checked_at_n = _tree_claim_reports(n, spots[n])
        if spots[n]:
            checked[n] = checked_at_n
        return checks

    # each suite maps one order to its claims' (sides, violations); an
    # order's population (trees or graph classes) is walked once and dropped
    suites = {
        "tree": tree_checks,
        "graph": _graph_claim_reports,
        "ratio": _degree_two_ratio_reports,
        "family": _subdivided_star_reports,
    }
    reports, by_suite = [], {}
    for claim_id in selected:
        suite, _, population, objective = _CLAIMS[claim_id]
        if suite not in by_suite:
            orders = range(_suite_first_order(suite), maxima[suite] + 1)
            by_suite[suite] = {n: suites[suite](n) for n in orders}
        for n, checks in by_suite[suite].items():
            if claim_id in checks:
                sides, violations = checks[claim_id]
                reports.append(_report(claim_id, population, n, objective, sides, witness_cap,
                                       violations))
    return reports
