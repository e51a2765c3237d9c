"""Exhaustive generation of free trees, one per isomorphism class.

The stream holds the canonical level sequences of centre-rooted trees in
decreasing order, so it is deterministic.  ``tree_segments`` gives it as
a join of rooted trees from ``RootedTables``, one array row per first root
subtree and the contiguous range of rests that may follow it, found by
sorted-array searches over the tables, not by a walk.  Tree sweeps score
these segments, and ``free_trees`` and ``level_sequences`` spell them.
An independent counting recurrence gives the number of free trees, and a
canonical key tells trees of any supported order apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .graphs import Graph, build_graph

# Largest order of the free-tree stream and of every tree sweep.  A state
# of the tree DP (``engine._join_child``) of a rooted tree of size k counts
# subsets of its k vertices or sums their sizes, so it is below k·2^k, and
# each product of a join that makes a tree of order n is one term of such a
# state, below n·2^n < 2^29 at n <= 24.  So the rooted tables hold and join
# their states exactly as int32, and a sweep's products of int64 values,
# its cross-multiplied comparisons included, stay below 2^58.
TREE_ORDER_LIMIT = 24


@dataclass(frozen=True)
class LevelSequence:
    """Depth sequence of a rooted tree in the canonical generation order."""

    levels: tuple[int, ...]

    def __post_init__(self):
        if not self.levels or self.levels[0] != 0:
            raise ValueError("level sequence must start at depth 0")
        for i in range(1, len(self.levels)):
            if not 1 <= self.levels[i] <= self.levels[i - 1] + 1:
                raise ValueError(f"invalid depth jump at position {i}")

    def to_graph(self) -> Graph:
        return levels_to_graph(self.levels)


def levels_to_graph(levels) -> Graph:
    """The tree of a valid level sequence, vertices numbered in preorder."""
    edges = []
    stack: list[int] = []
    for i, depth in enumerate(levels):
        while stack and levels[stack[-1]] >= depth:
            stack.pop()
        if stack:
            edges.append((stack[-1], i))
        stack.append(i)
    return build_graph(len(levels), edges)


def _check_order(n: int) -> None:
    if not 1 <= n <= TREE_ORDER_LIMIT:
        raise ValueError(f"order outside supported range (1..{TREE_ORDER_LIMIT})")


_PLUS_ONE = bytes(range(1, 256)) + b"\0"  # translate table: every level one deeper


def _rooted_walk(levels: bytearray):
    """``levels``, a canonical rooted level sequence, then each later one
    of its size in Beyer-Hedetniemi order down to the star, all in the one
    bytearray, updated in place.  The successor at the last vertex p off
    level 1 repeats, from p on, the stretch from the latest earlier vertex
    one level above p up to p."""
    m = len(levels)
    while True:
        yield levels
        p = len(levels.rstrip(b"\1")) - 1
        if not p:
            return
        q = levels.rfind(levels[p] - 1, 0, p)
        levels[p:] = (levels[q:p] * (m - p))[:m - p]


def _tallest(s: int, h: int) -> bytes:
    """The first rooted level sequence of size s and height at most h."""
    return bytes(range(h + 1)) + bytes([h]) * (s - 1 - h)


def _rest_start(n: int, s: int) -> bytes:
    """The first rest of size m = n - s that may follow a first subtree of
    size s: the root over k copies of the largest such subtree X and X's
    first r vertices, where (k, r) = divmod(m - 1, s).  The rests are the
    rooted trees of size m whose children are all at most X, so they run
    from it to the star."""
    m = n - s
    x = _tallest(s, min(s - 1, m - 1)).translate(_PLUS_ONE)
    k, r = divmod(m - 1, s)
    return b"\0" + x * k + x[:r]


class RootedTables:
    """The rooted trees of each size k < ``top`` that the order-``top``
    stream joins, as first subtrees of height at most min(k - 1, top - 1 - k)
    or as rests (``_rest_start``), in decreasing order down to the star:
    ``rows[k]`` holds them as bytes, k per tree, and ``tables[k]`` as a
    (rows, k) int8 array.  Along a rooted stream heights never rise, so
    each is a suffix of the stream of all rooted trees of size k, and the
    first subtrees and rests of every smaller order are suffixes of these.
    ``at_most[k][h]`` is the first row of height at most h
    (``at_most[k][-1]`` is the row count)."""

    def __init__(self, top: int):
        if not 2 <= top <= TREE_ORDER_LIMIT:
            raise ValueError(f"rooted tables need an order in 2..{TREE_ORDER_LIMIT}")
        self.top = top
        starts = {}
        for s in range(1, max(top - 1, 2)):  # the first subtree sizes (1 at order 2)
            m = top - s
            starts[s] = max(starts.get(s, b""), _tallest(s, min(s - 1, m - 1)))
            starts[m] = max(starts.get(m, b""), _rest_start(top, s))
        self.rows, self.tables, self.at_most = {}, {}, {}
        for k, start in sorted(starts.items()):
            rows = bytearray()
            for levels in _rooted_walk(bytearray(start)):
                rows += levels
            self.rows[k] = bytes(rows)
            self.tables[k] = np.frombuffer(self.rows[k], dtype=np.int8).reshape(-1, k)
            heights = self.tables[k].max(axis=1)  # never rising along the rows
            self.at_most[k] = np.searchsorted(-heights, -np.arange(k + 1)).tolist() + [len(heights)]


def tree_segments(tables: RootedTables, n: int) -> np.ndarray:
    """The free trees of order n, in stream order, as an (S, 4) int32 array
    of segments (s, t, a, b): the root, its first subtree T of size s, row t
    of ``tables.rows[s]``, one level down, then the children of each rest of
    size m = n - s in rows a to b - 1 of ``tables.rows[m]``.  ``tables``
    serve the orders 2 to ``tables.top``, and no other.  No segment is empty.

    The sequences are centre-rooted (Wright, Richmond, Odlyzko and McKay,
    SIAM J. Comput. 15, 1986) and strictly decreasing.  A rest R, a rooted
    tree whose children are all at most T, makes a centre-rooted tree when
    R is taller than T, or as tall with s < m, or as tall, as large and
    R >= T.  So each first subtree, of height at most min(s - 1, m - 1), is
    joined to a contiguous range of its size's rests: heights never rise
    along a rooted stream, so from the first rest whose first child is at
    most T come the rests taller than T, then those as tall, then the
    shorter.  One ``searchsorted`` per size finds its ranges in the rows
    read in place, reversed, as ascending 'S' bytes, which ignore trailing
    NULs (safe: only a row's first byte, the root, is 0), and one stable
    sort of the first subtrees, decreasing, merges the sizes in stream order."""
    if not 2 <= n <= tables.top:
        raise ValueError(f"tables for order {tables.top} serve orders 2..{tables.top}, not {n}")
    segments = []
    for s in range(1, max(n - 1, 2)):  # the first subtree sizes (1 at order 2, the edge)
        m = n - s
        rests = tables.tables[m].view(f"S{m}")[::-1, 0]  # ascending, not copied
        rest = _rest_start(n, s)  # the order-n rests are the suffix from it
        start = len(rests) - np.searchsorted(rests, rest) - 1
        if tables.rows[m][start * m:start * m + m] != rest:
            raise ValueError(f"the size-{m} rooted table misses the order-{n} rests")
        lo = tables.at_most[s][min(s - 1, m - 1)]
        first = tables.tables[s][lo:]
        height, at_most = first.max(axis=1), np.array(tables.at_most[m])
        if s < m:
            b = at_most[height - 1]
        elif s > m:
            b = at_most[height]
        else:  # of the rests as tall as T, those at least T
            b = np.clip(len(rests) - np.searchsorted(rests, first.view(f"S{m}")[:, 0]),
                        at_most[height], at_most[height - 1])
        live = np.flatnonzero(b > start)  # the first subtrees that may take a rest
        first, b = first[live], b[live]
        # a row's first child is at most T exactly when the row sorts below
        # the root, T as a child, then a vertex on level 2, both NUL-padded
        key = np.full((len(first), s + 2), 2, dtype=np.int8)
        key[:, 0], key[:, 1:-1] = 0, first + 1
        key = key.view(f"S{s + 2}")[:, 0]
        a = np.maximum(start, len(rests) - np.searchsorted(rests, key))
        keep = np.flatnonzero(a < b)
        segments.append(np.stack([np.full(len(keep), s), lo + live[keep], a[keep], b[keep]],
                                 axis=1).astype(np.int32))
    bounds = np.cumsum([0] + [len(part) for part in segments])
    segments = np.concatenate(segments)
    firsts = np.zeros((len(segments), n), dtype=np.int8)  # each T, zero-padded
    for s, lo, hi in zip(range(1, max(n - 1, 2)), bounds, bounds[1:]):
        firsts[lo:hi, :s] = tables.tables[s][segments[lo:hi, 1]]
    order = np.argsort(firsts.view(f"S{n}")[:, 0], kind="stable")
    del firsts  # freed before the sorted copy is made: 14.7 MB at order 24
    return segments[order[::-1]]


def _stream(n: int):
    """The level sequences of the free trees of order n, in stream order,
    as lists: the trees of ``tree_segments`` over the order's own tables,
    each segment's root and first subtree spelled once."""
    _check_order(n)
    if n == 1:
        yield [0]
        return
    tables = RootedTables(n)
    for s, t, a, b in tree_segments(tables, n).tolist():
        m = n - s
        head, rests = b"\0" + tables.rows[s][t * s:t * s + s].translate(_PLUS_ONE), tables.rows[m]
        for r in range(a * m, b * m, m):
            yield list(head + rests[r + 1:r + m])


def level_sequences(n: int):
    """Canonical level sequences of all free trees of order n, in stream order."""
    for levels in _stream(n):
        yield LevelSequence(tuple(levels))


def free_trees(n: int):
    """All free trees of order n, exactly once up to isomorphism."""
    for levels in _stream(n):
        yield levels_to_graph(levels)


@lru_cache(maxsize=None)
def _rooted_tree_count(n: int) -> int:
    if n < 2:
        return n
    value = 0
    for j in range(1, n):
        for d in range(1, n):
            if j % d == 0:
                value += d * _rooted_tree_count(d) * _rooted_tree_count(n - j)
    return value // (n - 1)


def count_free_trees(n: int) -> int:
    """Number of free trees of order n (matches the stream's cardinality)."""
    _check_order(n)
    paired = sum(_rooted_tree_count(k) * _rooted_tree_count(n - k) for k in range(n + 1))
    if n % 2 == 0:
        paired -= _rooted_tree_count(n // 2)
    return _rooted_tree_count(n) - paired // 2


def _centers(adj: list[list[int]]) -> list[int]:
    n = len(adj)
    if n <= 2:
        return list(range(n))
    degree = [len(a) for a in adj]
    layer = [v for v in range(n) if degree[v] == 1]
    remaining = n
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            for u in adj[v]:
                degree[u] -= 1
                if degree[u] == 1:
                    nxt.append(u)
        layer = nxt
    return layer


def _rooted_key(adj: list[list[int]], root: int) -> str:
    # iterative post-order; children keys sorted to canonicalize
    key: dict[int, str] = {}
    stack = [(root, -1, False)]
    while stack:
        v, parent, expanded = stack.pop()
        if expanded:
            parts = sorted(key[u] for u in adj[v] if u != parent)
            key[v] = "(" + "".join(parts) + ")"
        else:
            stack.append((v, parent, True))
            for u in adj[v]:
                if u != parent:
                    stack.append((u, v, False))
    return key[root]


def tree_canonical_key(g: Graph) -> str:
    """Isomorphism-complete canonical key for trees of any supported order."""
    adj = [[u for u in range(g.n) if g.adj[v] >> u & 1] for v in range(g.n)]
    if g.n == 0:
        raise ValueError("canonical key undefined for the empty graph")
    return min(_rooted_key(adj, c) for c in _centers(adj))

