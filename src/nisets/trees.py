"""Exhaustive generation of free trees, one per isomorphism class.

The stream holds the canonical level sequences of centre-rooted trees in
decreasing order, so it is deterministic.  ``tree_segments`` walks it as a
join of rooted trees from ``RootedTables``: each first root subtree is
paired with a contiguous range of the rests that may follow it, without
copying a row.  Tree sweeps score these segments, and ``free_trees`` and
``level_sequences`` spell each tree of them.
An independent counting recurrence gives the number of free trees, and a
canonical key tells trees of any supported order apart.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import count

import numpy as np

from .graphs import Graph, build_graph

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


def level_parents(levels: np.ndarray) -> np.ndarray:
    """Parent of every vertex of a (B, n) block of level sequences, as a
    (B, n) index array; the parent of vertex i is the latest earlier vertex
    one level up, and the root's entry is 0."""
    b, n = levels.shape
    trees = np.arange(b)
    last = np.zeros((b, n + 1), dtype=np.intp)  # last vertex seen at each depth
    parent = np.zeros((b, n), dtype=np.intp)
    for i in range(1, n):
        depth = levels[:, i]
        parent[:, i] = last[trees, depth - 1]
        last[trees, depth] = i
    return parent


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

    def joined(self, n: int, s: int, t: int, r: int) -> list[int]:
        """The level sequence of the order-n tree made of row r of size
        n - s with row t of size s, one level down, as its root's first
        subtree."""
        m = n - s
        first, rest = self.rows[s][t * s:t * s + s], self.rows[m][r * m:r * m + m]
        return list(b"\0" + first.translate(_PLUS_ONE) + rest[1:])


def tree_segments(tables: RootedTables, n: int):
    """The free trees of order n, in stream order, as segments (s, t, a, b):
    the root, its first subtree T of size s, row t of ``tables.rows[s]``, one
    level down, then the children of each of the rests of size m = n - s in
    rows a to b - 1 of ``tables.rows[m]``.  ``tables`` may be built for any
    order from n up; an order below 2 or above theirs is refused.  Segments
    are never empty.

    The sequences are centre-rooted (Wright, Richmond, Odlyzko and McKay,
    SIAM J. Comput. 15, 1986) and strictly decreasing.  A rest R, a rooted
    tree whose children are all at most T, makes a centre-rooted tree when
    R is taller than T, or as tall with s < m, or as tall, as large and
    R >= T.  So the first subtrees, of height at most min(s - 1, m - 1), are
    merged in decreasing order across sizes, and each is joined to a
    contiguous range of its size's rests: heights never rise along a rooted
    stream, so from the first rest whose first child is at most T come the
    rests taller than T, then those as tall, then the shorter."""
    if not 2 <= n <= tables.top:
        raise ValueError(f"tables for order {tables.top} serve orders 2..{tables.top}, not {n}")
    if n == 2:  # the edge: one vertex below another
        yield 1, 0, 0, 1
        return
    starts, firsts = {}, []
    for s in range(1, n - 1):
        m = n - s
        # the order-n rests are the suffix from their first row
        rest, rests = _rest_start(n, s), tables.rows[m]
        starts[m] = a = bisect_left(range(len(rests) // m), True,
                                    key=lambda i: rests[i * m:i * m + m] <= rest)
        if rests[a * m:a * m + m] != rest:
            raise ValueError(f"the size-{m} rooted table misses the order-{n} rests")
        lo = tables.at_most[s][min(s - 1, m - 1)]
        firsts.append(zip(map(bytes, tables.tables[s][lo:]), count(lo)))
    for first, t in heapq.merge(*firsts, reverse=True):
        s, height = len(first), max(first)
        m = n - s
        rows, at_most = tables.rows[m], tables.at_most[m]
        # a row's first child is at most T exactly when the row sorts
        # below the root, T as a child, then a vertex on level 2
        key, a = b"\0" + first.translate(_PLUS_ONE) + b"\2", starts[m]
        while rows[a * m:a * m + m] >= key:
            a += 1
        starts[m] = a
        if s < m:
            b = at_most[height - 1]
        elif s > m:
            b = at_most[height]
        else:  # of the rests as tall as T, those at least T
            lo = at_most[height]
            b = lo + bisect_left(range(lo, at_most[height - 1]), True,
                                 key=lambda i: rows[i * m:i * m + m] < first)
        if a < b:
            yield s, t, a, b


def _stream(n: int):
    """The level sequences of the free trees of order n, in stream order,
    as lists: the trees of ``tree_segments`` over the order's own tables,
    each segment's root and first subtree spelled once (``joined``)."""
    _check_order(n)
    if n == 1:
        yield [0]
        return
    tables = RootedTables(n)
    for s, t, a, b in tree_segments(tables, n):
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

