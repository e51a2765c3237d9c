"""Exhaustive generation of free trees, one per isomorphism class.

The stream holds the canonical level sequences of centre-rooted trees in
decreasing order, so it is deterministic.  ``tree_blocks`` builds it as a
join: each first root subtree, walked by the rooted successor algorithm,
is paired with a contiguous range of a table of the rests that may follow
it, and the rows are copied into int8 blocks, which every consumer reads.
An independent counting recurrence gives the number of free trees, and a
canonical key tells trees of any supported order apart.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .graphs import Graph, build_graph

TREE_ORDER_LIMIT = 24
# Trees per block of the stream.  The batched tree DP's states take 64·n
# bytes per tree, 1.1 MB a block at order 17; blocks of 2048 and more raised
# a one-worker sweep's peak RSS by a further 2.5 MB and more.
TREE_BLOCK = 1024


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


class _Rests:
    """The rests of size m = n - s that may follow a first subtree of size
    s: the rooted trees whose children are all at most the largest such
    subtree X, in decreasing order, as the rows of an int8 table.  The
    first is the root over k copies of X and X's first r vertices, where
    (k, r) = divmod(m - 1, s).  ``at_most[t]`` is the first row of height
    at most t (``at_most[-1]`` is the row count), and ``start`` is the
    first row whose first child is at most the subtree last joined."""

    def __init__(self, n: int, s: int):
        m = n - s
        x = _tallest(s, min(s - 1, m - 1)).translate(_PLUS_ONE)
        k, r = divmod(m - 1, s)
        self.rows = bytearray()
        for levels in _rooted_walk(bytearray(b"\0" + x * k + x[:r])):
            self.rows += levels
        self.table = np.frombuffer(self.rows, dtype=np.int8).reshape(-1, m)
        heights = self.table.max(axis=1)  # never rising along the rows
        self.at_most = np.searchsorted(-heights, -np.arange(m + 1)).tolist() + [len(heights)]
        self.start = 0


def tree_blocks(n: int):
    """Canonical level sequences of the free trees of order n, in stream
    order, as (B, n) int8 blocks of ``TREE_BLOCK`` rows (the last may be
    shorter).  The sequences are centre-rooted (Wright, Richmond, Odlyzko
    and McKay, SIAM J. Comput. 15, 1986) and strictly decreasing.

    Each is the root, its first subtree T of size s one level down, then
    the children of a rest R of size m = n - s, a rooted tree whose
    children are all at most T.  It is centre-rooted when R is taller than
    T, or as tall with s < m, or as tall, as large and R >= T.  So the
    first subtrees, of height at most min(s - 1, m - 1), are merged in
    decreasing order across sizes, and each is joined to a contiguous
    range of its size's rest table (``_Rests``): heights never rise along
    a rooted stream, so from the first rest whose first child is at most T
    come the rests taller than T, then those as tall, then the shorter."""
    _check_order(n)
    if n <= 2:
        yield np.arange(n, dtype=np.int8).reshape(1, n)
        return
    tables: dict[int, _Rests] = {}
    block, fill = np.empty((TREE_BLOCK, n), dtype=np.int8), 0
    firsts = [map(bytes, _rooted_walk(bytearray(_tallest(s, min(s - 1, n - 1 - s)))))
              for s in range(1, n - 1)]
    for first in heapq.merge(*firsts, reverse=True):
        s, t = len(first), max(first)
        m = n - s
        rests = tables.get(s)
        if rests is None:
            rests = tables[s] = _Rests(n, s)
        rows, child = rests.rows, first.translate(_PLUS_ONE)
        # a row's first child is at most T exactly when the row sorts
        # below the root, T as a child, then a vertex on level 2
        key, a = b"\0" + child + b"\2", rests.start
        while rows[a * m:a * m + m] >= key:
            a += 1
        rests.start = a
        if s < m:
            b = rests.at_most[t - 1]
        elif s > m:
            b = rests.at_most[t]
        else:  # of the rests as tall as T, those at least T
            lo = rests.at_most[t]
            b = lo + bisect_left(range(lo, rests.at_most[t - 1]), True,
                                 key=lambda i: rows[i * m:i * m + m] < first)
        head = np.frombuffer(b"\0" + child, dtype=np.int8)
        while a < b:
            take = min(b - a, TREE_BLOCK - fill)
            block[fill:fill + take, :s + 1] = head
            block[fill:fill + take, s + 1:] = rests.table[a:a + take, 1:]
            fill, a = fill + take, a + take
            if fill == TREE_BLOCK:
                yield block
                block, fill = np.empty((TREE_BLOCK, n), dtype=np.int8), 0
    if fill:
        yield block[:fill]


def level_sequences(n: int):
    """Canonical level sequences of all free trees of order n, in stream order."""
    for block in tree_blocks(n):
        for levels in block.tolist():
            yield LevelSequence(tuple(levels))


def free_trees(n: int):
    """All free trees of order n, exactly once up to isomorphism."""
    for block in tree_blocks(n):
        for levels in block.tolist():
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

