"""Exhaustive generation of free trees, one per isomorphism class.

The stream holds the canonical level sequences of centre-rooted trees in
decreasing order, so it is deterministic.  ``tree_segments`` gives it as
a join of rooted trees from ``RootedTables``, one array row per first root
subtree and the contiguous range of rests that may follow it, found by
sorted-array searches over the tables.  The tables are built by the same
join, each size from smaller ones, so no walk runs.  Tree sweeps score
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


def _first_rests(table: np.ndarray, first: np.ndarray) -> np.ndarray:
    """For each first subtree T, a row of the (B, s) int8 array ``first``,
    the first row of ``table``, rooted trees of one size in decreasing
    order, whose first child is at most T.  Such a row sorts below the
    root, T as a child, then a vertex on level 2, both NUL-padded, so those
    rows are a suffix of the table, found by one search of those keys.
    The rows are searched in place, reversed, as ascending 'S' bytes, which
    ignore trailing NULs (safe: only a row's first byte, the root, is 0)."""
    m, s = table.shape[1], first.shape[1]
    key = np.full((len(first), s + 2), 2, dtype=np.int8)
    key[:, 0], key[:, 1:-1] = 0, first + 1
    rows = table.view(f"S{m}")[::-1, 0]  # ascending, not copied
    return len(rows) - np.searchsorted(rows, key.view(f"S{s + 2}")[:, 0])


def _merged(tables: dict, parts: list, width: int) -> np.ndarray:
    """The segments (s, t, a, b) of ``parts``, (S, 4) int32 arrays of one
    first subtree size s each, in ascending s, as one array in decreasing
    order of their first subtrees T, row t of ``tables[s]``, by one stable
    sort of each T zero-padded to ``width`` (a tree sorts above every
    proper prefix of it, as the trees they make do).  A segment's rests
    come in decreasing order, so the segments come in the order of the
    trees they make.  ``parts`` is emptied."""
    segments = np.concatenate(parts)
    parts.clear()  # freed before the sort's copies are made: 9.8 MB at order 24
    firsts = np.zeros((len(segments), width), dtype=np.int8)
    bounds = np.searchsorted(segments[:, 0], range(1, width + 1))
    for s, lo, hi in zip(range(1, width), bounds, bounds[1:]):
        firsts[lo:hi, :s] = tables[s][segments[lo:hi, 1]]
    order = np.argsort(firsts.view(f"S{width}")[:, 0], kind="stable")
    del firsts  # freed before the sorted copy is made: 14.7 MB at order 24
    return segments[order[::-1]]


class RootedTables:
    """The rooted trees of each size k < ``top`` that the order-``top``
    stream and its sweep tables join: ``tables[k]`` holds those whose
    children are all at most the path on min(k - 1, top - k) vertices, as
    a (rows, k) int8 array of level sequences in decreasing order, down to
    the star.  For k <= top/2 that is every rooted tree of size k, and the
    rows of a smaller top are a suffix of these.  ``at_most[k][h]`` is the
    first row of height at most h (``at_most[k][-1]`` is the row count),
    heights never rising along the rows.

    Each size is joined from smaller ones as the free trees are
    (``tree_segments``): a row X of size k is its first child C, of size c,
    one level down below the root of its remainder R' (the root with X's
    other children), a tree of size k - c whose first child is at most C.
    ``joins[k]`` holds the rows of size k as segments (c, t, a, b): C is
    row t of ``tables[c]``, one of those at most the path P of size k's
    bound, and R' runs over rows a to b - 1 of ``tables[k - c]``, the
    suffix ``_first_rests`` finds; ``_merged`` puts the segments in row
    order.  The rule is closed under the join: C <= P has children at most
    the path one shorter, inside size c's bound, and R''s children are at
    most C, inside size (k - c)'s bound.  A free tree's first subtree and
    its rests at any order n <= ``top`` meet the same bounds."""

    def __init__(self, top: int):
        if not 2 <= top <= TREE_ORDER_LIMIT:
            raise ValueError(f"rooted tables need an order in 2..{TREE_ORDER_LIMIT}")
        self.top = top
        self.tables, self.joins, self.at_most = {1: np.zeros((1, 1), dtype=np.int8)}, {}, {}
        for k in range(2, top):
            path = bytes(range(min(k - 1, top - k)))
            parts = []
            for c in range(1, k):  # every C takes a rest: at least the star
                table, rests = self.tables[c], self.tables[k - c]
                lo = len(table) - np.searchsorted(table.view(f"S{c}")[::-1, 0], path, "right")
                t = np.arange(lo, len(table))
                parts.append(np.stack([np.full_like(t, c), t, _first_rests(rests, table[lo:]),
                                       np.full_like(t, len(rests))], axis=1, dtype=np.int32))
            self.joins[k] = joins = _merged(self.tables, parts, k)
            sizes, t, a, b = joins.T
            counts = b - a
            sizes, t = np.repeat(sizes, counts), np.repeat(t, counts)
            rests = np.arange(len(sizes)) + np.repeat(a + counts - np.cumsum(counts), counts)
            rows = np.zeros((len(sizes), k), dtype=np.int8)
            for c in range(1, k):
                at = np.flatnonzero(sizes == c)
                rows[at, 1:c + 1] = self.tables[c][t[at]] + 1
                rows[at, c + 1:] = self.tables[k - c][rests[at], 1:]
            self.tables[k] = rows
        for k, table in self.tables.items():
            heights = table.max(axis=1)
            self.at_most[k] = np.searchsorted(-heights, -np.arange(k + 1)).tolist() + [len(heights)]


def tree_segments(tables: RootedTables, n: int) -> np.ndarray:
    """The free trees of order n, in stream order, as an (S, 4) int32 array
    of segments (s, t, a, b): the root, its first subtree T of size s, row t
    of ``tables.tables[s]``, one level down, then the children of each rest
    of size m = n - s in rows a to b - 1 of ``tables.tables[m]``.
    ``tables`` serve the orders 2 to ``tables.top``, and no other.  No
    segment is empty.

    The sequences are centre-rooted (Wright, Richmond, Odlyzko and McKay,
    SIAM J. Comput. 15, 1986) and strictly decreasing.  A rest R, a rooted
    tree whose children are all at most T, makes a centre-rooted tree when
    R is taller than T, or as tall with s < m, or as tall, as large and
    R >= T.  So each first subtree, of height at most min(s - 1, m - 1)
    (m - 2 when s > m), is joined to a contiguous range of its size's
    rows: from the first whose first child is at most T (``_first_rests``)
    come the rests taller than T, then those as tall, then the shorter.
    ``_merged`` puts the sizes in stream order, as for the rooted tables'
    own joins."""
    if not 2 <= n <= tables.top:
        raise ValueError(f"tables for order {tables.top} serve orders 2..{tables.top}, not {n}")
    parts = []
    for s in range(1, max(n - 1, 2)):  # the first subtree sizes (1 at order 2, the edge)
        m = n - s
        lo = tables.at_most[s][min(s - 1, m - 1 - (s > m))]
        first = tables.tables[s][lo:]
        height, at_most = first.max(axis=1), np.array(tables.at_most[m])
        if s < m:
            b = at_most[height - 1]
        elif s > m:
            b = at_most[height]
        else:  # of the rests as tall as T, those at least T
            rests = tables.tables[m].view(f"S{m}")[::-1, 0]
            b = np.clip(len(rests) - np.searchsorted(rests, first.view(f"S{m}")[:, 0]),
                        at_most[height], at_most[height - 1])
        a = _first_rests(tables.tables[m], first)
        keep = np.flatnonzero(a < b)
        parts.append(np.stack([np.full(len(keep), s), lo + keep, a[keep], b[keep]], axis=1,
                              dtype=np.int32))
    return _merged(tables.tables, parts, n)


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
        head = [0, *(tables.tables[s][t] + 1).tolist()]
        for rest in tables.tables[n - s][a:b, 1:].tolist():
            yield head + rest


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

