"""Exhaustive generation of free trees, one per isomorphism class.

Trees are produced by the classic successor algorithm on canonical level
sequences of centre-rooted trees (constant amortized work per tree), so the
stream order is deterministic.  ``tree_blocks`` walks one bytearray in
place, each step a few C-level scans and slice assignments, and cuts the
stream into int8 blocks, which every consumer reads.  An independent
counting recurrence gives the number of free trees, and a canonical key
tells trees of any supported order apart.
"""

from __future__ import annotations

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


def tree_blocks(n: int):
    """Canonical level sequences of all free trees of order n, in stream
    order, as (B, n) int8 blocks of ``TREE_BLOCK`` rows (the last may be
    shorter).  One bytearray walks the rooted sequences in place (Wright,
    Richmond, Odlyzko and McKay, SIAM J. Comput. 15, 1986), each step a few
    C-level scans; the successor at position p repeats, from p on, the
    stretch from the latest earlier vertex one level above p up to p.  A
    sequence is centre-rooted unless its first root subtree is taller than
    the rest, or as tall and larger, or as tall, as large and later read
    from its own root; the walk then jumps past every sequence sharing
    that first subtree."""
    _check_order(n)
    if n <= 2:
        yield np.arange(n, dtype=np.int8).reshape(1, n)
        return
    levels = bytearray(range(n // 2 + 1)) + bytearray(range(1, (n + 1) // 2))
    rows, full = bytearray(), TREE_BLOCK * n
    while True:
        cut = levels.find(1, 2) % (n + 1)  # the root's second child, n if none
        # the first subtree against the rest: heights, sizes (cut - 1 against
        # n - cut + 1), then the sequences, both read from their own roots
        left, right = max(levels[1:cut]) - 1, max(levels[cut:], default=0)
        if left > right or left == right and (
                2 * cut > n + 2 or 2 * cut == n + 2
                and levels[2:cut] > levels[cut:].translate(_PLUS_ONE)):
            p = cut - 1
            top = levels[p]
            q = levels.rfind(top - 1, 0, p)
            levels[p:] = (levels[q:p] * ((n - p) // (p - q) + 1))[:n - p]
            if top > 2:
                height = max(levels[1:levels.find(1, 2) % (n + 1)])
                levels[n - height:] = range(1, height + 1)
        rows += levels
        if len(rows) == full:
            yield np.frombuffer(rows, dtype=np.int8).reshape(-1, n)
            rows = bytearray()
        p = len(levels.rstrip(b"\1")) - 1  # the last vertex off level 1
        if not p:
            break
        q = levels.rfind(levels[p] - 1, 0, p)
        levels[p:] = (levels[q:p] * ((n - p) // (p - q) + 1))[:n - p]
    if rows:
        yield np.frombuffer(rows, dtype=np.int8).reshape(-1, n)


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

