"""Brute-force ground truth: iterate all 2^n vertex subsets and count the
edges each one induces.

Deliberately independent of the recursive engine so the two can be checked
against each other.  One table per graph, built by doubling over the
vertices, keys every subset by its induced-edge count and size; one
histogram of the keys gives the per-size counts at every level.  Several
graphs of one order share a pass: their tables are the rows of one array,
each row's keys offset into its own range, so one doubling and one
histogram serve them all.  Orders above 24 are refused.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import NisSummary
from .graphs import Graph

ORACLE_ORDER_LIMIT = 24
_CHUNK = 1 << 16  # subsets per numpy pass; bounds the temporaries beside the table
_PASS = 1 << 18  # keys per pass of graphs; one graph from order 18 up


@dataclass(frozen=True)
class OracleProfile:
    """Counts of subsets inducing exactly ``induced_edges`` edges, by size."""

    induced_edges: int
    by_size: tuple[int, ...]

    @property
    def sigma(self) -> int:
        return sum(self.by_size)

    @property
    def total(self) -> int:
        return sum(k * c for k, c in enumerate(self.by_size))


def _check_order(g: Graph) -> None:
    if g.n > ORACLE_ORDER_LIMIT:
        raise ValueError(f"order {g.n} exceeds oracle limit ({ORACLE_ORDER_LIMIT})")


def oracle_profiles_of(graphs) -> list[tuple[OracleProfile, ...]]:
    """``oracle_profiles`` of each of a sequence of graphs of one order,
    taken ``_PASS`` >> n graphs (at least one) to a pass."""
    graphs = list(graphs)
    for g in graphs:
        _check_order(g)
        if g.n != graphs[0].n:
            raise ValueError(f"graphs of orders {graphs[0].n} and {g.n} in one batch")
    step = max(1, _PASS >> graphs[0].n) if graphs else 1
    return [profiles for start in range(0, len(graphs), step)
            for profiles in _oracle_pass(graphs[start:start + step])]


def _oracle_pass(graphs) -> list[tuple[OracleProfile, ...]]:
    """The profiles of graphs of one order from one table of their keys."""
    n, count, width = graphs[0].n, len(graphs), graphs[0].n + 1
    edges = [g.edge_count for g in graphs]
    size = (max(edges) + 1) * width
    # key[g, S] = size * g + width * edges(S) + |S|.  For S inside vertices
    # 0..b-1, adding b gains |N(b) & S| edges and one vertex.  A lone
    # graph's largest key, K24's, is 276 * 25 + 24 = 6924, so uint16 holds
    # it; the dtype is the least that holds the pass's largest key.
    key = np.zeros((count, 1 << n), dtype=np.min_scalar_type(count * size - 1))
    key[:, 0] = np.arange(0, count * size, size)
    # columns[b] is the (count, 1) column of the graphs' N(b)
    columns = np.array([g.adj for g in graphs], dtype=np.uint32).reshape(count, n).T[:, :, None]
    for b in range(n):
        high = 1 << b
        for start in range(0, high, _CHUNK):
            stop = min(start + _CHUNK, high)
            subsets = np.arange(start, stop, dtype=np.uint32)
            added = np.multiply(np.bitwise_count(subsets & columns[b]), width, dtype=key.dtype)
            added += 1
            np.add(key[:, start:stop], added, out=key[:, high + start:high + stop])
    flat = key.reshape(-1)
    hist = sum(np.bincount(flat[s:s + _CHUNK], minlength=count * size)
               for s in range(0, flat.size, _CHUNK))
    tables = hist.reshape(count, -1, width).tolist()
    return [tuple(OracleProfile(level, tuple(row)) for level, row in enumerate(rows[:e + 1]))
            for e, rows in zip(edges, tables)]


def oracle_profiles(g: Graph) -> tuple[OracleProfile, ...]:
    """Exact per-size subset counts at every level 0..edge_count, from one
    enumeration of the 2^n subsets."""
    [profiles] = oracle_profiles_of([g])
    return profiles


def oracle_profile(g: Graph, level: int) -> OracleProfile:
    """Exact per-size counts of subsets inducing exactly ``level`` edges."""
    _check_order(g)
    if level < 0:
        raise ValueError("induced-edge count must be non-negative")
    if level > g.edge_count:
        return OracleProfile(level, (0,) * (g.n + 1))
    return oracle_profiles(g)[level]


def oracle_summary(g: Graph, level: int) -> NisSummary:
    """(count, size-sum, average) computed purely by subset enumeration."""
    profile = oracle_profile(g, level)
    return NisSummary.from_counts(profile.sigma, profile.total)
