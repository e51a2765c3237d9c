"""Brute-force ground truth: iterate all 2^n vertex subsets and count the
edges each one induces.

Deliberately independent of the recursive engine so the two can be checked
against each other.  One table, built by doubling over the vertices, keys
every subset by its induced-edge count and size; one histogram of the keys
gives the per-size counts at every level.  Orders above 24 are refused.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import NisSummary
from .graphs import Graph

ORACLE_ORDER_LIMIT = 24
_CHUNK = 1 << 16  # subsets per numpy pass; bounds the temporaries beside the table


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


def oracle_profiles(g: Graph) -> tuple[OracleProfile, ...]:
    """Exact per-size subset counts at every level 0..edge_count, from one
    enumeration of the 2^n subsets."""
    _check_order(g)
    n, adj, width = g.n, g.adj, g.n + 1
    # key[S] = width * edges(S) + |S|.  For S inside vertices 0..b-1, adding
    # b gains |N(b) & S| edges and one vertex.  The largest key, K24's, is
    # 276 * 25 + 24 = 6924, so uint16 holds every key.
    key = np.zeros(1 << n, dtype=np.uint16)
    for b in range(n):
        high = 1 << b
        for start in range(0, high, _CHUNK):
            stop = min(start + _CHUNK, high)
            subsets = np.arange(start, stop, dtype=np.uint32)
            gained = np.bitwise_count(subsets & np.uint32(adj[b])).astype(np.uint16)
            key[high + start:high + stop] = key[start:stop] + gained * width + 1
    size = (g.edge_count + 1) * width
    hist = sum(np.bincount(key[s:s + _CHUNK], minlength=size) for s in range(0, 1 << n, _CHUNK))
    rows = hist.reshape(-1, width).tolist()
    return tuple(OracleProfile(level, tuple(row)) for level, row in enumerate(rows))


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


def _profile_loop(g: Graph, level: int) -> list[int]:
    """One level by a plain loop over the subsets; the tests' reference."""
    n, adj = g.n, g.adj
    doubled = 2 * level
    counts = [0] * (n + 1)
    for s in range(1 << n):
        acc = 0
        rest = s
        while rest:
            low = rest & -rest
            acc += (adj[low.bit_length() - 1] & s).bit_count()
            rest ^= low
        if acc == doubled:
            counts[s.bit_count()] += 1
    return counts


def edge_level_counts(g: Graph) -> list[int]:
    """sigma_l for every induced-edge level l; the entries sum to 2^n."""
    return [profile.sigma for profile in oracle_profiles(g)]
