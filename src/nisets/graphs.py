"""Immutable bitset-backed simple graphs and their structural helpers.

Vertices are integers 0..n-1 drawn from a universe of at most 64 vertices.
A vertex subset is a plain int used as a bitmask, and adjacency is stored
as one mask per vertex.  This keeps every neighbourhood operation a single
bitwise instruction, and lets induced subgraphs be represented as masks
over an immutable root graph instead of materialized copies.
"""

from __future__ import annotations

from dataclasses import dataclass

MAX_VERTICES = 64


def iter_bits(mask: int):
    """Yield the indices of the set bits of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1 with bitmask adjacency.

    ``adj[v]`` is the open neighbourhood N(v).  Instances are immutable and
    hashable, so they are safe to share across workers and to use as cache
    keys.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if not 0 <= self.n <= MAX_VERTICES:
            raise ValueError(f"vertex count {self.n} outside 0..{MAX_VERTICES}")
        if len(self.adj) != self.n:
            raise ValueError("adjacency length does not match vertex count")
        universe = (1 << self.n) - 1
        for v, nb in enumerate(self.adj):
            if nb & ~universe:
                raise ValueError(f"neighbourhood of vertex {v} leaves the universe")
            if nb >> v & 1:
                raise ValueError(f"loop at vertex {v}")
            for u in iter_bits(nb):
                if not self.adj[u] >> v & 1:
                    raise ValueError(f"asymmetric edge {v}-{u}")

    @property
    def universe(self) -> int:
        return (1 << self.n) - 1

    @property
    def edge_count(self) -> int:
        return sum(nb.bit_count() for nb in self.adj) // 2

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        """Edges as (u, v) with u < v, lexicographically ordered."""
        out = []
        for u in range(self.n):
            for v in iter_bits(self.adj[u] >> (u + 1) << (u + 1)):
                out.append((u, v))
        return out


def build_graph(n: int, edges) -> Graph:
    """Construct a simple graph from an edge list.

    Duplicate edges collapse; loops and out-of-range endpoints are rejected,
    as is any order above the 64-vertex universe.
    """
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside 0..{MAX_VERTICES}")
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"loop edge ({u},{v}) not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for {n} vertices")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def components_of(adj, mask: int) -> list[int]:
    """Masks of the connected components induced by ``mask`` under the
    adjacency masks ``adj``, in order of their lowest vertex."""
    comps = []
    rest = mask
    while rest:
        comp = frontier = rest & -rest
        rest ^= comp
        while frontier:
            grow = 0
            while frontier:
                low = frontier & -frontier
                grow |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = grow & rest
            rest ^= frontier
            comp |= frontier
        comps.append(comp)
    return comps


def is_connected(g: Graph) -> bool:
    return len(components_of(g.adj, g.universe)) <= 1


def is_good_graph(g: Graph) -> bool:
    """True when the graph has an edge and every edge uv covers the whole
    vertex set with N(u) | N(v).

    Edgeless graphs (including the one-vertex graph) are not good.
    """
    universe = g.universe
    found_edge = False
    for u, v in g.edges():
        found_edge = True
        if (g.adj[u] | g.adj[v]) != universe:
            return False
    return found_edge


@dataclass(frozen=True)
class StructuralSummary:
    is_connected: bool
    is_tree: bool
    max_degree: int
    has_isolated_vertex: bool
    min_internal_degree: int | None


def structural_predicates(g: Graph) -> StructuralSummary:
    """Connectivity, tree-ness, degree extremes and the minimum degree over
    internal vertices (degree > 1); the latter is None when no vertex is
    internal."""
    degrees = [nb.bit_count() for nb in g.adj]
    internal = [d for d in degrees if d > 1]
    connected = is_connected(g)
    return StructuralSummary(
        is_connected=connected,
        is_tree=g.n >= 1 and connected and g.edge_count == g.n - 1,
        max_degree=max(degrees, default=0),
        has_isolated_vertex=any(d == 0 for d in degrees),
        min_internal_degree=min(internal) if internal else None,
    )


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Block-diagonal union; the second graph's vertices are shifted up."""
    n = g1.n + g2.n
    if n > MAX_VERTICES:
        raise ValueError(f"disjoint union of order {n} exceeds the {MAX_VERTICES}-vertex universe")
    adj = list(g1.adj) + [nb << g1.n for nb in g2.adj]
    return Graph(n, tuple(adj))


def all_pairs(n: int) -> list[tuple[int, int]]:
    """Vertex pairs (i, j), i < j, in column-major (colex) order."""
    return [(i, j) for j in range(n) for i in range(j)]


def graph_from_pair_mask(n: int, mask: int, pairs: list[tuple[int, int]] | None = None) -> Graph:
    """Graph whose edge set is the set bits of ``mask`` over colex pairs."""
    if pairs is None:
        pairs = all_pairs(n)
    adj = [0] * n
    for s in iter_bits(mask):
        i, j = pairs[s]
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return Graph(n, tuple(adj))
