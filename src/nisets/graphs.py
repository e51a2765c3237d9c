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
CANONICAL_ORDER_LIMIT = 10


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

    def max_degree(self) -> int:
        return max((nb.bit_count() for nb in self.adj), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """Edges as (u, v) with u < v, lexicographically ordered."""
        out = []
        for u in range(self.n):
            for v in iter_bits(self.adj[u] >> (u + 1) << (u + 1)):
                out.append((u, v))
        return out

    def closed(self, v: int) -> int:
        """Closed neighbourhood N[v] as a mask."""
        return self.adj[v] | (1 << v)

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range 0..{self.n - 1}")


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


def closed_neighborhood_union(g: Graph, u: int, v: int, *, closed: bool = True) -> int:
    """N[u] | N[v] (closed) or N(u) | N(v) (open) as a mask.

    For an edge uv the two sets coincide, since each endpoint lies in the
    other's open neighbourhood.
    """
    g._check_vertex(u)
    g._check_vertex(v)
    if u == v:
        raise ValueError("neighbourhood union requires two distinct vertices")
    out = g.adj[u] | g.adj[v]
    if closed:
        out |= (1 << u) | (1 << v)
    return out


def induced(g: Graph, keep: int) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced by the mask ``keep``.

    Kept vertices are relabelled contiguously in increasing order; the
    returned tuple maps each new index to its original vertex.
    """
    if keep & ~g.universe:
        raise ValueError("mask leaves the vertex universe")
    old = list(iter_bits(keep))
    pos = {v: i for i, v in enumerate(old)}
    adj = []
    for v in old:
        nb = 0
        for u in iter_bits(g.adj[v] & keep):
            nb |= 1 << pos[u]
        adj.append(nb)
    return Graph(len(old), tuple(adj)), tuple(old)


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


def component_masks(g: Graph, mask: int | None = None) -> list[int]:
    """Masks of the connected components of the subgraph induced by ``mask``."""
    return components_of(g.adj, g.universe if mask is None else mask)


def is_connected(g: Graph) -> bool:
    return len(component_masks(g)) <= 1


def is_tree(g: Graph) -> bool:
    return g.n >= 1 and is_connected(g) and g.edge_count == g.n - 1


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


def delta_bounds(g: Graph) -> tuple[int, int]:
    """(min, max) of |N(u) | N(v)| over the edges of the graph."""
    sizes = [(g.adj[u] | g.adj[v]).bit_count() for u, v in g.edges()]
    if not sizes:
        raise ValueError("neighbourhood-union bounds undefined for edgeless graph")
    return min(sizes), max(sizes)


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


def relabel(g: Graph, perm) -> Graph:
    """Graph with vertex v renamed to perm[v]."""
    adj = [0] * g.n
    for v in range(g.n):
        nb = 0
        for u in iter_bits(g.adj[v]):
            nb |= 1 << perm[u]
        adj[perm[v]] = nb
    return Graph(g.n, tuple(adj))


def _twin_of_any(g: Graph, w: int, tried: list[int]) -> bool:
    # u and w are interchangeable whenever their neighbourhoods agree away
    # from the pair itself; swapping them is then an automorphism.
    aw = g.adj[w]
    for u in tried:
        au = g.adj[u]
        if au == aw or (au ^ aw) == (1 << u) | (1 << w):
            return True
    return False


def canonical_code(g: Graph) -> bytes:
    """Order-invariant encoding: equal codes exactly for isomorphic graphs.

    Minimizes the column-wise upper-triangle adjacency encoding over all
    vertex orderings, pruning orderings that cannot stay minimal and
    skipping interchangeable (twin) candidates.  Limited to small orders.
    """
    n = g.n
    if n > CANONICAL_ORDER_LIMIT:
        raise ValueError(
            f"order too large for canonicalization (limit {CANONICAL_ORDER_LIMIT})"
        )
    if n <= 1:
        return bytes([n])

    adj = g.adj
    best: list[int] | None = None
    order = [0] * n
    cols = [0] * (n - 1)

    def extend(pos: int, used: int) -> None:
        nonlocal best
        if pos == n:
            if best is None or cols < best:
                best = cols.copy()
            return
        # Column value of candidate w at this position, earlier rows first.
        scored: dict[int, list[int]] = {}
        for w in range(n):
            if used >> w & 1:
                continue
            col = 0
            aw = adj[w]
            for i in range(pos):
                col = (col << 1) | (aw >> order[i] & 1)
            scored.setdefault(col, []).append(w)
        cmin = min(scored)
        if best is not None:
            prefix = best[: pos - 1]
            if cols[: pos - 1] > prefix:
                return
            if cols[: pos - 1] == prefix and cmin > best[pos - 1]:
                return
        tried: list[int] = []
        for w in scored[cmin]:
            if _twin_of_any(g, w, tried):
                continue
            tried.append(w)
            order[pos] = w
            cols[pos - 1] = cmin
            extend(pos + 1, used | (1 << w))

    for start in range(n):
        order[0] = start
        extend(1, 1 << start)

    assert best is not None
    bits = []
    for j, col in enumerate(best, start=1):
        bits.extend((col >> (j - 1 - i)) & 1 for i in range(j))
    packed = bytearray([n])
    for k in range(0, len(bits), 8):
        byte = 0
        for b in bits[k : k + 8]:
            byte = (byte << 1) | b
        byte <<= max(0, 8 - len(bits[k : k + 8]))
        packed.append(byte)
    return bytes(packed)


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
