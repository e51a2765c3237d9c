"""Exact counting of vertex subsets inducing zero or one edge.

Counts are carried either as generating polynomials in the subset size
(coefficient k = number of qualifying subsets of cardinality k), packed
into one Python integer inside ``Engine`` and returned as coefficient
tuples, or as the scalar pair (count, size-sum).  Both are computed by
memoized recursion on vertex masks over an immutable root graph, along two
structurally different decompositions whose agreement is cross-checked by
the test suite:

* removing a pivot vertex, its closed neighbourhood, or the pivot together
  with one neighbour and both neighbourhoods;
* summing, over all edges, the independent-set polynomial of the graph left
  after deleting both endpoints' neighbourhoods.

Trees also have a linear dynamic program over their level sequences.
``tree_scalars`` runs it on one tree in Python integers and is the
reference.  ``tree_scalars_batch`` runs it on a block of B trees at once,
given as their parent array, in int64 numpy arrays, exact up to order 24;
every tree sweep uses it, the tree claims' included, and a sweep's spot
checks compare its rows with ``Engine`` and the subset oracle.

All arithmetic is exact: Python integers for counts (int64 in the batched
tree DP, where the order bound rules out overflow; (n+1)-bit slots in a
packed polynomial, where no coefficient exceeds 2^n), fractions for
averages.  The average of an empty family is 0 by convention, with the
zero count kept visible so callers can distinguish the two situations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import Graph

Poly = tuple  # coefficient tuple, no trailing zeros; () is the zero polynomial


@dataclass(frozen=True)
class NisSummary:
    """(count, size-sum, average) of a family of vertex subsets."""

    sigma: int
    total: int
    average: Fraction

    @classmethod
    def from_counts(cls, sigma: int, total: int) -> "NisSummary":
        avg = Fraction(total, sigma) if sigma else Fraction(0)
        return cls(sigma, total, avg)


def format_rational(value: Fraction | int) -> str:
    """Lowest-terms display: bare integers stay bare, otherwise ``p/q``.
    An int carries its own numerator and denominator, so nothing is
    wrapped."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class EdgeTerm:
    """Per-edge contribution to the one-edge-subset average, one entry of
    ``compute``'s ``edge_terms``.

    ``residual_mask`` is the vertex set remaining after deleting both
    endpoints' neighbourhoods (endpoints included), and ``union_size`` is
    the size of that union; sigma0/s0 count the independent sets of the
    residual graph and their total size, read off its independent-set
    polynomial as I(1) and I'(1).  The weights over all edges of a graph
    sum to 1.
    """

    edge: tuple[int, int]
    residual_mask: int
    sigma0: int
    s0: int
    weight: Fraction
    union_size: int

    @property
    def av0(self) -> Fraction:
        return Fraction(self.s0, self.sigma0)


class WorkLimitExceeded(ValueError):
    """An ``Engine`` was asked to decompose more than ``MAX_ENGINE_MASKS``
    vertex subsets."""


# Most vertex subsets one Engine decomposes before it refuses to go on.  At
# about 440 bytes per subset across all memos this keeps an engine near
# 230 MB; the compute-batch benchmark's largest graph needs about 10^4
# (8,079 at seed 1).
MAX_ENGINE_MASKS = 1 << 19


class Engine:
    """Memoized evaluator bound to one root graph.

    Every route asks ``_split`` for the structure of a vertex mask
    (isolated vertices, components of the rest, pivot), and that
    decomposition is memoized once per engine and shared.  Pivots follow
    one static order, highest root degree first, lowest index on ties,
    kept as one rank per vertex.  Each route keeps its own value memo;
    entries are deterministic, so the caches can be rebuilt or merged
    freely.  An engine decomposes at most
    ``MAX_ENGINE_MASKS`` masks and raises ``WorkLimitExceeded`` past that.

    The polynomial memos hold each polynomial packed into one integer:
    coefficient k sits in bits [k·w, (k+1)·w) with w = n + 1, so ``+`` adds,
    ``*`` multiplies and ``<< w`` multiplies by x.  Every coefficient any
    route forms, partial sums and products included, counts distinct
    k-subsets of the root graph's vertices, so it is at most C(n, k) <= 2^n
    and a slot never carries into the next.  ``i0``, ``i1`` and ``i1_by_edges`` unpack their
    result into a coefficient tuple.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        self._adj = graph.adj
        self._full = graph.universe
        self._w = w = graph.n + 1
        # pivot order: higher root degree first, then lower index
        self._rank = [graph.degree(v) * w + graph.n - v for v in range(graph.n)]
        self._dec: dict[int, tuple[int, list[int], int]] = {}
        self._p0: dict[int, int] = {0: 1}
        self._p1: dict[int, int] = {0: 0}
        self._sc0: dict[int, tuple[int, int]] = {0: (1, 0)}
        self._sc1: dict[int, tuple[int, int]] = {0: (0, 0)}
        # (1 + x)^k packed, the independent-set polynomial of k isolated vertices
        self._binomial = [(1 + (1 << w)) ** k for k in range(graph.n + 1)]

    def _unpack(self, packed: int) -> Poly:
        low = (1 << self._w) - 1
        out = []
        while packed:
            out.append(packed & low)
            packed >>= self._w
        return tuple(out)

    # -- mask decomposition --------------------------------------------------

    def _split(self, mask: int) -> tuple[int, list[int], int]:
        """(count of isolated vertices, component masks of the rest, pivot).

        The pivot is the vertex of ``mask`` of highest degree in the root
        graph, lowest index on ties (-1 for the empty mask), read off the
        static ``_rank``.  Any vertex of a connected mask gives the same
        polynomial; this one only keeps the number of masks down.  One walk
        over ``mask`` takes each vertex's neighbours inside ``mask`` that it
        has not reached yet: they grow the component, and a vertex with no
        neighbour inside ``mask`` is isolated.  Components come out in order
        of their lowest vertex, each with its pivot; the best of those, and
        of the isolated vertices, is the mask's.  The rank does not depend on
        the mask, so when ``mask`` falls apart, each component not yet
        memoized is stored with its own decomposition,
        ``(0, [component], its pivot)``, and is never walked itself.
        """
        dec = self._dec
        got = dec.get(mask)
        if got is not None:
            return got
        adj = self._adj
        rank = self._rank
        iso = 0
        comps = []
        pivots = []
        pivot = -1
        best = -1
        rest = mask
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            nbrs = adj[v] & mask
            if not nbrs:
                rest ^= low
                iso += 1
                if rank[v] > best:
                    best, pivot = rank[v], v
                continue
            # the component is what leaves ``rest`` while the walk runs
            comp = rest
            rest ^= low | nbrs
            top, at = rank[v], v
            todo = nbrs
            while todo:
                low = todo & -todo
                todo ^= low
                v = low.bit_length() - 1
                if rank[v] > top:
                    top, at = rank[v], v
                nbrs = adj[v] & rest
                todo |= nbrs
                rest ^= nbrs
            comp ^= rest
            if top > best:
                best, pivot = top, at
            comps.append(comp)
            pivots.append(at)
        if iso or len(comps) != 1:
            for comp, at in zip(comps, pivots):
                if comp not in dec:
                    self._store(comp, (0, [comp], at))
        out = (iso, comps, pivot)
        self._store(mask, out)
        return out

    def _store(self, mask: int, entry: tuple[int, list[int], int]) -> None:
        """Memoize one decomposition, seeded ones included, unless the
        engine already holds ``MAX_ENGINE_MASKS``."""
        if len(self._dec) >= MAX_ENGINE_MASKS:
            raise WorkLimitExceeded(
                f"graph of order {self.graph.n} needs more than {MAX_ENGINE_MASKS} "
                f"vertex-subset decompositions; refusing to continue"
            )
        self._dec[mask] = entry

    # -- zero-edge (independent set) polynomials ----------------------------

    def i0(self, mask: int | None = None) -> Poly:
        return self._unpack(self._i0(self._full if mask is None else mask))

    def _i0(self, mask: int) -> int:
        memo = self._p0
        got = memo.get(mask)
        if got is not None:
            return got
        iso, comps, v = self._split(mask)
        if iso or len(comps) != 1:
            out = self._binomial[iso]
            for c in comps:
                out *= self._i0(c)
        else:
            closed = self._adj[v] | (1 << v)
            out = self._i0(mask & ~(1 << v)) + (self._i0(mask & ~closed) << self._w)
        memo[mask] = out
        return out

    # -- one-edge polynomials, pivot-vertex route ----------------------------

    def i1(self, mask: int | None = None) -> Poly:
        return self._unpack(self._i1(self._full if mask is None else mask))

    def _i1(self, mask: int) -> int:
        memo = self._p1
        got = memo.get(mask)
        if got is not None:
            return got
        adj = self._adj
        iso, comps, v = self._split(mask)
        if iso or len(comps) != 1:
            acc0 = self._binomial[iso]
            acc1 = 0
            for c in comps:
                c0 = self._i0(c)
                acc1 = acc1 * c0 + acc0 * self._i1(c)
                acc0 *= c0
            out = acc1
        else:
            closed = adj[v] | (1 << v)
            out = self._i1(mask & ~(1 << v)) + (self._i1(mask & ~closed) << self._w)
            pairs = 0
            nbrs = adj[v] & mask
            while nbrs:
                low = nbrs & -nbrs
                nbrs ^= low
                pairs += self._i0(mask & ~(adj[v] | adj[low.bit_length() - 1]))
            out += pairs << 2 * self._w
        memo[mask] = out
        return out

    # -- one-edge polynomial, per-edge route ---------------------------------

    def _edge_route(self) -> list[tuple[int, int, int, int]]:
        """The per-edge route's terms in ``Graph.edges`` order: (u, v,
        N(u) | N(v), the packed independent-set polynomial of what that
        union leaves).  Every subset inducing the one edge uv is uv plus an
        independent set of the residual."""
        adj = self._adj
        return [(u, v, (union := adj[u] | adj[v]), self._i0(self._full & ~union))
                for u, v in self.graph.edges()]

    def i1_by_edges(self) -> Poly:
        return self._unpack(sum(p for *_, p in self._edge_route()) << 2 * self._w)

    # -- scalar route (independent of the polynomial arithmetic) -------------

    def scalars0(self, mask: int | None = None) -> tuple[int, int]:
        """(count, size-sum) over subsets of ``mask`` inducing no edge."""
        if mask is None:
            mask = self._full
        memo = self._sc0
        got = memo.get(mask)
        if got is not None:
            return got
        iso, comps, v = self._split(mask)
        if iso or len(comps) != 1:
            sig, tot = _edgeless_scalars(iso)
            for c in comps:
                cs, ct = self.scalars0(c)
                tot = tot * cs + sig * ct
                sig = sig * cs
            out = (sig, tot)
        else:
            closed = self._adj[v] | (1 << v)
            s_a, t_a = self.scalars0(mask & ~(1 << v))
            s_b, t_b = self.scalars0(mask & ~closed)
            out = (s_a + s_b, t_a + t_b + s_b)
        memo[mask] = out
        return out

    def scalars1(self, mask: int | None = None) -> tuple[int, int]:
        """(count, size-sum) over subsets of ``mask`` inducing one edge."""
        if mask is None:
            mask = self._full
        memo = self._sc1
        got = memo.get(mask)
        if got is not None:
            return got
        adj = self._adj
        iso, comps, v = self._split(mask)
        if iso or len(comps) != 1:
            sig0, tot0 = _edgeless_scalars(iso)
            sig1, tot1 = 0, 0
            for c in comps:
                cs0, ct0 = self.scalars0(c)
                cs1, ct1 = self.scalars1(c)
                tot1 = tot1 * cs0 + sig1 * ct0 + ct1 * sig0 + cs1 * tot0
                sig1 = sig1 * cs0 + sig0 * cs1
                tot0 = tot0 * cs0 + sig0 * ct0
                sig0 = sig0 * cs0
            out = (sig1, tot1)
        else:
            closed = adj[v] | (1 << v)
            s_a, t_a = self.scalars1(mask & ~(1 << v))
            s_b, t_b = self.scalars1(mask & ~closed)
            sig = s_a + s_b
            tot = t_a + s_b + t_b
            nbrs = adj[v] & mask
            while nbrs:
                low = nbrs & -nbrs
                nbrs ^= low
                residual = mask & ~(adj[v] | adj[low.bit_length() - 1])
                rs, rt = self.scalars0(residual)
                sig += rs
                tot += 2 * rs + rt
            out = (sig, tot)
        memo[mask] = out
        return out

    # -- per-edge statistics --------------------------------------------------

    def edge_terms(self) -> list[EdgeTerm]:
        """One ``EdgeTerm`` per term of the per-edge route, in
        ``Graph.edges`` order, with the moments of its residual's
        independent-set polynomial as (sigma0, s0)."""
        route = self._edge_route()
        if not route:
            raise ValueError("edge terms undefined for edgeless graph")
        counts = [moments(self._unpack(p)) for *_, p in route]
        denom = sum(rs for rs, _ in counts)
        return [EdgeTerm(edge=(u, v), residual_mask=self._full & ~union, sigma0=rs, s0=rt,
                         weight=Fraction(rs, denom), union_size=union.bit_count())
                for (u, v, union, _), (rs, rt) in zip(route, counts)]


def moments(p: Poly) -> tuple[int, int]:
    """(I(1), I'(1)) of a coefficient tuple: the number of subsets it
    counts and the sum of their sizes."""
    return sum(p), sum(k * c for k, c in enumerate(p))


def tree_scalars(levels) -> tuple[int, int, int, int]:
    """(sigma0, S0, sigma1, S1) of the rooted tree with this level sequence.

    ``levels`` is any depth sequence of a rooted tree in preorder (root at
    depth 0, each later depth between 1 and one more than the previous);
    the parent of a vertex is the latest earlier vertex one level up.  A
    linear dynamic program replaces the mask recursion of ``Engine``: each
    vertex v carries four (count, size-sum) pairs over the vertex subsets
    of its subtree,

    * a: v out, no edge;
    * b: v in, no edge;
    * c: v out, one edge;
    * f: v in, one edge (below a child, or joining v to its one chosen
      child; the two cases combine identically, so they share a state);

    and vertices are folded child-into-parent in reverse preorder, so every
    subtree is complete before it meets its parent.  Pairs combine as
    (x, X) * (y, Y) = (xy, Xy + xY).
    """
    n = len(levels)
    parent = [0] * n
    last = [0] * (n + 1)
    for i in range(1, n):
        depth = levels[i]
        parent[i] = last[depth - 1]
        last[depth] = i
    a0 = [1] * n
    a1 = [0] * n
    b0 = [1] * n
    b1 = [1] * n
    c0 = [0] * n
    c1 = [0] * n
    f0 = [0] * n
    f1 = [0] * n
    for i in range(n - 1, 0, -1):
        p = parent[i]
        # under an absent parent the child may take any state; under a
        # present one it is absent, or present with no edge of its own
        # below (the edge is then p-i), or absent with the edge below
        free0, free1 = a0[i] + b0[i], a1[i] + b1[i]
        one0, one1 = c0[i] + f0[i], c1[i] + f1[i]
        out0, out1 = a0[i], a1[i]
        edge0, edge1 = b0[i] + c0[i], b1[i] + c1[i]
        pa0, pa1, pb0, pb1 = a0[p], a1[p], b0[p], b1[p]
        c1[p] = c1[p] * free0 + c0[p] * free1 + pa1 * one0 + pa0 * one1
        c0[p] = c0[p] * free0 + pa0 * one0
        a1[p] = pa1 * free0 + pa0 * free1
        a0[p] = pa0 * free0
        f1[p] = f1[p] * out0 + f0[p] * out1 + pb1 * edge0 + pb0 * edge1
        f0[p] = f0[p] * out0 + pb0 * edge0
        b1[p] = pb1 * out0 + pb0 * out1
        b0[p] = pb0 * out0
    return a0[0] + b0[0], a1[0] + b1[0], c0[0] + f0[0], c1[0] + f1[0]


# Largest order the batched tree DP accepts: every state counts subsets of
# at most n vertices, so it stays below n·2^n < 2^29, and a product of two
# states, or a cross-multiplied comparison of two values, below 2^58.
TREE_BATCH_ORDER_LIMIT = 24


def tree_scalars_batch(parent: np.ndarray):
    """``tree_scalars`` of a block of B trees, given as the (B, n) parent
    array of their level sequences (``trees.level_parents``), as four int64
    arrays (sigma0, S0, sigma1, S1) of length B.

    The eight states a0, a1, b0, b1, c0, c1, f0, f1 of all B trees sit in
    one (8, n·B) array, vertex-major: vertex v of tree t is column v·B + t.
    Position i is folded into its parents for every tree at once, with one
    gather and one scatter of the parents' columns; the children's columns
    are the contiguous slice of position i.  Refuses n above
    ``TREE_BATCH_ORDER_LIMIT``, where int64 could overflow."""
    b, n = parent.shape
    if n > TREE_BATCH_ORDER_LIMIT:
        raise ValueError(f"batched tree DP needs order <= {TREE_BATCH_ORDER_LIMIT}, got {n}")
    states = np.zeros((8, n * b), dtype=np.int64)
    states[[0, 2, 3]] = 1  # a leaf: a = (1, 0), b = (1, 1), c = f = (0, 0)
    trees = np.arange(b)
    for i in range(n - 1, 0, -1):
        a0, a1, b0, b1, c0, c1, f0, f1 = states[:, i * b:(i + 1) * b]
        at = parent[:, i] * b + trees
        pa0, pa1, pb0, pb1, pc0, pc1, pf0, pf1 = states[:, at]
        # the transitions of tree_scalars: free = a + b, one = c + f,
        # out = a, edge = b + c
        free0, free1 = a0 + b0, a1 + b1
        one0, one1 = c0 + f0, c1 + f1
        edge0, edge1 = b0 + c0, b1 + c1
        states[:, at] = (
            pa0 * free0, pa1 * free0 + pa0 * free1,
            pb0 * a0, pb1 * a0 + pb0 * a1,
            pc0 * free0 + pa0 * one0, pc1 * free0 + pc0 * free1 + pa1 * one0 + pa0 * one1,
            pf0 * a0 + pb0 * edge0, pf1 * a0 + pf0 * a1 + pb1 * edge0 + pb0 * edge1,
        )
    a0, a1, b0, b1, c0, c1, f0, f1 = states[:, :b]
    return a0 + b0, a1 + b1, c0 + f0, c1 + f1


def _edgeless_scalars(k: int) -> tuple[int, int]:
    """(count, size-sum) of all subsets of k isolated vertices."""
    return (1 << k, k << (k - 1) if k else 0)


def nis_summary(g: Graph, level: int) -> NisSummary:
    """(count, size-sum, average) for subsets inducing exactly ``level`` edges."""
    if level not in (0, 1):
        raise ValueError("summaries are implemented for levels 0 and 1 only")
    eng = Engine(g)
    sig, tot = eng.scalars0() if level == 0 else eng.scalars1()
    return NisSummary.from_counts(sig, tot)
