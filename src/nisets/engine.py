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

Trees also have a linear dynamic program over their level sequences, one
transition, ``_join_child``: a vertex's eight states once one more child's
subtree joins it.  ``tree_scalars`` folds it over one tree in Python
integers.  The scanner's rooted tables join two smaller rows' states into
each row, along the joins that built the rows, and ``join_scalars``
scores a free tree from the root states of two rooted ones: a rest R and
the subtree T that joins R's root.  Every tree sweep scores its trees so,
the tree claims' included, and a sweep's spot checks compare its rows
with ``Engine`` and the subset oracle.

All arithmetic is exact: Python integers for counts (int32 and int64 in
the tree joins, where the tree order limit rules out overflow; (n+1)-bit
slots in a packed polynomial, where no coefficient exceeds 2^n), fractions
for averages.  The average of an empty family is 0 by convention, with the
zero count kept visible so callers can distinguish the two situations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

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


def format_rational(num: Fraction | int, den: int = 1) -> str:
    """``num/den`` in lowest terms, as a bare integer or ``p/q``, for an int
    pair with den >= 1 or for an int or a Fraction alone."""
    if den == 1:
        num, den = num.numerator, num.denominator
    else:
        common = gcd(num, den)
        num, den = num // common, den // common
    return str(num) if den == 1 else f"{num}/{den}"


@dataclass(frozen=True, slots=True)
class EdgeTerm:
    """Per-edge contribution to the one-edge-subset average, one entry of
    ``compute``'s ``edge_terms``, in the root graph's labels.

    ``residual_mask`` is the vertex set remaining after deleting both
    endpoints' neighbourhoods (endpoints included), and ``union_size`` is
    the size of that union; sigma0/s0 count the independent sets of the
    residual graph and their total size, read off its independent-set
    polynomial as I(1) and I'(1).  ``sigma1`` sums sigma0 over all edges
    of the graph (its one-edge subsets), so the weights sum to 1.
    """

    edge: tuple[int, int]
    residual_mask: int
    sigma0: int
    s0: int
    sigma1: int
    union_size: int

    @property
    def weight(self) -> Fraction:
        return Fraction(self.sigma0, self.sigma1)

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

    The engine works in its own labels, which follow one static pivot
    order, highest root degree first, lowest index on ties: the order's
    first vertex is internal vertex n - 1, its last is internal vertex 0.
    The mask arguments of ``i0``, ``i1``, ``scalars0`` and ``scalars1`` are
    graph labels, mapped in once per call; ``edge_terms`` answers in graph
    labels.  Every route asks ``_split`` for the structure of an internal
    mask (isolated vertices, components of the rest, pivot), and that
    decomposition is memoized once per engine and shared.  The pivot of a
    mask is its first vertex in the static order, so its highest set bit.
    The order runs down from the top bit rather than up from the bottom
    because a dict places an int key by its low bits: vertices leave the
    masks pivots first, so the low bits are the ones that keep varying.
    Each route keeps its own value memo; entries are deterministic, so the
    caches can be rebuilt or merged freely.  An engine decomposes at most
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
        self._full = graph.universe
        self._w = w = graph.n + 1
        # the static pivot order, last vertex first: ascending root degree,
        # and the higher index first among equals, as the sort is stable
        degree = [nb.bit_count() for nb in graph.adj]
        order = sorted(range(graph.n - 1, -1, -1), key=degree.__getitem__)
        # graph vertex -> internal vertex
        self._label = label = [0] * graph.n
        for i, v in enumerate(order):
            label[v] = i
        self._adj = [self._inside(graph.adj[v]) for v in order]
        self._dec: dict[int, tuple[int, list[int], int]] = {}
        self._p0: dict[int, int] = {0: 1}
        self._p1: dict[int, int] = {0: 0}
        self._sc0: dict[int, tuple[int, int]] = {0: (1, 0)}
        self._sc1: dict[int, tuple[int, int]] = {0: (0, 0)}
        # (1 + x)^k packed, the independent-set polynomial of k isolated vertices
        self._binomial = [(1 + (1 << w)) ** k for k in range(graph.n + 1)]

    def _inside(self, mask: int | None) -> int:
        """A graph-label mask in internal labels; None is the whole graph."""
        if mask is None:
            return self._full
        label = self._label
        out = 0
        while mask:
            low = mask & -mask
            out |= 1 << label[low.bit_length() - 1]
            mask ^= low
        return out

    def _unpack(self, packed: int) -> Poly:
        low = (1 << self._w) - 1
        out = []
        while packed:
            out.append(packed & low)
            packed >>= self._w
        return tuple(out)

    # -- mask decomposition --------------------------------------------------

    def _split(self, mask: int) -> tuple[int, list[int], int]:
        """(count of isolated vertices, component masks of the rest, pivot)
        of an internal mask.

        The pivot is the highest vertex of ``mask`` (-1 for the empty
        mask): the internal labels follow the static pivot order.  Any
        vertex of a connected mask gives the same polynomial; this one only
        keeps the number of masks down.  One walk over ``mask`` takes each
        vertex's neighbours inside ``mask`` that it has not reached yet:
        they grow the component, and a vertex with no neighbour inside
        ``mask`` is isolated.  Components come out in order of their lowest
        vertex.  A component's pivot is its highest vertex, so when
        ``mask`` falls apart, each component not yet memoized is stored
        with its own decomposition, ``(0, [component], its highest
        vertex)``, and is never walked itself.
        """
        dec = self._dec
        got = dec.get(mask)
        if got is not None:
            return got
        adj = self._adj
        iso = 0
        comps = []
        rest = mask
        while rest:
            low = rest & -rest
            nbrs = adj[low.bit_length() - 1] & mask
            if not nbrs:
                rest ^= low
                iso += 1
                continue
            # the component is what leaves ``rest`` while the walk runs
            comp = rest
            rest ^= low | nbrs
            todo = nbrs
            while todo:
                low = todo & -todo
                todo ^= low
                nbrs = adj[low.bit_length() - 1] & rest
                todo |= nbrs
                rest ^= nbrs
            comp ^= rest
            comps.append(comp)
        if iso or len(comps) != 1:
            for comp in comps:
                if comp not in dec:
                    self._store(comp, (0, [comp], comp.bit_length() - 1))
        out = (iso, comps, mask.bit_length() - 1)
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
        return self._unpack(self._i0(self._inside(mask)))

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
        return self._unpack(self._i1(self._inside(mask)))

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

    @cached_property
    def _edge_route(self) -> list[tuple[int, int, int, int]]:
        """The per-edge route's terms in ``Graph.edges`` order, listed once
        per engine: (u, v, N(u) | N(v) in graph labels, the packed
        independent-set polynomial of what that union leaves).  Every subset
        inducing the one edge uv is uv plus an independent set of the
        residual."""
        adj, label, full = self._adj, self._label, self._full
        nbhd = self.graph.adj
        return [(u, v, nbhd[u] | nbhd[v], self._i0(full & ~(adj[label[u]] | adj[label[v]])))
                for u, v in self.graph.edges()]

    def i1_by_edges(self) -> Poly:
        return self._unpack(sum(p for *_, p in self._edge_route) << 2 * self._w)

    # -- scalar route (independent of the polynomial arithmetic) -------------

    def scalars0(self, mask: int | None = None) -> tuple[int, int]:
        """(count, size-sum) over subsets of ``mask`` inducing no edge."""
        return self._scalars0(self._inside(mask))

    def _scalars0(self, mask: int) -> tuple[int, int]:
        memo = self._sc0
        got = memo.get(mask)
        if got is not None:
            return got
        iso, comps, v = self._split(mask)
        if iso or len(comps) != 1:
            sig, tot = _edgeless_scalars(iso)
            for c in comps:
                cs, ct = self._scalars0(c)
                tot = tot * cs + sig * ct
                sig = sig * cs
            out = (sig, tot)
        else:
            closed = self._adj[v] | (1 << v)
            s_a, t_a = self._scalars0(mask & ~(1 << v))
            s_b, t_b = self._scalars0(mask & ~closed)
            out = (s_a + s_b, t_a + t_b + s_b)
        memo[mask] = out
        return out

    def scalars1(self, mask: int | None = None) -> tuple[int, int]:
        """(count, size-sum) over subsets of ``mask`` inducing one edge."""
        return self._scalars1(self._inside(mask))

    def _scalars1(self, mask: int) -> tuple[int, int]:
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
                cs0, ct0 = self._scalars0(c)
                cs1, ct1 = self._scalars1(c)
                tot1 = tot1 * cs0 + sig1 * ct0 + ct1 * sig0 + cs1 * tot0
                sig1 = sig1 * cs0 + sig0 * cs1
                tot0 = tot0 * cs0 + sig0 * ct0
                sig0 = sig0 * cs0
            out = (sig1, tot1)
        else:
            closed = adj[v] | (1 << v)
            s_a, t_a = self._scalars1(mask & ~(1 << v))
            s_b, t_b = self._scalars1(mask & ~closed)
            sig = s_a + s_b
            tot = t_a + s_b + t_b
            nbrs = adj[v] & mask
            while nbrs:
                low = nbrs & -nbrs
                nbrs ^= low
                residual = mask & ~(adj[v] | adj[low.bit_length() - 1])
                rs, rt = self._scalars0(residual)
                sig += rs
                tot += 2 * rs + rt
            out = (sig, tot)
        memo[mask] = out
        return out

    # -- per-edge statistics --------------------------------------------------

    def edge_terms(self) -> list[EdgeTerm]:
        """One ``EdgeTerm`` per term of the per-edge route (none for an
        edgeless graph), in ``Graph.edges`` order and graph labels, with the
        moments of its residual's independent-set polynomial as (sigma0, s0)."""
        route = self._edge_route
        counts = [moments(self._unpack(p)) for *_, p in route]
        sigma1 = sum(rs for rs, _ in counts)
        return [EdgeTerm(edge=(u, v), residual_mask=self._full & ~union, sigma0=rs, s0=rt,
                         sigma1=sigma1, union_size=union.bit_count())
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
    vertex starts as a leaf and every vertex is joined to its parent
    (``_join_child``) in reverse preorder, so every subtree is complete
    before it meets its parent."""
    n = len(levels)
    parent = [0] * n
    last = [0] * (n + 1)
    for i in range(1, n):
        depth = levels[i]
        parent[i] = last[depth - 1]
        last[depth] = i
    states = [(1, 0, 1, 1, 0, 0, 0, 0)] * n  # a leaf: a = (1, 0), b = (1, 1), c = f = (0, 0)
    for i in range(n - 1, 0, -1):
        states[parent[i]] = _join_child(states[parent[i]], states[i])
    a0, a1, b0, b1, c0, c1, f0, f1 = states[0]
    return a0 + b0, a1 + b1, c0 + f0, c1 + f1


def _join_child(parent, child):
    """The eight states a0, a1, b0, b1, c0, c1, f0, f1 of a vertex after one
    more child's subtree joins it, from the vertex's states so far and the
    child's root states, as ints or elementwise on arrays.  Each state is a
    (count, size-sum) pair over the vertex subsets of the subtree:

    * a: the vertex out, no edge;
    * b: the vertex in, no edge;
    * c: the vertex out, one edge;
    * f: the vertex in, one edge (below a child, or joining the vertex to
      its one chosen child; the two cases combine identically, so they
      share a state).

    Under an absent vertex the child may take any state (free = a + b, or
    one = c + f with the edge); under a present one it is absent (out = a),
    or present with no edge of its own below, the edge then joining the
    two, or absent with the edge below (edge = b + c).  Pairs combine as
    (x, X) * (y, Y) = (xy, Xy + xY)."""
    pa0, pa1, pb0, pb1, pc0, pc1, pf0, pf1 = parent
    a0, a1, b0, b1, c0, c1, f0, f1 = child
    free0, free1 = a0 + b0, a1 + b1
    one0, one1 = c0 + f0, c1 + f1
    edge0, edge1 = b0 + c0, b1 + c1
    return (
        pa0 * free0, pa1 * free0 + pa0 * free1,
        pb0 * a0, pb1 * a0 + pb0 * a1,
        pc0 * free0 + pa0 * one0, pc1 * free0 + pc0 * free1 + pa1 * one0 + pa0 * one1,
        pf0 * a0 + pb0 * edge0, pf1 * a0 + pf0 * a1 + pb1 * edge0 + pb0 * edge1,
    )


def join_scalars(rest, first):
    """(sigma0, S0, sigma1, S1) of the trees made of a rooted tree R with
    one more child subtree T at its root, as four arrays, from the root
    states of R and of T (``_join_child``'s eight rows each, gathered row by
    row from the scanner's tables and widened to int64): T joins R's root as
    every child joins its parent.  Every product of the join is one term of
    a state of the whole tree, below the bound ``trees.TREE_ORDER_LIMIT``
    states."""
    a0, a1, b0, b1, c0, c1, f0, f1 = _join_child(rest, first)
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
