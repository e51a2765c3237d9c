"""Independent cross-checks that only the tests use: the polynomials of a
disjoint union from its parts, in coefficient-tuple arithmetic rather than
the engine's packed integers, vertex relabelling, a canonical form of
small graphs by its definition, the numpy gather-and-sum walk of the
labelled-graph orbits (the reference for the scanner's chunked image
tables), a labelled-tree oracle that decodes every length-(n-2) vertex
sequence, the free-tree stream by a walk of whole sequences, its segments
by a heap-merge walk, the rows of the stream's segments as int8 arrays,
the per-position tree DP over blocks of level sequences and the degrees
of whole and rooted trees by bincounts (the references for the rooted
tables' join of rows and the sweeps' join of tables), the known ratio
table of small paths and cycles, and a plain loop over the subsets for one
level of the subset oracle."""

import heapq
from bisect import bisect_left
from fractions import Fraction
from itertools import count, permutations, product
from math import factorial

import numpy as np

from nisets.engine import Engine, _join_child
from nisets.families import FamilySpec, build
from nisets.graphs import Graph, all_pairs, graph_from_pair_mask, iter_bits
from nisets.trees import (
    TREE_ORDER_LIMIT,
    RootedTables,
    _centers,
    _rest_start,
    _rooted_key,
    tree_segments,
)

SEQUENCE_ORACLE_LIMIT = 10  # n^(n-2) labelled trees; keep well clear of that wall
CANONICAL_MASK_LIMIT = 7  # n! relabellings; 5040 at order 7


def poly_add(a, b) -> tuple[int, ...]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, c in enumerate(b):
        out[k] += c
    return tuple(out)


def poly_mul(a, b) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return tuple(out)


def union_combine(p1_zero, p1_one, p2_zero, p2_one) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Polynomials of a disjoint union from the parts' coefficient tuples.

    Zero-edge subsets multiply; a one-edge subset places its edge in one
    part and an independent set in the other.  Parts without trailing
    zeros, as every ``Engine`` route returns them, give a union without
    trailing zeros, since no coefficient is negative.
    """
    zero = poly_mul(p1_zero, p2_zero)
    one = poly_add(
        poly_mul(p1_one, p2_zero),
        poly_mul(p2_one, p1_zero),
    )
    return zero, one


def relabel(g: Graph, perm) -> Graph:
    """Graph with vertex v renamed to perm[v]."""
    adj = [0] * g.n
    for v in range(g.n):
        nb = 0
        for u in iter_bits(g.adj[v]):
            nb |= 1 << perm[u]
        adj[perm[v]] = nb
    return Graph(g.n, tuple(adj))


def pair_mask(g: Graph) -> int:
    """The edge set as a mask over the colex pairs of ``all_pairs``."""
    return sum(1 << s for s, (i, j) in enumerate(all_pairs(g.n)) if g.adj[i] >> j & 1)


def canonical_mask(g: Graph) -> int:
    """The least pair mask over all n! relabellings: equal exactly for
    isomorphic graphs of one order.  Refuses orders above
    ``CANONICAL_MASK_LIMIT``."""
    if g.n > CANONICAL_MASK_LIMIT:
        raise ValueError(f"canonical mask limited to order {CANONICAL_MASK_LIMIT}")
    return min(pair_mask(relabel(g, p)) for p in permutations(range(g.n)))


def slot_image_table(n: int) -> np.ndarray:
    """``table[s, p]``: the single-bit image of pair slot s under the p-th
    permutation of ``itertools.permutations(range(n))``, as int32."""
    pairs = all_pairs(n)
    slot = np.zeros((n, n), dtype=np.int32)
    for s, (i, j) in enumerate(pairs):
        slot[i, j] = slot[j, i] = s
    perms = np.fromiter(permutations(range(n)), dtype=np.dtype((np.int8, n)), count=factorial(n))
    first = [i for i, _ in pairs]
    second = [j for _, j in pairs]
    return np.ascontiguousarray((1 << slot[perms[:, first], perms[:, second]]).T)


def gather_sum_graph_classes(n: int) -> list[tuple[Graph, int]]:
    """The orbit walk with one gather of ``slot_image_table`` rows per class:
    each unseen mask's images are the rows of its set slots summed over the
    n! columns, and its labelled count is n! over its stabiliser."""
    pairs = all_pairs(n)
    table = slot_image_table(n)
    nperms = factorial(n)
    seen = bytearray(1 << len(pairs))
    marks = np.frombuffer(seen, dtype=np.uint8)
    classes = []
    mask = 0
    while mask >= 0:
        images = table[[s for s in range(len(pairs)) if mask >> s & 1]].sum(axis=0)
        marks[images] = 1
        count = nperms // int(np.count_nonzero(images == mask))
        classes.append((graph_from_pair_mask(n, mask, pairs), count))
        mask = seen.find(0, mask + 1)
    return classes


def sequence_to_adjacency(seq: tuple[int, ...], n: int) -> list[list[int]]:
    """Decode a length-(n-2) vertex sequence into tree adjacency lists.

    Smallest-leaf elimination with a monotone pointer; consumed leaves are
    zeroed out so the sweeps never revisit them.
    """
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    adj: list[list[int]] = [[] for _ in range(n)]
    ptr = 0
    leaf = -1
    for x in seq:
        if leaf < 0:
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
            ptr += 1
        adj[leaf].append(x)
        adj[x].append(leaf)
        degree[leaf] = 0
        degree[x] -= 1
        # a vertex below the pointer that just became a leaf would otherwise
        # never be swept again, so it must be taken immediately
        leaf = x if degree[x] == 1 and x < ptr else -1
    if leaf < 0:
        while degree[ptr] != 1:
            ptr += 1
        leaf = ptr
    degree[leaf] = 0
    last = 0
    while degree[last] != 1:
        last += 1
    adj[leaf].append(last)
    adj[last].append(leaf)
    return adj


def labelled_tree_classes(n: int) -> int:
    """Count of isomorphism classes among all n^(n-2) labelled trees.

    Every vertex sequence of length n-2 is decoded and the resulting trees
    are deduplicated by canonical key; completely independent of the level
    sequence generator.  Exponential: refuse orders above
    ``SEQUENCE_ORACLE_LIMIT``.
    """
    if not 1 <= n <= SEQUENCE_ORACLE_LIMIT:
        raise ValueError(f"labelled-tree oracle limited to 1..{SEQUENCE_ORACLE_LIMIT}")
    if n <= 2:
        return 1
    keys = set()
    for seq in product(range(n), repeat=n - 2):
        adj = sequence_to_adjacency(seq, n)
        keys.add(min(_rooted_key(adj, c) for c in _centers(adj)))
    return len(keys)


_PLUS_ONE = bytes(range(1, 256)) + b"\0"  # translate table: every level one deeper


def reference_tree_blocks(n: int, block: int):
    """The free-tree stream of order n in (B, n) int8 blocks of ``block``
    rows, by a walk of whole level sequences; the reference for the
    stream's segments (``trees.tree_segments``).  One bytearray walks the
    rooted sequences in place (Wright, Richmond, Odlyzko and McKay, SIAM J.
    Comput. 15, 1986); the successor at position p repeats, from p on, the
    stretch from the latest earlier vertex one level above p up to p.  A
    sequence is centre-rooted unless its first root subtree is taller than
    the rest, or as tall and larger, or as tall, as large and later read
    from its own root; the walk then jumps past every sequence sharing that
    first subtree."""
    if n <= 2:
        yield np.arange(n, dtype=np.int8).reshape(1, n)
        return
    levels = bytearray(bytes(range(n // 2 + 1)) + bytes(range(1, (n + 1) // 2)))
    rows, full, span = bytearray(), block * n, n + 1
    while True:
        cut = levels.find(1, 2) % span  # the root's second child, n if none
        # the first subtree against the rest: heights, sizes (cut - 1 against
        # n - cut + 1), then the sequences, both read from their own roots
        left, right = max(levels[1:cut]) - 1, max(levels[cut:], default=0)
        if left > right or left == right and (
                2 * cut > n + 2 or 2 * cut == n + 2
                and levels[2:cut] > levels[cut:].translate(_PLUS_ONE)):
            # jump: the successor at the first subtree's last vertex, then,
            # if that vertex was deeper than level 2, a path as tall as the
            # new first subtree at the end
            p = cut - 1
            top = levels[p]
            q = levels.rfind(top - 1, 0, p)
            levels[p:] = (levels[q:p] * (n - p))[:n - p]
            if top > 2:
                height = max(levels[1:levels.find(1, 2) % span])
                levels[n - height:] = range(1, height + 1)
        rows += levels
        if len(rows) == full:
            yield np.frombuffer(rows, dtype=np.int8).reshape(-1, n)
            rows = bytearray()
        if levels[2] == 1:  # the star
            break
        p = len(levels.rstrip(b"\1")) - 1  # the last vertex off level 1
        q = levels.rfind(levels[p] - 1, 0, p)
        levels[p:] = (levels[q:p] * (n - p))[:n - p]
    if rows:
        yield np.frombuffer(rows, dtype=np.int8).reshape(-1, n)


def reference_segments(tables, n: int):
    """The segments (s, t, a, b) of the order-n free-tree stream over
    ``tables``, in stream order, by a lazy walk; the reference for
    ``trees.tree_segments``.  The first subtrees of every size are merged
    in decreasing order (``heapq.merge``), and a per-size pointer, which
    only moves forward, finds the first rest each may take."""
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


def segment_rows(tables, n: int, segments) -> np.ndarray:
    """The level sequences of the trees of order-n segments
    (``trees.tree_segments``) over ``tables``, as one (B, n) int8 array in
    stream order: per segment, the root, its first subtree one level down
    and the children of each rest, copied with numpy."""
    segments = list(segments)
    rows, fill = np.zeros((sum(b - a for *_, a, b in segments), n), dtype=np.int8), 0
    for s, t, a, b in segments:
        rows[fill:fill + b - a, 1:s + 1] = tables.tables[s][t] + 1
        rows[fill:fill + b - a, s + 1:] = tables.tables[n - s][a:b, 1:]
        fill += b - a
    return rows


def tree_rows(n: int) -> np.ndarray:
    """The free-tree stream of order n as one (count, n) int8 array, the
    rows of its segments over the order's own tables."""
    if n == 1:
        return np.zeros((1, 1), dtype=np.int8)
    tables = RootedTables(n)
    return segment_rows(tables, n, tree_segments(tables, n))


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


def root_states_batch(parent: np.ndarray) -> np.ndarray:
    """The root's eight states a0, a1, b0, b1, c0, c1, f0, f1 (those of
    ``engine._join_child``) of each of a block of B rooted trees, given as
    the (B, n) parent array of their level sequences (``level_parents``),
    as one (8, B) int64 array: the per-position DP, which joins every
    position of every tree to its parent.

    The states of all B trees sit in one (8, n·B) array, vertex-major:
    vertex v of tree t is column v·B + t.  Position i is joined to its
    parents for every tree at once, with one gather and one scatter of the
    parents' columns; the children's columns are the contiguous slice of
    position i.  Refuses n above ``TREE_ORDER_LIMIT``, past the bound that
    keeps int64 exact."""
    b, n = parent.shape
    if n > TREE_ORDER_LIMIT:
        raise ValueError(f"batched tree DP needs order <= {TREE_ORDER_LIMIT}, got {n}")
    states = np.zeros((8, n * b), dtype=np.int64)
    states[[0, 2, 3]] = 1  # a leaf: a = (1, 0), b = (1, 1), c = f = (0, 0)
    trees = np.arange(b)
    for i in range(n - 1, 0, -1):
        at = parent[:, i] * b + trees
        states[:, at] = _join_child(states[:, at], states[:, i * b:(i + 1) * b])
    return states[:, :b]


def tree_scalars_batch(parent):
    """``tree_scalars`` of a block of B whole trees, given as the (B, n)
    parent array of their level sequences (``level_parents``), as four
    int64 arrays (sigma0, S0, sigma1, S1): the batched DP folds every
    position of every tree."""
    a0, a1, b0, b1, c0, c1, f0, f1 = root_states_batch(parent)
    return a0 + b0, a1 + b1, c0 + f0, c1 + f1


def parent_degrees(parent):
    """The degree of every vertex of each tree of a (B, n) parent array
    from ``level_parents``, the root's edge to its parent not counted: a
    bincount of the parents gives the child counts, and every vertex but
    the root has one more edge."""
    b, n = parent.shape
    slots = parent[:, 1:] + n * np.arange(b)[:, None]
    degree = np.bincount(slots.ravel(), minlength=b * n).reshape(b, n)
    degree[:, 1:] += 1
    return degree


def block_degrees(parent):
    """Max degree and minimum internal degree (degree > 1; 0 when no
    vertex is internal) of every tree of a (B, n) parent array from
    ``level_parents``, as two int arrays."""
    degree = parent_degrees(parent)
    n = degree.shape[1]
    # no degree reaches n, so n marks a tree without internal vertices
    internal = np.where(degree > 1, degree, n).min(axis=1)
    internal[internal == n] = 0
    return degree.max(axis=1), internal


def rooted_degrees(parent):
    """The degree data of ``scanner._Tables`` of every rooted tree of a
    (B, k) parent array from ``level_parents``, once its root gains one
    more edge, as a (3, B) int8 array: the largest degree, the least
    internal degree of the vertices other than the root
    (``TREE_ORDER_LIMIT`` when none) and the root's degree."""
    degree = parent_degrees(parent)
    degree[:, 0] += 1
    inner = np.where(degree[:, 1:] > 1, degree[:, 1:], TREE_ORDER_LIMIT)
    return np.array([degree.max(axis=1), inner.min(axis=1, initial=TREE_ORDER_LIMIT),
                     degree[:, 0]], dtype=np.int8)


_RATIO_TABLE = (
    ("P5", ("path", 5), Fraction(10, 13)),
    ("C4", ("cycle", 4), Fraction(4, 7)),
    ("P4", ("path", 4), Fraction(5, 8)),
    ("C3", ("cycle", 3), Fraction(3, 4)),
    ("P3", ("path", 3), Fraction(2, 5)),
    ("P2", ("path", 2), Fraction(1, 3)),
)


def ratio_table() -> list[tuple[str, Fraction]]:
    """Known one-edge/zero-edge count ratios for small paths and cycles.

    Each ratio is recomputed by the engine and checked against the expected
    exact value before it is returned.
    """
    out = []
    for name, (family, n), expected in _RATIO_TABLE:
        eng = Engine(build(FamilySpec(family, n)))
        sigma1, _ = eng.scalars1()
        sigma0, _ = eng.scalars0()
        got = Fraction(sigma1, sigma0)
        if got != expected:
            raise AssertionError(f"ratio for {name}: engine got {got}, expected {expected}")
        out.append((name, got))
    return out


def profile_loop(g: Graph, level: int) -> list[int]:
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

