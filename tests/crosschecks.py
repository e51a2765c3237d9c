"""Independent cross-checks that only the tests use: the polynomials of a
disjoint union from its parts, in coefficient-tuple arithmetic rather than
the engine's packed integers, vertex relabelling, a canonical form of
small graphs by its definition, a labelled-tree oracle
that decodes every length-(n-2) vertex sequence, the known ratio table of
small paths and cycles, and a plain loop over the subsets for one level of
the subset oracle."""

from fractions import Fraction
from itertools import permutations, product

from nisets.engine import Engine
from nisets.families import FamilySpec, build
from nisets.graphs import Graph, all_pairs, iter_bits
from nisets.trees import _centers, _rooted_key

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

