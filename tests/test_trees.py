"""Free-tree generation, counting recurrence and the labelled-tree oracle."""

import hashlib

import numpy as np
import pytest

import nisets.scanner as scanner_module
from crosschecks import (
    labelled_tree_classes,
    reference_rooted_rows,
    reference_segments,
    reference_tree_blocks,
    relabel,
    segment_rows,
    tree_rows,
)
from nisets.graphs import structural_predicates
from nisets.scanner import labeled_graph_classes
from nisets.trees import (
    TREE_ORDER_LIMIT,
    LevelSequence,
    RootedTables,
    _first_rests,
    count_free_trees,
    free_trees,
    level_sequences,
    tree_canonical_key,
    tree_segments,
)

FREE_TREE_COUNTS = [None, 1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301]


@pytest.mark.parametrize("n", range(1, 14))
def test_stream_counts(n):
    trees = list(free_trees(n))
    assert len(trees) == FREE_TREE_COUNTS[n]
    assert count_free_trees(n) == FREE_TREE_COUNTS[n]


@pytest.mark.parametrize("n", range(1, 12))
def test_every_emission_is_a_tree(n):
    for tree in free_trees(n):
        assert tree.n == n and structural_predicates(tree).is_tree


@pytest.mark.parametrize("n", range(1, 14))
def test_no_two_emissions_share_a_canonical_code(n):
    keys = [tree_canonical_key(tree) for tree in free_trees(n)]
    assert len(set(keys)) == len(keys)


# (tree count, SHA-256 of every tree's level bytes in stream order), as the
# tuple-per-tree generator produced them before the block stream (order 20:
# as the whole-sequence walk of ``reference_tree_blocks`` produced it)
STREAM_DIGESTS = {
    10: (106, "affcca541476d16f9474d3ece3376d47d52255242c4bfbdb12851f41e51c93b5"),
    14: (3159, "86b198329454b54ff105dd773d4696e4a1be3ae9f1c67e7b0248094635df7091"),
    16: (19320, "b7af4ae64e9411115cfb0fcc27a5503dc220dd261ef546d9aa9272476361a608"),
    18: (123867, "197cd0965db5676a891f02d3921ee0fdaaca6d5198e9ccadd1be18a06c644f54"),
    20: (823065, "8588ba97528326f7bfa7dcec59f4b217e4ca511dd5e0b09369afcdea88a53f48"),
}


def rows_digest(rows):
    return len(rows), hashlib.sha256(rows.tobytes()).hexdigest()


def stream_digest(n):
    rows = tree_rows(n)
    assert rows.dtype == np.int8 and rows.shape[1] == n
    return rows_digest(rows)


@pytest.mark.parametrize("n", sorted(STREAM_DIGESTS))
def test_stream_order_is_pinned(n):
    assert stream_digest(n) == STREAM_DIGESTS[n]


def test_stream_length_matches_the_counting_recurrence():
    for n in range(1, 19):
        assert len(tree_rows(n)) == count_free_trees(n), n


def test_segments_refuse_an_order_their_tables_cannot_serve():
    tables = RootedTables(10)
    for n in (11, 12, 25):
        with pytest.raises(ValueError, match=f"serve orders 2..10, not {n}"):
            next(tree_segments(tables, n))


def test_segments_refuse_an_order_below_two():
    # order 1 has one tree, but no first root subtree to join a rest to
    tables = RootedTables(10)
    for n in (1, 0, -1):
        with pytest.raises(ValueError, match=f"serve orders 2..10, not {n}"):
            next(tree_segments(tables, n))
    assert [seq.levels for n in (1, 2) for seq in level_sequences(n)] == [(0,), (0, 1)]


def test_segments_equal_the_heap_merge_walk():
    # the sorted-array searches against the lazy walk, over each order's
    # own tables and over the order-18 ones, and at order 20
    def check(tables, n):
        got = tree_segments(tables, n)
        assert got.dtype == np.int32 and got.shape[1] == 4, n
        assert (got[:, 2] < got[:, 3]).all(), n
        assert got.tolist() == [list(segment) for segment in reference_segments(tables, n)], n

    top = RootedTables(18)
    for n in range(2, 19):
        check(RootedTables(n), n)
        check(top, n)
    check(RootedTables(20), 20)
    # the searches read rows as 'S' bytes, which ignore trailing NULs; only
    # a row's root is 0, so the one row that ends in a NUL, the single
    # vertex, still sorts below every longer row
    assert np.argsort(np.array([b"\0\1\2", b"\0", b"\0\1"], dtype="S3")).tolist() == [1, 2, 0]


def test_rooted_tables_equal_the_walk(order_limit_tables):
    # the joined tables against the Beyer-Hedetniemi walk of each size from
    # its first row, at every top to 20 and at the order limit
    for top in [*range(2, 21), TREE_ORDER_LIMIT]:
        tables = order_limit_tables.rooted if top == TREE_ORDER_LIMIT else RootedTables(top)
        walk = reference_rooted_rows(top)
        assert sorted(tables.tables) == sorted(walk), top
        for k, rows in walk.items():
            assert tables.tables[k].dtype == np.int8 and tables.tables[k].shape[1] == k
            assert tables.tables[k].tobytes() == rows, (top, k)


def first_child(levels: bytes) -> bytes:
    """The first child subtree of a rooted level sequence, read from its
    own root; empty for the single vertex."""
    cut = levels.find(1, 2) % (len(levels) + 1)  # the root's second child, or the end
    return bytes(level - 1 for level in levels[1:cut])


def test_joins_spell_the_rows():
    # each segment (c, t, a, b) of a size's joins spells its rows as the
    # root, C + 1 and R'[1:], for C row t of size c and each R' in rows a
    # to b - 1 of size k - c: the whole suffix whose first child is at
    # most C
    for top in range(2, 19):
        tables = RootedTables(top)
        assert sorted(tables.joins) == list(range(2, top)), top
        rows = {k: [row.tobytes() for row in table] for k, table in tables.tables.items()}
        for k, joins in tables.joins.items():
            assert joins.dtype == np.int32 and joins.shape[1] == 4, (top, k)
            spelled = []
            for c, t, a, b in joins.tolist():
                first, rests = rows[c][t], rows[k - c]
                assert a < b == len(rests), (top, k, c, t)
                assert a == 0 or first_child(rests[a - 1]) > first, (top, k, c, t)
                for rest in rests[a:b]:
                    assert first_child(rest) <= first, (top, k, c, t)
                    spelled.append(b"\0" + bytes(level + 1 for level in first) + rest[1:])
            assert b"".join(spelled) == tables.tables[k].tobytes(), (top, k)


def rest_keys(first):
    """The keys ``_first_rests`` searches for the first subtrees of a
    (B, s) int8 array: the root, T + 1 and a level-2 vertex."""
    s = first.shape[1]
    key = np.full((len(first), s + 2), 2, dtype=np.int8)
    key[:, 0], key[:, 1:-1] = 0, first + 1
    return key.view(f"S{s + 2}")[:, 0]


@pytest.mark.parametrize("top", [18, TREE_ORDER_LIMIT])
def test_searches_over_reversed_rows_equal_those_over_a_copy(request, top):
    # tree_segments and RootedTables search each size's rows through a
    # reversed, strided 'S' view; the rows themselves, the rests' keys of
    # ``_first_rests`` at order top and at every (k, c) join of the tables,
    # and each join's path bound, searched from the right, must land where
    # they land in the view's contiguous copy
    if top == TREE_ORDER_LIMIT:
        tables = request.getfixturevalue("order_limit_tables").rooted.tables
    else:
        tables = RootedTables(top).tables

    def copy_of(m):
        rows = tables[m].view(f"S{m}")[::-1, 0]
        assert len(rows) == 1 or not rows.flags.c_contiguous, m
        return rows, np.ascontiguousarray(rows)

    for m, table in tables.items():
        rows, copy = copy_of(m)
        key = table.view(f"S{m}")[:, 0]
        assert np.array_equal(np.searchsorted(rows, key), np.searchsorted(copy, key)), m
        if top - m in tables:
            first = tables[top - m]
            want = len(copy) - np.searchsorted(copy, rest_keys(first))
            assert np.array_equal(_first_rests(table, first), want), m
    for k in range(2, top):
        path = bytes(range(min(k - 1, top - k)))
        for c in range(1, k):
            rows, copy = copy_of(c)
            lo = np.searchsorted(rows, path, "right")
            assert lo == np.searchsorted(copy, path, "right"), (k, c)
            first = tables[c][len(rows) - lo:]
            want = len(tables[k - c]) - np.searchsorted(copy_of(k - c)[1], rest_keys(first))
            assert np.array_equal(_first_rests(tables[k - c], first), want), (k, c)


@pytest.mark.parametrize("block", [1, 7, 1024])
def test_block_size_does_not_change_the_stream(monkeypatch, block):
    # the sweeps' cutter at blocks of ``block`` trees: each run spells
    # ``_RUN_BLOCKS`` consecutive blocks of the whole-sequence walk, the
    # last run and its last block possibly shorter
    monkeypatch.setattr(scanner_module, "_BLOCK", block)
    per = scanner_module._RUN_BLOCKS
    assert [b.tolist() for b in reference_tree_blocks(1, block)] == [[[0]]]
    for n in range(2, 19):
        tables = RootedTables(n)
        runs = list(scanner_module._runs(tree_segments(tables, n)))
        got = [segment_rows(tables, n, segments) for _, segments in runs]
        want = list(reference_tree_blocks(n, block))
        assert all(len(b) == block for b in want[:-1]) and 1 <= len(want[-1]) <= block, n
        assert [first for first, _ in runs] == list(range(0, count_free_trees(n), per * block)), n
        assert all(b.dtype == np.int8 and b.shape[1] == n for b in got), n
        assert [b.tobytes() for b in got] == [b"".join(w.tobytes() for w in want[k:k + per])
                                              for k in range(0, len(want), per)], n
        if n in STREAM_DIGESTS:
            assert rows_digest(np.concatenate(got)) == STREAM_DIGESTS[n]


@pytest.mark.parametrize("n", [8, 12, 16])
def test_stream_is_strictly_decreasing(n):
    rows = [bytes(seq.levels) for seq in level_sequences(n)]
    assert rows == [row.tobytes() for row in tree_rows(n)]
    assert all(a > b for a, b in zip(rows, rows[1:]))


def test_stream_is_deterministic():
    first = [seq.levels for seq in level_sequences(9)]
    second = [seq.levels for seq in level_sequences(9)]
    assert first == second


def test_level_sequence_validation():
    with pytest.raises(ValueError, match="depth 0"):
        LevelSequence((1, 2))
    with pytest.raises(ValueError, match="depth jump"):
        LevelSequence((0, 2))
    with pytest.raises(ValueError, match="depth jump"):
        LevelSequence((0, 1, 3))


def test_level_sequence_decodes_path_and_star():
    path = LevelSequence((0, 1, 2, 3)).to_graph()
    assert sorted(path.degree(v) for v in range(4)) == [1, 1, 2, 2]
    star = LevelSequence((0, 1, 1, 1)).to_graph()
    assert sorted(star.degree(v) for v in range(4)) == [1, 1, 1, 3]


def test_order_limits():
    with pytest.raises(ValueError, match="1..24"):
        list(free_trees(0))
    with pytest.raises(ValueError, match="1..24"):
        list(free_trees(25))
    with pytest.raises(ValueError, match="1..24"):
        count_free_trees(25)


@pytest.mark.parametrize("n", range(1, 8))
def test_labelled_tree_oracle_small(n):
    assert labelled_tree_classes(n) == FREE_TREE_COUNTS[n]


def test_labelled_tree_oracle_limit():
    with pytest.raises(ValueError, match="limited"):
        labelled_tree_classes(11)


def test_canonical_keys_match_the_orbit_walk_tree_classes():
    # the orbit walk finds each isomorphism class once, independently of
    # the level-sequence generator
    for n in range(1, 8):
        keys = [tree_canonical_key(t) for t in free_trees(n)]
        walked = [tree_canonical_key(g) for g, _ in labeled_graph_classes(n)
                  if structural_predicates(g).is_tree]
        assert sorted(keys) == sorted(walked) and len(set(keys)) == len(keys), n


def test_canonical_key_is_relabelling_invariant():
    import random

    rng = random.Random(17)
    for tree in free_trees(9):
        perm = list(range(9))
        rng.shuffle(perm)
        assert tree_canonical_key(relabel(tree, perm)) == tree_canonical_key(tree)
