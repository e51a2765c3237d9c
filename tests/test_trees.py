"""Free-tree generation, counting recurrence and the labelled-tree oracle."""

import hashlib

import numpy as np
import pytest

import nisets.scanner as scanner_module
from crosschecks import (
    labelled_tree_classes,
    reference_tree_blocks,
    relabel,
    segment_rows,
    tree_rows,
)
from nisets.graphs import structural_predicates
from nisets.scanner import labeled_graph_classes
from nisets.trees import (
    LevelSequence,
    RootedTables,
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
        runs = list(scanner_module._runs(tables, n))
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
