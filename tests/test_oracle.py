"""Brute-force subset oracle: profiles, summaries, limits."""

import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosschecks import profile_loop
from nisets.families import FamilySpec, build
from nisets.graphs import build_graph, graph_from_pair_mask
from nisets.oracle import (
    oracle_profile,
    oracle_profiles,
    oracle_summary,
)
from nisets.scanner import labeled_graph_classes


def test_star_profile():
    g = build(FamilySpec("star", 4))
    profile = oracle_profile(g, 1)
    assert profile.by_size == (0, 0, 3, 0, 0)
    assert profile.sigma == 3


def test_edgeless_profile_is_zero():
    profile = oracle_profile(build_graph(5, []), 1)
    assert profile.by_size == (0,) * 6


def test_path4_profile():
    profile = oracle_profile(build(FamilySpec("path", 4)), 1)
    assert profile.by_size == (0, 0, 3, 2, 0)
    assert profile.sigma == 5 and profile.total == 12


def test_complete_summary():
    s = oracle_summary(build(FamilySpec("complete", 4)), 1)
    assert (s.sigma, s.total, s.average) == (6, 12, 2)


def test_edgeless_average_is_zero():
    for n in (1, 3, 6):
        s = oracle_summary(build_graph(n, []), 1)
        assert (s.sigma, s.total, s.average) == (0, 0, 0)


def test_edgeless_level_zero():
    s = oracle_summary(build_graph(4, []), 0)
    assert (s.sigma, s.total, s.average) == (16, 32, 2)


def test_profile_shape_invariants():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randrange(1, 9)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        g = build_graph(n, edges)
        p0 = oracle_profile(g, 0)
        p1 = oracle_profile(g, 1)
        assert len(p0.by_size) == n + 1 and len(p1.by_size) == n + 1
        assert p0.by_size[0] == 1
        assert p1.by_size[0] == 0 and (n < 1 or p1.by_size[1] == 0)


def test_levels_partition_all_subsets():
    rng = random.Random(6)
    for _ in range(20):
        n = rng.randrange(1, 9)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        g = build_graph(n, edges)
        counts = [profile.sigma for profile in oracle_profiles(g)]
        assert sum(counts) == 1 << n
        for level, count in enumerate(counts):
            assert oracle_profile(g, level).sigma == count


def test_path_counts_follow_fibonacci():
    values = {}
    for n in range(0, 21):
        values[n] = oracle_profile(build(FamilySpec("path", n)), 0).sigma
    assert values[0] == 1 and values[1] == 2
    for n in range(2, 21):
        assert values[n] == values[n - 1] + values[n - 2]


def test_vectorized_and_loop_paths_agree():
    rng = random.Random(7)
    for n in (12, 13, 14):
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.25]
        g = build_graph(n, edges)
        for level in (0, 1, 2):
            assert list(oracle_profile(g, level).by_size) == profile_loop(g, level)


def test_table_matches_loop_on_every_class_through_order_6():
    for n in range(1, 7):
        for g, _ in labeled_graph_classes(n):
            profiles = oracle_profiles(g)
            assert len(profiles) == g.edge_count + 1
            for level in range(g.edge_count + 2):
                assert list(oracle_profile(g, level).by_size) == profile_loop(g, level)


@st.composite
def graphs(draw, max_order):
    n = draw(st.integers(0, max_order))
    return graph_from_pair_mask(n, draw(st.integers(0, (1 << n * (n - 1) // 2) - 1)))


@given(graphs(14))
@settings(max_examples=30, deadline=None)
def test_table_matches_loop_on_random_graphs(g):
    profiles = oracle_profiles(g)
    for level in range(min(3, len(profiles))):
        assert list(profiles[level].by_size) == profile_loop(g, level)
    assert all(p.induced_edges == level for level, p in enumerate(profiles))
    assert sum(p.sigma for p in profiles) == 1 << g.n


@pytest.mark.parametrize("n", [23, 24])
def test_table_keys_fit_at_the_widest_orders(n):
    # K_n's subsets of size k all induce C(k,2) edges: the largest keys
    profiles = oracle_profiles(build(FamilySpec("complete", n)))
    assert len(profiles) == comb(n, 2) + 1
    for level, profile in enumerate(profiles):
        want = tuple(comb(n, k) if comb(k, 2) == level else 0 for k in range(n + 1))
        assert profile.by_size == want, level
    assert sum(p.sigma for p in profiles) == 1 << n


def test_order_limit():
    with pytest.raises(ValueError, match="oracle limit"):
        oracle_profile(build_graph(25, []), 1)


def test_negative_level_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        oracle_profile(build_graph(3, []), -1)
