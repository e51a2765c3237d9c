"""Graph core: construction, neighbourhoods, predicates, canonical codes."""

from itertools import combinations, permutations

import pytest

from nisets.families import FamilySpec, build
from nisets.graphs import (
    all_pairs,
    build_graph,
    canonical_code,
    closed_neighborhood_union,
    component_masks,
    delta_bounds,
    disjoint_union,
    graph_from_pair_mask,
    induced,
    is_connected,
    is_good_graph,
    is_tree,
    iter_bits,
    relabel,
    structural_predicates,
)


def path(n):
    return build(FamilySpec("path", n))


def star(n):
    return build(FamilySpec("star", n))


def complete(n):
    return build(FamilySpec("complete", n))


def cycle(n):
    return build(FamilySpec("cycle", n))


class TestBuildGraph:
    def test_single_edge(self):
        g = build_graph(2, [(0, 1)])
        assert g.edge_count == 1 and g.adj == (0b10, 0b01)

    def test_edgeless(self):
        g = build_graph(3, [])
        assert g.adj == (0, 0, 0)

    def test_path_degrees(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        assert [g.degree(v) for v in range(4)] == [1, 2, 2, 1]

    def test_duplicates_collapse(self):
        g = build_graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1

    def test_rejects_order_above_universe(self):
        with pytest.raises(ValueError, match="64"):
            build_graph(65, [])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            build_graph(3, [(0, 3)])

    def test_rejects_loop(self):
        with pytest.raises(ValueError, match="loop"):
            build_graph(3, [(1, 1)])


class TestNeighbourhoodUnion:
    def test_open_union_on_path_edge(self):
        g = path(4)
        assert closed_neighborhood_union(g, 0, 1, closed=False) == 0b0111

    def test_complete_edge_covers_everything(self):
        for n in range(2, 8):
            g = complete(n)
            assert closed_neighborhood_union(g, 0, 1, closed=False) == g.universe

    def test_closed_union_without_edges(self):
        g = build_graph(3, [])
        assert closed_neighborhood_union(g, 0, 1) == 0b011

    def test_closed_equals_open_size_on_edges(self):
        # exhaustive: whenever uv is an edge the two unions coincide
        for n in range(2, 6):
            pairs = all_pairs(n)
            for mask in range(1 << len(pairs)):
                g = graph_from_pair_mask(n, mask, pairs)
                for u, v in g.edges():
                    open_u = closed_neighborhood_union(g, u, v, closed=False)
                    closed_u = closed_neighborhood_union(g, u, v, closed=True)
                    assert open_u == closed_u
                    assert open_u.bit_count() >= 2

    def test_same_vertex_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            closed_neighborhood_union(path(3), 1, 1)


class TestInduced:
    def test_path_minus_three_is_single_vertex(self):
        g, mapping = induced(path(4), 0b1000)
        assert g.n == 1 and g.edge_count == 0 and mapping == (3,)

    def test_identity(self):
        k4 = complete(4)
        g, mapping = induced(k4, k4.universe)
        assert g == k4 and mapping == (0, 1, 2, 3)

    def test_cycle_minus_vertex_is_path(self):
        g, _ = induced(cycle(4), 0b1110)
        assert canonical_code(g) == canonical_code(path(3))

    def test_contravariant(self):
        g = cycle(5)
        for first in range(1 << 5):
            g1, map1 = induced(g, first)
            for second in range(1 << g1.n):
                g2, _ = induced(g1, second)
                back = 0
                for new_index in iter_bits(second):
                    back |= 1 << map1[new_index]
                direct, _ = induced(g, back)
                assert g2 == direct


class TestGoodGraph:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_stars_and_completes_are_good(self, n):
        assert is_good_graph(star(n))
        assert is_good_graph(complete(n))

    def test_path4_not_good(self):
        assert not is_good_graph(path(4))

    def test_edgeless_not_good(self):
        assert not is_good_graph(build_graph(1, []))
        assert not is_good_graph(build_graph(5, []))


class TestDeltaBounds:
    def test_triangle(self):
        assert delta_bounds(complete(3)) == (3, 3)

    def test_path4(self):
        assert delta_bounds(path(4)) == (3, 4)

    def test_single_edge_with_isolates(self):
        assert delta_bounds(build(FamilySpec("G_special", 6))) == (2, 2)

    def test_edgeless_rejected(self):
        with pytest.raises(ValueError, match="edgeless"):
            delta_bounds(build_graph(4, []))

    def test_bounds_ordering_exhaustive(self):
        for n in range(2, 6):
            pairs = all_pairs(n)
            for mask in range(1, 1 << len(pairs)):
                g = graph_from_pair_mask(n, mask, pairs)
                d1, d2 = delta_bounds(g)
                assert 2 <= d1 <= d2 <= n


class TestStructuralPredicates:
    def test_star_internal_degree(self):
        for n in range(3, 8):
            s = structural_predicates(star(n))
            assert s.is_tree and s.min_internal_degree == n - 1

    def test_path_internal_degree(self):
        s = structural_predicates(path(4))
        assert s.is_tree and s.min_internal_degree == 2

    def test_cycle(self):
        s = structural_predicates(cycle(4))
        assert s.is_connected and not s.is_tree and s.max_degree == 2

    def test_no_internal_vertex(self):
        s = structural_predicates(build_graph(2, [(0, 1)]))
        assert s.min_internal_degree is None

    def test_isolated_vertex(self):
        assert structural_predicates(build_graph(3, [(0, 1)])).has_isolated_vertex

    def test_agrees_with_predicates_on_every_class(self):
        from nisets.scanner import labeled_graph_classes

        for n in range(1, 8):
            for g, _ in labeled_graph_classes(n):
                s = structural_predicates(g)
                assert (s.is_connected, s.is_tree) == (is_connected(g), is_tree(g))


class TestCanonicalCode:
    def test_relabelled_paths_agree(self):
        g = path(4)
        codes = {canonical_code(relabel(g, perm)) for perm in permutations(range(4))}
        assert len(codes) == 1

    def test_path_vs_star_differ(self):
        assert canonical_code(path(4)) != canonical_code(star(4))

    def test_triangle_all_orders(self):
        g = complete(3)
        codes = {canonical_code(relabel(g, perm)) for perm in permutations(range(3))}
        assert len(codes) == 1

    def test_order_limit(self):
        with pytest.raises(ValueError, match="order too large"):
            canonical_code(build_graph(11, []))

    @pytest.mark.parametrize("n,classes", [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34)])
    def test_partitions_labeled_graphs(self, n, classes):
        pairs = all_pairs(n)
        codes = {canonical_code(graph_from_pair_mask(n, mask, pairs))
                 for mask in range(1 << len(pairs))}
        assert len(codes) == classes

    def test_partition_at_order_six_matches_orbit_scan(self):
        # all 32768 labelled graphs collapse to the regression value of 156
        # classes, the same count the scanner's orbit enumeration finds
        from nisets.scanner import labeled_graph_classes

        pairs = all_pairs(6)
        codes = {canonical_code(graph_from_pair_mask(6, mask, pairs))
                 for mask in range(1 << 15)}
        assert len(codes) == 156 == len(labeled_graph_classes(6))

    def test_code_is_invariant_on_samples(self):
        import random

        rng = random.Random(11)
        for _ in range(50):
            n = rng.randrange(2, 9)
            edges = [pair for pair in combinations(range(n), 2) if rng.random() < 0.4]
            g = build_graph(n, edges)
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_code(g) == canonical_code(relabel(g, perm))


class TestDisjointUnion:
    def test_edge_plus_isolate(self):
        g = disjoint_union(build_graph(2, [(0, 1)]), build_graph(1, []))
        assert g.n == 3 and g.edge_count == 1

    def test_empty_identity(self):
        g = path(4)
        assert disjoint_union(g, build_graph(0, [])) == g
        assert disjoint_union(build_graph(0, []), g) == g

    def test_two_edges(self):
        g = disjoint_union(build_graph(2, [(0, 1)]), build_graph(2, [(0, 1)]))
        assert g.n == 4 and g.edge_count == 2
        assert len(component_masks(g)) == 2

    def test_universe_overflow(self):
        g33 = build_graph(33, [])
        with pytest.raises(ValueError, match="64"):
            disjoint_union(g33, build_graph(32, []))


def test_is_tree():
    assert is_tree(path(5)) and is_tree(star(6)) and is_tree(build_graph(1, []))
    assert not is_tree(cycle(4))
    assert not is_tree(build_graph(3, [(0, 1)]))
