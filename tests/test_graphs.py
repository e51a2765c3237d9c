"""Graph core: construction, neighbourhoods, predicates."""

import pytest

from nisets.engine import Engine
from nisets.families import FamilySpec, build
from nisets.graphs import (
    all_pairs,
    build_graph,
    components_of,
    disjoint_union,
    graph_from_pair_mask,
    is_connected,
    is_good_graph,
    iter_bits,
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


def union_sizes(g):
    """|N(u) | N(v)| of each edge uv, read off the engine's edge terms."""
    return [term.union_size for term in Engine(g).edge_terms()]


class TestNeighbourhoodUnion:
    def test_open_union_on_path_edge(self):
        assert union_sizes(path(4))[0] == 3  # N(0) | N(1) = {0, 1, 2}

    def test_complete_edge_covers_everything(self):
        for n in range(2, 8):
            assert union_sizes(complete(n)) == [n] * (n * (n - 1) // 2)

    def test_closed_equals_open_size_on_edges(self):
        # exhaustive: whenever uv is an edge the open union already holds u
        # and v, so it has the size of the closed one
        for n in range(2, 6):
            pairs = all_pairs(n)
            for mask in range(1, 1 << len(pairs)):
                g = graph_from_pair_mask(n, mask, pairs)
                closed = [(g.adj[u] | g.adj[v] | 1 << u | 1 << v).bit_count()
                          for u, v in g.edges()]
                assert union_sizes(g) == closed
                assert min(closed) >= 2


class TestInduced:
    # the engine reads an induced subgraph as a vertex mask of its root graph
    def test_path_minus_three_is_single_vertex(self):
        eng = Engine(path(4))
        assert (eng.i0(0b1000), eng.i1(0b1000)) == ((1, 1), ())

    def test_cycle_minus_vertex_is_path(self):
        eng, p3 = Engine(cycle(4)), Engine(path(3))
        assert (eng.i0(0b1110), eng.i1(0b1110)) == (p3.i0(), p3.i1())


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
    # (min, max) of |N(u) | N(v)| over the edges
    def test_triangle(self):
        assert set(union_sizes(complete(3))) == {3}

    def test_path4(self):
        sizes = union_sizes(path(4))
        assert (min(sizes), max(sizes)) == (3, 4)

    def test_single_edge_with_isolates(self):
        assert union_sizes(build(FamilySpec("G_special", 6))) == [2]

    def test_edgeless_rejected(self):
        with pytest.raises(ValueError, match="edgeless"):
            union_sizes(build_graph(4, []))

    def test_bounds_ordering_exhaustive(self):
        for n in range(2, 6):
            pairs = all_pairs(n)
            for mask in range(1, 1 << len(pairs)):
                sizes = union_sizes(graph_from_pair_mask(n, mask, pairs))
                assert 2 <= min(sizes) <= max(sizes) <= n


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
                tree = is_connected(g) and g.edge_count == n - 1
                assert (s.is_connected, s.is_tree) == (is_connected(g), tree)


def closure_components(g, mask):
    """Components by repeated neighbourhood closure over vertex sets."""
    left = {v for v in range(g.n) if mask >> v & 1}
    comps = []
    while left:
        comp = {min(left)}
        while True:
            grown = comp | {u for v in comp for u in iter_bits(g.adj[v]) if u in left}
            if grown == comp:
                break
            comp = grown
        comps.append(sum(1 << v for v in comp))
        left -= comp
    return comps


class TestComponents:
    def test_every_mask_of_small_graphs(self):
        graphs = [path(6), cycle(6), complete(5), star(6),
                  disjoint_union(cycle(4), build_graph(3, [(0, 2)]))]
        for g in graphs:
            for mask in range(1 << g.n):
                want = closure_components(g, mask)
                assert components_of(g.adj, mask) == want

    def test_empty_mask(self):
        assert components_of(path(3).adj, 0) == []


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
        assert len(components_of(g.adj, g.universe)) == 2

    def test_universe_overflow(self):
        g33 = build_graph(33, [])
        with pytest.raises(ValueError, match="64"):
            disjoint_union(g33, build_graph(32, []))


def test_is_tree():
    def is_tree(g):
        return structural_predicates(g).is_tree

    assert is_tree(path(5)) and is_tree(star(6)) and is_tree(build_graph(1, []))
    assert not is_tree(cycle(4))
    assert not is_tree(build_graph(3, [(0, 1)]))
