"""Engine: polynomial and scalar routes, per-edge statistics, unions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nisets import engine as engine_module
from nisets.engine import (
    CountPolynomial,
    Engine,
    WorkLimitExceeded,
    av1_edge,
    edge_terms,
    format_rational,
    i0_polynomial,
    i1_edge_decomposition,
    i1_vertex_recursion,
    nis_summary,
    s1_vertex_recursion,
    summarize,
    tree_scalars,
    union_combine,
)
from nisets.families import FamilySpec, build, closed_form_summary
from nisets.graphs import (
    all_pairs,
    build_graph,
    component_masks,
    disjoint_union,
    graph_from_pair_mask,
    induced,
    is_good_graph,
)
from nisets.oracle import oracle_profile, oracle_summary
from nisets.trees import LevelSequence, level_sequences, sequence_to_adjacency


def path(n):
    return build(FamilySpec("path", n))


def star(n):
    return build(FamilySpec("star", n))


def complete(n):
    return build(FamilySpec("complete", n))


def random_graph(rng, n, p=0.4):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return build_graph(n, edges)


@st.composite
def graphs(draw, max_order):
    n = draw(st.integers(0, max_order))
    return graph_from_pair_mask(n, draw(st.integers(0, (1 << n * (n - 1) // 2) - 1)))


class TestPolynomials:
    def test_zero_edge_examples(self):
        assert i0_polynomial(build_graph(3, [])).coeffs == (1, 3, 3, 1)
        assert i0_polynomial(complete(3)).coeffs == (1, 3)
        assert i0_polynomial(path(4)).sigma == 8

    def test_one_edge_examples(self):
        assert i1_vertex_recursion(star(4)).coeffs == (0, 0, 3)
        assert i1_vertex_recursion(build_graph(5, [])).is_zero()
        assert i1_vertex_recursion(path(4)).coeffs == (0, 0, 3, 2)

    def test_edge_route_examples(self):
        assert i1_edge_decomposition(complete(4)).coeffs == (0, 0, 6)
        assert i1_edge_decomposition(build_graph(2, [(0, 1)])).coeffs == (0, 0, 1)
        assert i1_edge_decomposition(build(FamilySpec("cycle", 4))).coeffs == (0, 0, 4)

    def test_trailing_zeros_rejected(self):
        with pytest.raises(ValueError, match="trailing"):
            CountPolynomial((1, 0))

    def test_negative_coefficients_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            CountPolynomial((1, -1))


class TestSummaries:
    def test_summarize_examples(self):
        s = summarize(CountPolynomial.from_coeffs((0, 0, 3)))
        assert (s.sigma, s.total, s.average) == (3, 6, 2)
        z = summarize(CountPolynomial.from_coeffs(()))
        assert (z.sigma, z.total, z.average) == (0, 0, 0)
        s = summarize(CountPolynomial.from_coeffs((0, 0, 3, 2)))
        assert (s.sigma, s.total, s.average) == (5, 12, Fraction(12, 5))

    def test_scalar_route_examples(self):
        s = s1_vertex_recursion(star(5))
        assert (s.sigma, s.total, s.average) == (4, 8, 2)
        s = s1_vertex_recursion(complete(5))
        assert (s.sigma, s.total, s.average) == (10, 20, 2)
        s = s1_vertex_recursion(build(FamilySpec("R", 10)))
        assert s.average == Fraction(741, 143)

    def test_format_rational(self):
        assert format_rational(Fraction(12, 5)) == "12/5"
        assert format_rational(Fraction(4, 2)) == "2"
        assert format_rational(0) == "0"


class TestUnionCombine:
    def test_two_single_edges(self):
        p2 = build_graph(2, [(0, 1)])
        z, o = union_combine(
            i0_polynomial(p2), i1_vertex_recursion(p2),
            i0_polynomial(p2), i1_vertex_recursion(p2),
        )
        assert o.sigma == 6
        assert i1_vertex_recursion(disjoint_union(p2, p2)).coeffs == o.coeffs
        assert i0_polynomial(disjoint_union(p2, p2)).coeffs == z.coeffs

    def test_empty_graph_is_identity(self):
        g = path(4)
        empty = build_graph(0, [])
        z, o = union_combine(
            i0_polynomial(g), i1_vertex_recursion(g),
            i0_polynomial(empty), i1_vertex_recursion(empty),
        )
        assert z.coeffs == i0_polynomial(g).coeffs
        assert o.coeffs == i1_vertex_recursion(g).coeffs

    def test_zero_edge_average_adds(self):
        e2, e3 = build_graph(2, []), build_graph(3, [])
        z, _ = union_combine(
            i0_polynomial(e2), i1_vertex_recursion(e2),
            i0_polynomial(e3), i1_vertex_recursion(e3),
        )
        s = summarize(z)
        assert s.average == Fraction(5, 2) == Fraction(1) + Fraction(3, 2)

    def test_component_factorization(self):
        rng = random.Random(13)
        for _ in range(25):
            g = random_graph(rng, rng.randrange(2, 10), 0.25)
            comps = component_masks(g)
            if len(comps) < 2:
                continue
            z_total = CountPolynomial.from_coeffs((1,))
            o_total = CountPolynomial.from_coeffs(())
            for comp in comps:
                sub, _ = induced(g, comp)
                z_total, o_total = union_combine(
                    z_total, o_total, i0_polynomial(sub), i1_vertex_recursion(sub))
            assert z_total.coeffs == i0_polynomial(g).coeffs
            assert o_total.coeffs == i1_vertex_recursion(g).coeffs

    @given(graphs(8), graphs(8))
    @settings(max_examples=150, deadline=None)
    def test_matches_engine_on_disjoint_union(self, g1, g2):
        z, o = union_combine(
            i0_polynomial(g1), i1_vertex_recursion(g1),
            i0_polynomial(g2), i1_vertex_recursion(g2),
        )
        eng = Engine(disjoint_union(g1, g2))
        assert z.coeffs == CountPolynomial.from_coeffs(eng.i0()).coeffs
        assert o.coeffs == CountPolynomial.from_coeffs(eng.i1()).coeffs


class TestEdgeStatistics:
    def test_single_edge_with_isolates(self):
        for n in range(3, 9):
            g = build(FamilySpec("G_special", n))
            assert av1_edge(g, (0, 1)) == 2 + Fraction(n - 2, 2)

    def test_complete_edges(self):
        assert av1_edge(complete(5), (0, 1)) == 2

    def test_path4_edge(self):
        assert av1_edge(path(4), (0, 1)) == Fraction(5, 2)

    def test_non_edge_rejected(self):
        with pytest.raises(ValueError, match="not an edge"):
            av1_edge(path(4), (0, 2))

    def test_single_edge_term(self):
        terms = edge_terms(build_graph(2, [(0, 1)]))
        assert len(terms) == 1
        assert terms[0].weight == 1 and terms[0].residual_mask == 0

    def test_triangle_terms(self):
        terms = edge_terms(complete(3))
        assert [t.weight for t in terms] == [Fraction(1, 3)] * 3
        assert all(t.av0 == 0 for t in terms)

    def test_path4_terms(self):
        terms = edge_terms(path(4))
        assert [t.edge for t in terms] == [(0, 1), (1, 2), (2, 3)]
        assert [t.weight for t in terms] == [Fraction(2, 5), Fraction(1, 5), Fraction(2, 5)]
        assert sum(t.weight * t.av0 for t in terms) == Fraction(2, 5)

    def test_weights_sum_to_one(self):
        rng = random.Random(23)
        for _ in range(30):
            g = random_graph(rng, rng.randrange(2, 9))
            if not g.edge_count:
                continue
            terms = edge_terms(g)
            assert sum(t.weight for t in terms) == 1
            s = s1_vertex_recursion(g)
            assert s.average == 2 + sum(t.weight * t.av0 for t in terms)

    def test_edgeless_rejected(self):
        with pytest.raises(ValueError, match="edgeless"):
            edge_terms(build_graph(3, []))


class TestRouteAgreement:
    def test_exhaustive_small_orders(self):
        for n in range(0, 6):
            pairs = all_pairs(n)
            for mask in range(1 << len(pairs)):
                g = graph_from_pair_mask(n, mask, pairs)
                eng = Engine(g)
                p0, p1 = eng.i0(), eng.i1()
                assert p1 == eng.i1_by_edges()
                o0 = oracle_profile(g, 0)
                o1 = oracle_profile(g, 1)
                assert tuple(o0.by_size[: len(p0)]) == p0
                assert all(c == 0 for c in o0.by_size[len(p0):])
                assert tuple(o1.by_size[: len(p1)]) == p1
                assert all(c == 0 for c in o1.by_size[len(p1):])
                assert eng.scalars0() == (o0.sigma, o0.total)
                assert eng.scalars1() == (o1.sigma, o1.total)

    def test_random_medium_orders(self):
        rng = random.Random(97)
        for _ in range(60):
            n = rng.randrange(7, 13)
            g = random_graph(rng, n, rng.choice([0.15, 0.3, 0.5]))
            eng = Engine(g)
            p1 = eng.i1()
            assert p1 == eng.i1_by_edges()
            assert eng.scalars1() == (sum(p1), sum(k * c for k, c in enumerate(p1)))
            p0 = eng.i0()
            assert eng.scalars0() == (sum(p0), sum(k * c for k, c in enumerate(p0)))


def reference_split(g, mask):
    """(isolated count, components of the rest, pivot) from first principles."""
    comps = component_masks(g, mask)
    iso = sum(1 for c in comps if not c & (c - 1))
    inside = [v for v in range(g.n) if mask >> v & 1]
    pivot = max(inside, key=lambda v: ((g.adj[v] & mask).bit_count(), -v), default=-1)
    return iso, [c for c in comps if c & (c - 1)], pivot


def run_all_routes(eng):
    eng.i0()
    eng.i1()
    eng.i1_by_edges()
    eng.scalars0()
    eng.scalars1()
    if eng.graph.edge_count:
        eng.edge_terms()


class TestDecomposition:
    def test_matches_reference_on_every_class_through_order_6(self):
        from nisets.scanner import labeled_graph_classes

        for n in range(1, 7):
            for g, _ in labeled_graph_classes(n):
                eng = Engine(g)
                for mask in range(1 << n):
                    assert eng._split(mask) == reference_split(g, mask)

    @given(graphs(14), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_on_random_graphs(self, g, data):
        masks = data.draw(st.lists(st.integers(0, g.universe), max_size=100))
        eng = Engine(g)
        for mask in [g.universe, *masks]:
            assert eng._split(mask) == reference_split(g, mask)

    def test_each_mask_decomposed_once_across_routes(self, monkeypatch):
        walked = []
        requested = []
        original_walk = engine_module.components_of
        original_split = Engine._split

        def counting_components(adj, mask):
            walked.append(mask)
            return original_walk(adj, mask)

        def logging_split(self, mask):
            requested.append(mask)
            return original_split(self, mask)

        monkeypatch.setattr(engine_module, "components_of", counting_components)
        monkeypatch.setattr(Engine, "_split", logging_split)
        rng = random.Random(5)
        for g in [complete(6), path(9), disjoint_union(star(5), build_graph(3, [])),
                  random_graph(rng, 12, 0.3), random_graph(rng, 13, 0.5)]:
            walked.clear()
            requested.clear()
            eng = Engine(g)
            run_all_routes(eng)
            assert len(walked) == len(set(requested)) == len(eng._dec)
            assert len(requested) > len(walked)

    def test_work_guard_caps_decomposed_masks(self, monkeypatch):
        g = random_graph(random.Random(3), 12, 0.35)
        eng = Engine(g)
        run_all_routes(eng)
        needed = len(eng._dec)
        monkeypatch.setattr(engine_module, "MAX_ENGINE_MASKS", needed)
        run_all_routes(Engine(g))
        monkeypatch.setattr(engine_module, "MAX_ENGINE_MASKS", needed - 1)
        capped = Engine(g)
        with pytest.raises(WorkLimitExceeded, match="more than") as info:
            run_all_routes(capped)
        assert isinstance(info.value, ValueError)
        assert len(capped._dec) == needed - 1


class TestKnownInequalities:
    def test_average_at_least_two_with_good_equality(self):
        for n in range(1, 6):
            pairs = all_pairs(n)
            for mask in range(1, 1 << len(pairs)):
                g = graph_from_pair_mask(n, mask, pairs)
                if not g.edge_count:
                    continue
                s = s1_vertex_recursion(g)
                assert s.average >= 2
                assert (s.average == 2) == is_good_graph(g)

    def test_edge_bracket(self):
        rng = random.Random(31)
        for _ in range(40):
            g = random_graph(rng, rng.randrange(2, 9))
            if not g.edge_count:
                continue
            value = s1_vertex_recursion(g).average
            per_edge = [av1_edge(g, e) for e in g.edges()]
            assert min(per_edge) <= value <= max(per_edge)

    def test_path_one_edge_counts_by_convolution(self):
        # sigma1(P_n) must match the sum over edges of the two leftover paths
        sigma0 = {-1: 1, 0: 1, 1: 2}
        for k in range(2, 21):
            sigma0[k] = sigma0[k - 1] + sigma0[k - 2]
        for n in range(2, 21):
            expected = sum(sigma0[j - 2] * sigma0[n - 2 - j] for j in range(1, n))
            assert s1_vertex_recursion(path(n)).sigma == expected

    def test_closed_neighbourhood_count_sandwich(self):
        rng = random.Random(41)
        for _ in range(40):
            g = random_graph(rng, rng.randrange(2, 9))
            if not g.edge_count:
                continue
            eng = Engine(g)
            sigma_g, _ = eng.scalars0()
            for term in eng.edge_terms():
                u, v = term.edge
                ratio = Fraction(term.sigma0, sigma_g)
                lower = 1 / (
                    Fraction(2) ** (term.union_size - 2)
                    + Fraction(2) ** (term.union_size - term.closed_size_u)
                    + Fraction(2) ** (term.union_size - term.closed_size_v)
                    + 1
                )
                assert lower <= ratio
                assert ratio >= 1 / (3 * Fraction(2) ** (term.union_size - 2) + 1)
                for w in (u, v):
                    s_minus, _ = eng.scalars0(g.universe & ~(1 << w))
                    assert ratio <= 1 - Fraction(s_minus, sigma_g)

    def test_ratio_additivity_over_unions(self):
        rng = random.Random(59)
        for _ in range(25):
            g1 = random_graph(rng, rng.randrange(1, 7))
            g2 = random_graph(rng, rng.randrange(1, 7))
            both = disjoint_union(g1, g2)

            def ratio(g):
                eng = Engine(g)
                return Fraction(eng.scalars1()[0], eng.scalars0()[0])

            assert ratio(both) == ratio(g1) + ratio(g2)


def test_nis_summary_levels():
    g = path(4)
    assert nis_summary(g, 0).sigma == 8
    assert nis_summary(g, 1).average == Fraction(12, 5)
    with pytest.raises(ValueError, match="levels 0 and 1"):
        nis_summary(g, 2)


def test_summary_matches_closed_forms():
    for family in ("edgeless", "star", "complete", "path", "R", "G_special"):
        low = {"R": 4, "G_special": 3}.get(family, 2)
        for n in range(low, 21):
            g = build(FamilySpec(family, n))
            for level in (0, 1):
                want = closed_form_summary(FamilySpec(family, n), level)
                got = nis_summary(g, level)
                assert (got.sigma, got.total, got.average) == (
                    want.sigma, want.total, want.average), (family, n, level)


class TestTreeScalars:
    @pytest.mark.parametrize("n", range(1, 15))
    def test_matches_engine_on_every_free_tree(self, n):
        for seq in level_sequences(n):
            eng = Engine(seq.to_graph())
            assert tree_scalars(seq.levels) == eng.scalars0() + eng.scalars1(), seq.levels

    def test_small_examples(self):
        assert tree_scalars((0,)) == (2, 1, 0, 0)
        assert tree_scalars((0, 1)) == (3, 2, 1, 2)
        # the path on 4 vertices, rooted at an end and at an inner vertex
        assert tree_scalars((0, 1, 2, 3)) == (8, 10, 5, 12)
        assert tree_scalars((0, 1, 2, 1)) == (8, 10, 5, 12)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_labelled_trees_rooted_anywhere(self, data):
        # decode a random Pruefer sequence, root the tree at a random vertex
        # and read the depths in DFS preorder: a valid level sequence that
        # is in general not the canonical one
        n = data.draw(st.integers(2, 16), label="n")
        code = data.draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
        root = data.draw(st.integers(0, n - 1), label="root")
        adj = sequence_to_adjacency(tuple(code), n)
        depths = []
        stack = [(root, -1, 0)]
        while stack:
            v, parent, depth = stack.pop()
            depths.append(depth)
            stack.extend((u, v, depth + 1) for u in adj[v] if u != parent)
        levels = LevelSequence(tuple(depths)).levels
        g = build_graph(n, [(u, v) for u in range(n) for v in adj[u] if u < v])
        got = tree_scalars(levels)
        eng = Engine(g)
        assert got == eng.scalars0() + eng.scalars1()
        if n <= 12:
            for level in (0, 1):
                want = oracle_summary(g, level)
                assert got[2 * level : 2 * level + 2] == (want.sigma, want.total)
