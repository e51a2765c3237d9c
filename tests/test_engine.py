"""Engine: polynomial and scalar routes, per-edge statistics, unions."""

import random
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosschecks import sequence_to_adjacency, tree_scalars_batch, union_combine
from nisets import cli
from nisets import engine as engine_module
from nisets.engine import (
    Engine,
    WorkLimitExceeded,
    format_rational,
    moments,
    nis_summary,
    tree_scalars,
)
from nisets.families import FamilySpec, build, closed_form_summary
from nisets.graphs import (
    all_pairs,
    build_graph,
    components_of,
    disjoint_union,
    graph_from_pair_mask,
    is_good_graph,
)
from nisets.oracle import OracleProfile, oracle_profiles, oracle_summary
from nisets.trees import (
    TREE_BLOCK,
    TREE_ORDER_LIMIT,
    LevelSequence,
    level_parents,
    level_sequences,
    levels_to_graph,
    tree_blocks,
)


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
        assert Engine(build_graph(3, [])).i0() == (1, 3, 3, 1)
        assert Engine(complete(3)).i0() == (1, 3)
        assert nis_summary(path(4), 0).sigma == 8

    def test_one_edge_examples(self):
        assert Engine(star(4)).i1() == (0, 0, 3)
        assert Engine(build_graph(5, [])).i1() == ()
        assert Engine(path(4)).i1() == (0, 0, 3, 2)

    def test_edge_route_examples(self):
        assert Engine(complete(4)).i1_by_edges() == (0, 0, 6)
        assert Engine(build_graph(2, [(0, 1)])).i1_by_edges() == (0, 0, 1)
        assert Engine(build(FamilySpec("cycle", 4))).i1_by_edges() == (0, 0, 4)

    def test_routes_return_no_negative_or_trailing_zero_coefficient(self):
        offenders, checked = [], 0
        for n in range(0, 6):
            pairs = all_pairs(n)
            for mask in range(1 << len(pairs)):
                eng = Engine(graph_from_pair_mask(n, mask, pairs))
                for route in (eng.i0, eng.i1, eng.i1_by_edges):
                    p = route()
                    checked += 1
                    if type(p) is not tuple or any(c < 0 for c in p) or p[-1:] == (0,):
                        offenders.append((n, mask, route.__name__, p))
        assert checked == 3300 and offenders == []


class TestPackedSlots:
    """Closed forms at the edges of the universe, where a coefficient comes
    closest to the slot width of the engine's packed polynomials."""

    @staticmethod
    def check(g, p0, p1):
        eng = Engine(g)
        assert eng.i0() == p0
        assert eng.i1() == eng.i1_by_edges() == p1
        assert eng.scalars0() == (sum(p0), sum(k * c for k, c in enumerate(p0)))
        assert eng.scalars1() == (sum(p1), sum(k * c for k, c in enumerate(p1)))

    def test_edgeless_64(self):
        p0 = tuple(comb(64, k) for k in range(65))
        assert max(p0) == comb(64, 32) > 1 << 60
        self.check(build_graph(64, []), p0, ())

    def test_perfect_matching_64(self):
        # (1 + 2x)^32 and 32·x²·(1 + 2x)^31: one edge whole, every other
        # edge empty or with one of its two ends
        g = build_graph(64, [(2 * i, 2 * i + 1) for i in range(32)])
        p0 = tuple(comb(32, k) << k for k in range(33))
        p1 = (0, 0, *(32 * comb(31, k) << k for k in range(32)))
        self.check(g, p0, p1)

    def test_star_64(self):
        # the leaves alone, or the centre alone, or the centre with one leaf
        p0 = tuple(comb(63, k) + (k == 1) for k in range(64))
        self.check(star(64), p0, (0, 0, 63))

    def test_orders_zero_and_one(self):
        self.check(build_graph(0, []), (1,), ())
        self.check(build_graph(1, []), (1, 1), ())


class TestSummaries:
    def test_summarize_examples(self):
        s = nis_summary(star(4), 1)
        assert (s.sigma, s.total, s.average) == (3, 6, 2)
        z = nis_summary(build_graph(3, []), 1)
        assert (z.sigma, z.total, z.average) == (0, 0, 0)
        s = nis_summary(path(4), 1)
        assert (s.sigma, s.total, s.average) == (5, 12, Fraction(12, 5))

    def test_scalar_route_examples(self):
        s = nis_summary(star(5), 1)
        assert (s.sigma, s.total, s.average) == (4, 8, 2)
        s = nis_summary(complete(5), 1)
        assert (s.sigma, s.total, s.average) == (10, 20, 2)
        s = nis_summary(build(FamilySpec("R", 10)), 1)
        assert s.average == Fraction(741, 143)

    @given(st.integers(-10**20, 10**20), st.integers(1, 10**20))
    @settings(max_examples=300, deadline=None)
    def test_format_rational(self, num, den):
        assert format_rational(Fraction(12, 5)) == "12/5"
        assert format_rational(Fraction(4, 2)) == "2"
        assert format_rational(0) == "0"
        # an int pair reads as the Fraction it stands for, a zero and a
        # whole quotient included; an int or a Fraction alone reads as itself
        for pair in ((num, den), (0, den), (num * den, den)):
            assert format_rational(*pair) == format_rational(Fraction(*pair)) == str(Fraction(*pair))
        assert format_rational(num) == str(num) == format_rational(num, 1)
        assert format_rational(Fraction(num, den)) == str(Fraction(num, den))


class TestUnionCombine:
    def test_two_single_edges(self):
        p2 = Engine(build_graph(2, [(0, 1)]))
        z, o = union_combine(p2.i0(), p2.i1(), p2.i0(), p2.i1())
        assert sum(o) == 6
        both = Engine(disjoint_union(p2.graph, p2.graph))
        assert both.i1() == o
        assert both.i0() == z

    def test_empty_graph_is_identity(self):
        g = Engine(path(4))
        empty = Engine(build_graph(0, []))
        z, o = union_combine(g.i0(), g.i1(), empty.i0(), empty.i1())
        assert z == g.i0()
        assert o == g.i1()

    def test_zero_edge_average_adds(self):
        e2, e3 = Engine(build_graph(2, [])), Engine(build_graph(3, []))
        z, _ = union_combine(e2.i0(), e2.i1(), e3.i0(), e3.i1())
        average = Fraction(sum(k * c for k, c in enumerate(z)), sum(z))
        assert average == Fraction(5, 2) == Fraction(1) + Fraction(3, 2)

    def test_component_factorization(self):
        rng = random.Random(13)
        for _ in range(25):
            g = random_graph(rng, rng.randrange(2, 10), 0.25)
            comps = components_of(g.adj, g.universe)
            if len(comps) < 2:
                continue
            eng = Engine(g)
            z_total, o_total = (1,), ()
            for comp in comps:
                z_total, o_total = union_combine(z_total, o_total, eng.i0(comp), eng.i1(comp))
            assert z_total == eng.i0()
            assert o_total == eng.i1()

    @given(graphs(8), graphs(8))
    @settings(max_examples=150, deadline=None)
    def test_matches_engine_on_disjoint_union(self, g1, g2):
        e1, e2 = Engine(g1), Engine(g2)
        z, o = union_combine(e1.i0(), e1.i1(), e2.i0(), e2.i1())
        eng = Engine(disjoint_union(g1, g2))
        assert z == eng.i0()
        assert o == eng.i1()


def edge_averages(g):
    """The one-edge average of each edge's subsets: 2 plus the
    independent-set average of what its endpoints' neighbourhoods leave."""
    return {term.edge: 2 + term.av0 for term in Engine(g).edge_terms()}


class TestEdgeStatistics:
    def test_single_edge_with_isolates(self):
        for n in range(3, 9):
            g = build(FamilySpec("G_special", n))
            assert edge_averages(g)[0, 1] == 2 + Fraction(n - 2, 2)

    def test_complete_edges(self):
        assert edge_averages(complete(5))[0, 1] == 2

    def test_path4_edge(self):
        assert edge_averages(path(4))[0, 1] == Fraction(5, 2)

    def test_single_edge_term(self):
        terms = Engine(build_graph(2, [(0, 1)])).edge_terms()
        assert len(terms) == 1
        assert terms[0].weight == 1 and terms[0].residual_mask == 0

    def test_triangle_terms(self):
        terms = Engine(complete(3)).edge_terms()
        assert [t.weight for t in terms] == [Fraction(1, 3)] * 3
        assert all(t.av0 == 0 for t in terms)

    def test_path4_terms(self):
        terms = Engine(path(4)).edge_terms()
        assert [t.edge for t in terms] == [(0, 1), (1, 2), (2, 3)]
        assert [t.weight for t in terms] == [Fraction(2, 5), Fraction(1, 5), Fraction(2, 5)]
        assert sum(t.weight * t.av0 for t in terms) == Fraction(2, 5)

    def test_weights_sum_to_one(self):
        rng = random.Random(23)
        for _ in range(30):
            g = random_graph(rng, rng.randrange(2, 9))
            if not g.edge_count:
                continue
            terms = Engine(g).edge_terms()
            assert sum(t.weight for t in terms) == 1
            s = nis_summary(g, 1)
            assert s.average == 2 + sum(t.weight * t.av0 for t in terms)

    def test_edgeless_has_no_terms(self):
        assert Engine(build_graph(3, [])).edge_terms() == []

    @given(graphs(14))
    @settings(max_examples=60, deadline=None)
    def test_residual_counts_match_the_scalar_route(self, g):
        # the terms read the residual's polynomial; the scalar route is separate
        if not g.edge_count:
            return
        eng = Engine(g)
        for t in eng.edge_terms():
            assert (t.sigma0, t.s0) == eng.scalars0(t.residual_mask)
            assert t.sigma1 == eng.scalars1()[0]

    @given(graphs(14))
    @settings(max_examples=60, deadline=None)
    def test_terms_are_the_per_edge_route(self, g):
        # one edge list serves both: the terms in Graph.edges order, and
        # i1_by_edges as x^2 times the sum of their residual polynomials
        eng = Engine(g)
        terms = eng.edge_terms()
        assert [t.edge for t in terms] == g.edges()
        total = [0] * (g.n + 3)
        for t in terms:
            for k, c in enumerate(eng.i0(t.residual_mask)):
                total[k + 2] += c
        while total and not total[-1]:
            total.pop()
        assert eng.i1_by_edges() == tuple(total)

    def test_moments(self):
        # P3: I(x) = 1 + 3x + x^2, so I(1) = 5 and I'(1) = 3 + 2
        assert moments((1, 3, 1)) == (5, 5)
        assert moments(()) == (0, 0)
        # compute's cross-check reads the same definition
        assert cli.moments is moments


class TestRouteAgreement:
    def test_exhaustive_small_orders(self):
        for n in range(0, 6):
            pairs = all_pairs(n)
            for mask in range(1 << len(pairs)):
                g = graph_from_pair_mask(n, mask, pairs)
                eng = Engine(g)
                p0, p1 = eng.i0(), eng.i1()
                assert p1 == eng.i1_by_edges()
                # one table serves both levels; an edgeless graph's level 1 is all zeros
                o0, o1 = (oracle_profiles(g) + (OracleProfile(1, (0,) * (n + 1)),))[:2]
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
    comps = components_of(g.adj, mask)
    iso = sum(1 for c in comps if not c & (c - 1))
    inside = [v for v in range(g.n) if mask >> v & 1]
    pivot = max(inside, key=lambda v: (g.adj[v].bit_count(), -v), default=-1)
    return iso, [c for c in comps if c & (c - 1)], pivot


def relabel(mask, labels):
    """``mask`` with each vertex v replaced by ``labels[v]``."""
    return sum(1 << labels[v] for v in range(len(labels)) if mask >> v & 1)


def graph_labels(eng):
    """The graph vertex behind each of ``eng``'s internal vertices."""
    return sorted(range(eng.graph.n), key=eng._label.__getitem__)


def in_graph_labels(eng, entry):
    """A decomposition of ``eng``'s, mapped back to graph labels, with its
    components in order of their lowest vertex as ``reference_split``
    lists them."""
    iso, comps, pivot = entry
    labels = graph_labels(eng)
    comps = sorted((relabel(c, labels) for c in comps), key=lambda c: c & -c)
    return iso, comps, labels[pivot] if pivot >= 0 else -1


def graph_split(eng, mask):
    """``eng._split`` of a mask given in graph labels, in graph labels."""
    return in_graph_labels(eng, eng._split(relabel(mask, eng._label)))


def decompositions(eng):
    """Every memoized decomposition of ``eng``, keyed and given in graph labels."""
    labels = graph_labels(eng)
    return {relabel(mask, labels): in_graph_labels(eng, entry) for mask, entry in eng._dec.items()}


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
                    assert graph_split(eng, mask) == reference_split(g, mask)

    @given(graphs(14), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_on_random_graphs(self, g, data):
        masks = data.draw(st.lists(st.integers(0, g.universe), max_size=100))
        eng = Engine(g)
        for mask in [g.universe, *masks]:
            assert graph_split(eng, mask) == reference_split(g, mask)

    def test_pivot_tie_goes_to_lowest_index_not_first_visited(self):
        # in graph labels a walk from 0 reaches 5 (root degree 5) before 2
        # (root degree 5), via 5-3; inside {0..5}, 3 has the most neighbours
        # (4) but root degree 4, and 2 and 5 keep 3 of their 5 neighbours
        # outside it.  The tie goes to 2 through the engine's label order
        g = build_graph(9, [(0, 5), (5, 3), (3, 2), (3, 1), (3, 4), (2, 1),
                            *((u, w) for u in (2, 5) for w in (6, 7, 8))])
        inside = 0b111111
        assert (g.adj[3] & inside).bit_count() > (g.adj[2] & inside).bit_count()
        assert graph_split(Engine(g), inside) == (0, [inside], 2)
        assert graph_split(Engine(g), g.universe)[2] == 2
        eng = Engine(g)
        for mask in range(1 << g.n):
            assert graph_split(eng, mask) == reference_split(g, mask)

    @pytest.mark.parametrize("seed, n, p, masks", [(11, 20, 0.3, 413), (12, 22, 0.25, 482),
                                                   (13, 24, 0.2, 509)])
    def test_decomposed_masks_pinned(self, seed, n, p, masks):
        # the work all routes take on a fixed graph; a pivot rule that
        # builds more masks fails here rather than only running slower
        eng = Engine(random_graph(random.Random(seed), n, p))
        run_all_routes(eng)
        assert len(eng._dec) == masks

    def test_each_mask_decomposed_once_across_routes(self, monkeypatch):
        walked = []
        requested = []
        original_split = Engine._split

        def logging_split(self, mask):
            # a call on a mask not yet memoized is a walk
            if mask not in self._dec:
                walked.append(mask)
            requested.append(mask)
            return original_split(self, mask)

        monkeypatch.setattr(Engine, "_split", logging_split)
        rng = random.Random(5)
        seeded_in_all = 0
        for g in [complete(6), path(9), disjoint_union(star(5), build_graph(3, [])),
                  random_graph(rng, 12, 0.3), random_graph(rng, 13, 0.5)]:
            walked.clear()
            requested.clear()
            eng = Engine(g)
            run_all_routes(eng)
            # a split mask stores its components unwalked
            seeded = {c for m in walked for c in eng._dec[m][1]
                      if eng._dec[m][0] or len(eng._dec[m][1]) > 1} - set(walked)
            assert len(walked) == len(set(walked))
            assert len(walked) + len(seeded) == len(eng._dec) == len(set(requested))
            assert len(requested) > len(eng._dec)
            seeded_in_all += len(seeded)
        assert seeded_in_all

    def test_seeded_entries_match_reference_on_every_class_through_order_6(self):
        from nisets.scanner import labeled_graph_classes

        for n in range(1, 7):
            for g, _ in labeled_graph_classes(n):
                eng = Engine(g)
                run_all_routes(eng)
                for mask, entry in decompositions(eng).items():
                    assert entry == reference_split(g, mask)

    @given(graphs(14))
    @settings(max_examples=60, deadline=None)
    def test_seeded_entries_match_reference_on_random_graphs(self, g):
        eng = Engine(g)
        run_all_routes(eng)
        for mask, entry in decompositions(eng).items():
            assert entry == reference_split(g, mask)

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

    def test_work_guard_holds_at_every_cap(self, monkeypatch):
        # seeded components count against the cap as walked masks do
        g = disjoint_union(random_graph(random.Random(4), 7, 0.3), path(5))
        eng = Engine(g)
        run_all_routes(eng)
        for cap in range(len(eng._dec)):
            monkeypatch.setattr(engine_module, "MAX_ENGINE_MASKS", cap)
            capped = Engine(g)
            with pytest.raises(WorkLimitExceeded):
                run_all_routes(capped)
            assert len(capped._dec) == cap


class TestKnownInequalities:
    def test_average_at_least_two_with_good_equality(self):
        for n in range(1, 6):
            pairs = all_pairs(n)
            for mask in range(1, 1 << len(pairs)):
                g = graph_from_pair_mask(n, mask, pairs)
                if not g.edge_count:
                    continue
                s = nis_summary(g, 1)
                assert s.average >= 2
                assert (s.average == 2) == is_good_graph(g)

    def test_edge_bracket(self):
        rng = random.Random(31)
        for _ in range(40):
            g = random_graph(rng, rng.randrange(2, 9))
            if not g.edge_count:
                continue
            value = nis_summary(g, 1).average
            per_edge = edge_averages(g).values()
            assert min(per_edge) <= value <= max(per_edge)

    def test_path_one_edge_counts_by_convolution(self):
        # sigma1(P_n) must match the sum over edges of the two leftover paths
        sigma0 = {-1: 1, 0: 1, 1: 2}
        for k in range(2, 21):
            sigma0[k] = sigma0[k - 1] + sigma0[k - 2]
        for n in range(2, 21):
            expected = sum(sigma0[j - 2] * sigma0[n - 2 - j] for j in range(1, n))
            assert nis_summary(path(n), 1).sigma == expected

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
                    + Fraction(2) ** (term.union_size - g.degree(u) - 1)
                    + Fraction(2) ** (term.union_size - g.degree(v) - 1)
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


def preorder_depths(adj, root):
    """Depths of a tree given by adjacency lists, rooted at ``root``, in DFS
    preorder: a valid level sequence, in general not the canonical one."""
    depths = []
    stack = [(root, -1, 0)]
    while stack:
        v, parent, depth = stack.pop()
        depths.append(depth)
        stack.extend((u, v, depth + 1) for u in adj[v] if u != parent)
    return tuple(depths)


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
        levels = LevelSequence(preorder_depths(adj, root)).levels
        g = build_graph(n, [(u, v) for u in range(n) for v in adj[u] if u < v])
        got = tree_scalars(levels)
        eng = Engine(g)
        assert got == eng.scalars0() + eng.scalars1()
        if n <= 12:
            for level in (0, 1):
                want = oracle_summary(g, level)
                assert got[2 * level : 2 * level + 2] == (want.sigma, want.total)


def batch_rows(rows):
    """tree_scalars_batch of a list of level tuples, as one tuple per row."""
    values = tree_scalars_batch(level_parents(np.array(rows, dtype=np.int8)))
    assert all(v.dtype == np.int64 for v in values)
    return [tuple(int(x) for x in row) for row in zip(*values)]


class TestTreeScalarsBatch:
    @pytest.mark.parametrize("n", range(1, 17))
    def test_matches_reference_on_every_free_tree(self, n):
        rows = [seq.levels for seq in level_sequences(n)]
        assert batch_rows(rows) == [tree_scalars(levels) for levels in rows]

    def test_matches_reference_on_a_stride_sample_at_order_18(self):
        rows = [tuple(levels) for levels in np.concatenate(list(tree_blocks(18)))[::7].tolist()]
        assert len(rows) == 17_696
        assert batch_rows(rows) == [tree_scalars(levels) for levels in rows]

    def test_star_and_path_at_the_order_limit(self):
        # the star has the most independent sets of any tree; its size sum
        # 23·2^22 + 1 lies within a factor 5 of the int64 argument's bound
        # n·2^n at n = 24
        star, path = (0,) + (1,) * 23, tuple(range(24))
        got = batch_rows([star, path])
        assert got == [tree_scalars(star), tree_scalars(path)]
        assert got[0][:2] == ((1 << 23) + 1, 23 * (1 << 22) + 1)

    def test_scores_the_first_block_at_the_tree_order_limit(self):
        # every tree sweep scores its blocks with the batched DP, so the
        # tree population's order limit must not pass the batch's
        rows = next(tree_blocks(TREE_ORDER_LIMIT)).tolist()
        assert len(rows) == TREE_BLOCK
        assert batch_rows(rows) == [tree_scalars(levels) for levels in rows]

    def test_refuses_order_past_the_limit(self):
        with pytest.raises(ValueError, match="order <= 24, got 25"):
            tree_scalars_batch(np.zeros((1, 25), dtype=np.intp))

    def test_block_of_mixed_rootings(self):
        # every order-9 tree rooted at each of its vertices, all in one block:
        # each row must carry its tree's canonical values
        rows, want = [], []
        for levels in (seq.levels for seq in level_sequences(9)):
            graph = levels_to_graph(levels)
            adj = [[u for u in range(9) if graph.adj[v] >> u & 1] for v in range(9)]
            for root in range(9):
                rows.append(preorder_depths(adj, root))
                want.append(tree_scalars(levels))
        assert len(set(rows)) > len(set(want))
        assert batch_rows(rows) == want
