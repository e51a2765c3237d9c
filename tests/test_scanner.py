"""Scanner: exhaustive class enumeration, scans, claims, determinism."""

import hashlib
import json
import multiprocessing
import os
import re
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import chain, permutations
from math import comb
from multiprocessing.pool import RemoteTraceback

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nisets.oracle as oracle_module
import nisets.scanner as scanner_module
from crosschecks import (
    block_degrees,
    canonical_mask,
    gather_sum_graph_classes,
    level_parents,
    pair_mask,
    relabel,
    rest_start,
    root_states_batch,
    rooted_degrees,
    segment_rows,
    slot_image_table,
    tallest,
    tree_rows,
    tree_scalars_batch,
    walked,
)
from nisets.engine import (
    Engine,
    format_rational,
    join_scalars,
    tree_scalars,
)
from nisets.families import FamilySpec, build, closed_form_summary
from nisets.formats import from_graph6, to_graph6
from nisets.graphs import (
    all_pairs,
    graph_from_pair_mask,
    is_good_graph,
    structural_predicates,
)
from nisets.oracle import OracleProfile, oracle_profiles_of
from nisets.scanner import (
    GRAPH_FILTERS,
    GRAPH_SCAN_LIMIT,
    OBJECTIVES,
    WITNESS_CAP,
    RouteDisagreement,
    _Side,
    _extremes,
    _graph_claim_reports,
    _orbit_tables,
    _score_run,
    _subset_scalars,
    _Tables,
    conjecture_scan,
    has_inequality_violations,
    labeled_graph_classes,
    path_cycle_unions,
    scan_graphs,
    scan_trees,
    spot_check_trees,
    verify_claims,
)
from nisets.trees import (
    RootedTables,
    free_trees,
    level_sequences,
    levels_to_graph,
    tree_canonical_key,
    tree_segments,
)

GRAPH_CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


def reference_graph_classes(n):
    """The pure-Python orbit walk: every permutation's image of each new
    class's mask is summed in a loop, and the labelled count is the number
    of images marked."""
    pairs = all_pairs(n)
    nslots = len(pairs)
    slot_of = {pair: s for s, pair in enumerate(pairs)}
    tables = []
    for perm in permutations(range(n)):
        row = []
        for (i, j) in pairs:
            a, b = perm[i], perm[j]
            row.append(1 << slot_of[(a, b) if a < b else (b, a)])
        tables.append(row)
    seen = bytearray(1 << nslots)
    classes = []
    for mask in range(1 << nslots):
        if seen[mask]:
            continue
        bits = [s for s in range(nslots) if mask >> s & 1]
        orbit = 0
        for row in tables:
            image = sum(map(row.__getitem__, bits))
            if not seen[image]:
                seen[image] = 1
                orbit += 1
        classes.append((graph_from_pair_mask(n, mask, pairs), orbit))
    return classes


class TestClassEnumeration:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_class_counts_and_orbit_sizes(self, n):
        classes = labeled_graph_classes(n)
        assert len(classes) == GRAPH_CLASS_COUNTS[n]
        assert sum(count for _, count in classes) == 1 << (n * (n - 1) // 2)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_reference_orbit_walk(self, n):
        got = [(g.adj, count) for g, count in labeled_graph_classes(n)]
        want = [(g.adj, count) for g, count in reference_graph_classes(n)]
        assert got == want
        assert all(type(count) is int for _, count in got)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_gather_and_sum_walk(self, n):
        assert labeled_graph_classes(n) == gather_sum_graph_classes(n)

    def test_orbit_tables_sum_to_the_slot_images(self):
        n = 5
        table = slot_image_table(n)
        tables = _orbit_tables(n)
        assert len(tables) == 4 and all(rows.shape == (8, 120) for rows in tables)
        for mask in range(1 << 10):
            images = sum(rows[mask >> 3 * k & 7] for k, rows in enumerate(tables))
            want = table[[s for s in range(10) if mask >> s & 1]].sum(axis=0)
            assert np.array_equal(images, want), mask

    def test_image_dtype_holds_every_mask_up_to_the_limit(self):
        # an image is a mask of C(n, 2) bits, so the tables' signed dtype
        # must keep C(GRAPH_SCAN_LIMIT, 2) bits below its sign bit
        dtype = _orbit_tables(3)[0].dtype
        assert comb(GRAPH_SCAN_LIMIT, 2) < np.iinfo(dtype).bits - 1

    @pytest.mark.parametrize("n", range(1, 6))
    def test_representatives_are_minimal_masks(self, n):
        for g, count in labeled_graph_classes(n):
            images = {pair_mask(relabel(g, perm)) for perm in permutations(range(n))}
            assert pair_mask(g) == min(images)
            assert count == len(images)

    def test_representatives_are_pairwise_non_isomorphic(self):
        for n in range(2, 6):
            masks = [canonical_mask(g) for g, _ in labeled_graph_classes(n)]
            assert len(set(masks)) == len(masks)

    def test_canonical_mask_limit(self):
        with pytest.raises(ValueError, match="limited to order 7"):
            canonical_mask(graph_from_pair_mask(8, 0))

    def test_tree_classes_match_free_tree_counts(self):
        from nisets.trees import count_free_trees

        for n in range(1, 8):
            trees = [g for g, _ in labeled_graph_classes(n) if structural_predicates(g).is_tree]
            assert len(trees) == count_free_trees(n)
        assert len(trees) == 11

    def test_order_limit(self):
        with pytest.raises(ValueError, match="exhaustive limit"):
            labeled_graph_classes(8)

    def test_order_zero_refused(self):
        with pytest.raises(ValueError, match=r"order 0 outside 1\.\.7; .*exhaustive limit \(7\)"):
            labeled_graph_classes(0)


class TestGraphScans:
    def test_max_at_six_is_single_edge_class(self):
        report = scan_graphs(6, "non-edgeless", "av1")
        assert report.max_value == 4 and report.max_count == 1
        witness = from_graph6(report.max_witnesses[0])
        assert canonical_mask(witness) == canonical_mask(build(FamilySpec("G_special", 6)))

    def test_min_is_two_with_good_witnesses(self):
        report = scan_graphs(5, "non-edgeless", "av1", witness_cap=None)
        assert report.min_value == 2
        good = [g6 for g6 in report.min_witnesses]
        for g6 in good:
            assert is_good_graph(from_graph6(g6))

    def test_ratio_minimum_small_population(self):
        # order-4 graphs with no isolated vertex and max degree 2:
        # P4 (5/8), C4 (4/7) and P2+P2 (2/3); the cycle attains the minimum
        report = scan_graphs(4, "no-isolated-max-deg-2", "sigma-ratio")
        assert report.min_value == Fraction(4, 7)
        assert canonical_mask(from_graph6(report.min_witnesses[0])) == canonical_mask(
            build(FamilySpec("cycle", 4)))

    def test_edgeless_excluded_from_average_objective(self):
        report = scan_graphs(3, "all", "av1")
        assert report.min_value >= 2

    def test_unknown_filter_and_objective(self):
        with pytest.raises(ValueError, match="filter"):
            scan_graphs(4, "planar", "av1")
        with pytest.raises(ValueError, match="objective"):
            scan_graphs(4, "all", "entropy")

    def test_every_filter_and_objective_golden(self):
        # SHA-256 of these reports as produced while each class's statistics
        # still came from a per-class record shared with the claim suites
        reports = [scan_graphs(n, graph_filter, objective, witness_cap=None).to_json_dict()
                   for n in range(1, 8) for graph_filter in GRAPH_FILTERS
                   for objective in OBJECTIVES]
        text = json.dumps(reports, indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "99f851badbe851c6d76b15ec1f7ed25cfbe52ee273b16704b01554621dad4380")


class TestTreeScans:
    def test_star_minimizes_at_nine(self):
        report = scan_trees(9, "av1")
        assert report.min_value == 2 and report.min_count == 1
        witness = from_graph6(report.min_witnesses[0])
        assert structural_predicates(witness).max_degree == 8

    def test_max_at_four(self):
        report = scan_trees(4, "av1")
        assert report.max_value == Fraction(12, 5)

    def test_band_at_ten(self):
        report = scan_trees(10, "av1")
        assert Fraction(5) < report.max_value < Fraction(11, 2)

    def test_deterministic_across_runs_and_workers(self):
        one = scan_trees(11, "av1", workers=1, spot_check_rate=0.05)
        again = scan_trees(11, "av1", workers=1, spot_check_rate=0.05)
        two = scan_trees(11, "av1", workers=2, spot_check_rate=0.05)
        assert one == again == two
        # order 11 has 235 trees, so neither stride divides the stream
        for objective in ("av1", "sigma-ratio"):
            reports = [scan_trees(11, objective, workers=w, witness_cap=None,
                                  spot_check_rate=0.05) for w in (1, 2, 3)]
            assert reports[0] == reports[1] == reports[2], objective

    def test_order_limits(self):
        with pytest.raises(ValueError, match="2..24"):
            scan_trees(1)
        with pytest.raises(ValueError, match="2..24"):
            scan_trees(25)

    def test_spot_checks_run(self):
        assert spot_check_trees(8, 1.0) == 23
        assert spot_check_trees(8, 0.0) == 0


def eager_fold(graphs, objective, top_k=5):
    """Reference for the lazy tree fold: every tree's exact Fraction from
    the engine, its graph6, then plain min/max/sort over the whole stream."""
    entries = []
    for tree in graphs:
        eng = Engine(tree)
        sig1, s1 = eng.scalars1()
        if objective == "av1":
            value = Fraction(s1, sig1)
        else:
            value = Fraction(sig1, eng.scalars0()[0])
        entries.append((value, to_graph6(tree)))
    lo = min(v for v, _ in entries)
    hi = max(v for v, _ in entries)
    return {
        "min": (lo, sorted(g6 for v, g6 in entries if v == lo)),
        "max": (hi, sorted(g6 for v, g6 in entries if v == hi)),
        "top": [(g6, -negv) for negv, g6 in sorted((-v, g6) for v, g6 in entries)[:top_k]],
    }


def valued_like(values, levels):
    """Which rows of a join's four value arrays carry the (sigma0, S0,
    sigma1, S1) of the tree with these levels."""
    return np.logical_and.reduce([got == want for got, want in zip(values, tree_scalars(levels))])


def spelled(tables, side):
    """A tree sweep's side with each row key replaced by the graph6 of the
    tree it names, as ``_tree_sweeps`` does after the merge."""
    for value in side.values:
        value[2] = [to_graph6(levels_to_graph(levels)) for levels in tables.levels(value[2])]
    return side


def preorder_depths(graph, root):
    depths = []
    stack = [(root, -1, 0)]
    while stack:
        v, parent, depth = stack.pop()
        depths.append(depth)
        stack.extend((u, v, depth + 1) for u in range(graph.n)
                     if graph.adj[v] >> u & 1 and u != parent)
    return tuple(depths)


class TestLazyTreeFold:
    @pytest.mark.parametrize("objective", ["av1", "sigma-ratio"])
    def test_scan_trees_matches_eager_fold(self, objective):
        for n in range(2, 12):
            want = eager_fold(free_trees(n), objective)
            got = scan_trees(n, objective, witness_cap=None)
            assert (got.min_value, list(got.min_witnesses)) == want["min"], n
            assert (got.max_value, list(got.max_witnesses)) == want["max"], n
            assert (got.min_count, got.max_count) == (len(want["min"][1]), len(want["max"][1]))

    def test_conjecture_scan_matches_eager_fold(self):
        records = conjecture_scan(range(4, 12), top_k=5)
        assert [rec.order for rec in records] == list(range(4, 12))
        for rec in records:
            n = rec.order
            want = eager_fold(free_trees(n), "av1")
            max_value, max_wits = want["max"]
            star = build(FamilySpec("R", n))
            star_value = closed_form_summary(FamilySpec("R", n), 1).average
            unique = (len(max_wits) == 1 and max_value == star_value and
                      tree_canonical_key(from_graph6(max_wits[0])) == tree_canonical_key(star))
            assert rec.max_value == max_value, n
            assert rec.max_witnesses == tuple(max_wits[:WITNESS_CAP]), n
            assert rec.subdivided_star_value == star_value, n
            assert rec.subdivided_star_is_unique_max == unique, n
            assert list(rec.top) == want["top"], n
        # order 6 has two tied maximisers, so ties reach the witness list
        assert len(records[2].max_witnesses) == 2

    @pytest.mark.parametrize("objective", ["av1", "sigma-ratio"])
    def test_chunk_fold_keeps_every_tie(self, monkeypatch, objective):
        # every order-8 tree twice in a row, as two one-tree segments of one
        # run: each value is tied on both sides and at every top-k boundary,
        # and at odd block sizes the two copies of a tree straddle the ends
        # of the run's slices
        tables = _Tables(8, False)
        trees = [(s, t, r, r + 1) for s, t, a, b in tree_segments(tables.rooted, 8)
                 for r in range(a, b) for _ in range(2)]
        rest, first = tables.rows(8, trees)
        graphs = [levels_to_graph(levels) for levels in tables.levels(tables.keys(rest, first))]
        no_spots = scanner_module._spot_sample(8, 0.0)
        for top_k in (0, 1, 2, 3, 5, 8):
            want = eager_fold(graphs, objective, top_k)
            for block in (1, 3, 7, 1024):
                monkeypatch.setattr(scanner_module, "_BLOCK", block)
                found = _score_run(tables, (8, objective, top_k, no_spots, False, 0, trees))
                assert found.count == len(trees) == 46
                for side, key in ((found.lo, "min"), (found.hi, "max")):
                    # a task's sides hold the trees' row keys, as ints
                    assert all(type(code) is int for code in side.codes)
                    spelled(tables, side)
                    assert (side.value, sorted(side.codes)) == want[key], block
                    assert len(side.codes) >= 2
                assert found.hi.ranked()[:top_k] == want["top"], block

    @pytest.mark.parametrize("objective", ["av1", "sigma-ratio"])
    def test_side_fold_keeps_every_tie_with_its_own_code(self, objective):
        # every order-8 tree twice, canonically rooted and rooted at its last
        # vertex: each value is tied on both sides and at every top-k
        # boundary between two different graph6 codes, and at odd block
        # sizes the two copies of a tree straddle block boundaries
        levels = []
        for seq in level_sequences(8):
            levels += [seq.levels, preorder_depths(seq.to_graph(), 7)]
        rows = np.array(levels, dtype=np.int8)
        codes = [to_graph6(levels_to_graph(lv)) for lv in levels]
        keys = np.array(codes, dtype=object)
        sig0, _, sig1, tot1 = tree_scalars_batch(level_parents(rows))
        num, den = (tot1, sig1) if objective == "av1" else (sig1, sig0)
        for top_k in (0, 1, 2, 3, 5, 8):
            want = eager_fold((levels_to_graph(lv) for lv in levels), objective, top_k)
            for block in (1, 3, 7, 1024):
                found = scanner_module._Sweep(top_k)
                for start in range(0, len(rows), block):
                    at = slice(start, start + block)
                    for side in (found.lo, found.hi):
                        side.fold(num[at], den[at], keys[at])
                for side, key in ((found.lo, "min"), (found.hi, "max")):
                    assert (side.value, sorted(side.codes)) == want[key], block
                    # each tied entry keeps its own code, in stream order
                    assert side.codes == [g6 for g6, p, q in zip(codes, num, den)
                                          if side.value * int(q) == int(p)], block
                    assert len(set(side.codes)) >= 2
                assert found.hi.ranked()[:top_k] == want["top"], block

    def test_conjecture_scan_deterministic_across_workers(self):
        one = conjecture_scan(range(9, 13), workers=1, spot_check_rate=0.05)
        two = conjecture_scan(range(9, 13), workers=2, spot_check_rate=0.05)
        three = conjecture_scan(range(9, 13), workers=3, spot_check_rate=0.05)
        assert one == two == three


class InProcessPool:
    """Stands in for a pool process: its target runs in this process when
    it starts, so a share's one message must fit the pipe's buffer."""

    def __init__(self, target, args, daemon):
        self.target, self.args = target, args

    def start(self):
        self.target(*self.args)

    def join(self):
        pass


def in_task_order(payloads):
    """The ``_score_run`` payloads of one sweep in task order: the pool's
    shares are scored out of it, and a task's order and first stream index
    name its place."""
    return sorted(payloads, key=lambda payload: (payload[0], payload[5]))


def tied_stream(length=60):
    """Unreduced values from a few fractions, each scaled by a varying
    factor, so every extreme is tied in several unreduced forms (1/2, 2/4,
    3/6, ...), with codes naming their stream positions."""
    bases = [(1, 2), (2, 3), (5, 7), (1, 3), (2, 3), (1, 2)]
    num, den = [], []
    for i in range(length):
        a, b = bases[i * 7 % len(bases)]
        scale = 1 + i % 4
        num.append(a * scale)
        den.append(b * scale)
    codes = [f"t{i:02d}" for i in range(length)]
    return np.array(num, dtype=np.int64), np.array(den, dtype=np.int64), codes


# entries a side keeps: at keep 40 the max side of tied_stream() holds three
# values and ranked() cuts among the ties of the last
KEEPS = (1, 2, 5, 40)


def sides(keep):
    return _Side(smaller=True, keep=keep), _Side(smaller=False, keep=keep)


def folded(num, den, codes, block, keep=1):
    lo, hi = sides(keep)
    keys = np.array(codes, dtype=object)
    for start in range(0, len(num), block):
        stop = start + block
        for side in (lo, hi):
            side.fold(num[start:stop], den[start:stop], keys[start:stop])
    return lo, hi


class TestSide:
    def test_empty_side(self):
        lo, hi = _extremes()
        lo.merge(hi)
        assert (lo.value, lo.codes, hi.value, hi.codes) == (None, [], None, [])
        report = scanner_module._report("c", "p", 3, "av1", (lo, hi), WITNESS_CAP)
        assert (report.min_value, report.min_witnesses, report.min_count) == (None, (), 0)

    @pytest.mark.parametrize("block", [1, 2, 3, 5, 7, 16, 60])
    def test_block_fold_equals_offer_and_eager_fractions(self, block):
        num, den, codes = tied_stream()
        values = [Fraction(int(a), int(b)) for a, b in zip(num, den)]
        offered = _extremes((int(a), int(b), c) for a, b, c in zip(num, den, codes))
        for keep in KEEPS:
            for side, by_offer, extreme, sign in zip(folded(num, den, codes, block, keep),
                                                     offered, (min, max), (1, -1)):
                want = extreme(values)
                stream_order = [c for v, c in zip(values, codes) if v == want]
                assert len(stream_order) >= 10
                assert (side.value, side.codes) == (want, stream_order)
                assert (by_offer.value, by_offer.codes) == (want, stream_order)
                eager = sorted((sign * v, c) for v, c in zip(values, codes))[:keep]
                assert side.ranked() == [(c, sign * v) for v, c in eager], keep

    @pytest.mark.parametrize("parts", [1, 2, 3])
    def test_ranges_merge_to_one_fold_in_stream_order(self, parts):
        num, den, codes = tied_stream()
        for keep in KEEPS:
            whole = folded(num, den, codes, 7, keep)
            merged = sides(keep)
            bounds = [len(num) * k // parts for k in range(parts + 1)]
            for start, stop in zip(bounds, bounds[1:]):
                part = folded(num[start:stop], den[start:stop], codes[start:stop], 7, keep)
                for side, part_side in zip(merged, part):
                    side.merge(part_side)
            for side, one in zip(merged, whole):
                assert ((side.value, side.codes, side.ranked())
                        == (one.value, one.codes, one.ranked())), keep

    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_stride_shards_merge_to_one_fold(self, shards):
        num, den, codes = tied_stream()
        whole = folded(num, den, codes, 7)
        merged = _extremes()
        for shard in range(shards):
            part = folded(num[shard::shards], den[shard::shards], codes[shard::shards], 7)
            for side, part_side in zip(merged, part):
                side.merge(part_side)
        for side, one in zip(merged, whole):
            assert (side.value, sorted(side.codes)) == (one.value, one.codes)


class TestStrideSweep:
    def test_generator_is_never_more_than_one_run_ahead_of_scoring(self, monkeypatch):
        generated, scored, calls = [0], [0], []

        def counting_runs(segments):
            for first, run in real_runs(segments):
                generated[0] += sum(b - a for *_, a, b in run)
                yield first, run

        def counting_join(rest, first):
            calls.append(generated[0] - scored[0])
            scored[0] += rest.shape[1]
            return join_scalars(rest, first)

        # the sweep's tables, whose joins are cut by the same cutter, are
        # built before the stream is counted
        tables = _Tables(13, False)
        real_runs = scanner_module._runs
        monkeypatch.setattr(scanner_module, "_Tables", lambda top, caps: tables)
        monkeypatch.setattr(scanner_module, "_BLOCK", 16)
        monkeypatch.setattr(scanner_module, "_runs", counting_runs)
        monkeypatch.setattr(scanner_module, "join_scalars", counting_join)
        scan_trees(13, workers=1)
        # 1301 trees in five runs of 16 full blocks, then a run of 21 trees
        # in two slices, of 16 and 5; each run is cut from the stream once
        # the one before it is scored
        assert scored[0] == generated[0] == 1301
        assert calls == list(range(256, 0, -16)) * 5 + [21, 5]

    def test_one_task_list_at_every_worker_count(self, monkeypatch):
        def recorded(workers):
            calls = []

            def recording_run(tables, payload):
                # the payload's segments are an array, compared as a list
                *head, segments = payload
                calls[-1].append((*head, segments.tolist()))
                return _score_run(tables, payload)

            with monkeypatch.context() as m:
                m.setattr(scanner_module, "_score_run", recording_run)
                m.setattr(scanner_module, "Process", InProcessPool)
                for n in range(4, 14):
                    calls.append([])
                    scan_trees(n, workers=workers, spot_check_rate=0.02)
                calls.append([])
                conjecture_scan(range(4, 14), workers=workers)
            return calls

        monkeypatch.setattr(scanner_module, "_BLOCK", 16)
        one = recorded(1)
        # one worker scores the tasks in task order
        assert one == [in_task_order(call) for call in one]
        # runs of 16 blocks of 16 trees, for the scans and then the conjecture
        runs = sum(-(-scanner_module.count_free_trees(n) // 256) for n in range(4, 14))
        assert sum(map(len, one)) == 2 * runs
        assert [in_task_order(call) for call in recorded(2)] == one
        assert [in_task_order(call) for call in recorded(3)] == one

    def test_one_pool_per_call(self, monkeypatch):
        started, real_process = [], scanner_module.Process

        def counting_process(**kwargs):
            started.append(kwargs["target"])
            return real_process(**kwargs)

        monkeypatch.setattr(scanner_module, "Process", counting_process)
        # w workers are this process and a pool of w - 1
        conjecture_scan(range(9, 13), workers=2)
        assert started == [scanner_module._pooled_share]
        scan_trees(11, workers=3)
        assert started == [scanner_module._pooled_share] * 3
        conjecture_scan(range(9, 13), workers=1)
        assert len(started) == 3

    def test_one_pool_pass_over_every_order(self, monkeypatch):
        payloads = []

        def recording_run(tables, payload):
            payloads.append(payload)
            return _score_run(tables, payload)

        def report_bytes(records):
            return json.dumps([r.to_json_dict() for r in records]).encode()

        monkeypatch.setattr(scanner_module, "_BLOCK", 16)
        with monkeypatch.context() as m:
            m.setattr(scanner_module, "Process", InProcessPool)
            m.setattr(scanner_module, "_score_run", recording_run)
            two = conjecture_scan(range(4, 14), workers=2)
        tasks = in_task_order(payloads)
        # one pass, queued order by order, without spot checks
        assert [task[:4] for task in tasks] == [
            (n, "av1", 5, scanner_module._spot_sample(n, 0))
            for n in range(4, 14) for _ in range(-(-scanner_module.count_free_trees(n) // 256))]
        tables = RootedTables(13)
        for n in range(4, 14):
            # runs of segments of 16 blocks of 16 trees chain the order's stream
            runs = [(first, segments) for m, *_, first, segments in tasks if m == n]
            stream = tree_rows(n)
            assert [first for first, _ in runs] == list(range(0, len(stream), 256))
            for first, segments in runs:
                assert sum(b - a for *_, a, b in segments) <= 256
                run = segment_rows(tables, n, segments)
                assert (run == stream[first:first + len(run)]).all()
        assert report_bytes(two) == report_bytes(conjecture_scan(range(4, 14), workers=1))
        assert report_bytes(two) == report_bytes(conjecture_scan(range(4, 14), workers=3))

    def test_refused_scan_opens_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool opened before the inputs were checked")

        monkeypatch.setattr(scanner_module, "Process", no_pool)
        with pytest.raises(ValueError, match="2..24"):
            scan_trees(25, workers=2)
        with pytest.raises(ValueError, match="unknown objective"):
            scan_trees(8, "nope", workers=2)
        with pytest.raises(ValueError, match="spot-check rate"):
            scan_trees(8, workers=2, spot_check_rate=2)
        with pytest.raises(ValueError, match="spot-check rate"):
            conjecture_scan([8, 9], workers=2, spot_check_rate=-1)

    def test_every_spot_is_checked_once_across_shards(self, monkeypatch, tmp_path):
        log = tmp_path / "spots.txt"

        def logging_spot_check(levels, rows):
            with log.open("a") as handle:
                handle.writelines(" ".join(map(str, tree)) + "\n" for tree in levels)

        # pool workers fork from this process, so they inherit the patch
        monkeypatch.setattr(scanner_module, "_spot_check", logging_spot_check)
        scan_trees(10, workers=3, spot_check_rate=1.0)
        lines = log.read_text().splitlines()
        assert len(lines) == 106
        assert sorted(lines) == sorted(" ".join(map(str, seq.levels)) for seq in level_sequences(10))

    # order 13 is one run at the real block size, and six at blocks of 16
    @pytest.mark.parametrize("block", [1024, 16])
    def test_spot_checks_are_the_same_trees_at_every_worker_count(self, monkeypatch, tmp_path,
                                                                  block):
        monkeypatch.setattr(scanner_module, "_BLOCK", block)

        def logged(workers):
            log = tmp_path / f"spots{workers}.txt"

            def logging_spot_check(levels, rows):
                with log.open("a") as handle:
                    handle.writelines(" ".join(map(str, tree)) + "\n" for tree in levels)

            with monkeypatch.context() as m:
                # pool workers fork from this process, so they inherit the patch
                m.setattr(scanner_module, "_spot_check", logging_spot_check)
                scan_trees(13, workers=workers, spot_check_rate=0.05)
            return log.read_text().splitlines()

        one = logged(1)
        assert len(one) == len(set(one)) == scanner_module._spot_sample(13, 0.05).want == 65
        assert sorted(logged(2)) == sorted(logged(3)) == sorted(one)

    def test_lying_row_in_a_later_run_raises(self, monkeypatch):
        # order 13 in six runs of 256 trees; the last tree, the star (the
        # only order-13 tree with its values), is in the last run
        monkeypatch.setattr(scanner_module, "_BLOCK", 16)
        stream = tree_rows(13)
        assert len(stream) == 1301
        liar = tuple(stream[-1].tolist())
        assert liar == (0,) + (1,) * 12

        def lying_join(rest, first):
            values = sig0, s0, sig1, s1 = join_scalars(rest, first)
            # S0 is checked but feeds no sweep fold, so only a spot check sees it
            return sig0, s0 + valued_like(values, liar), sig1, s1

        # pool workers fork from this process, so they inherit the patch
        monkeypatch.setattr(scanner_module, "join_scalars", lying_join)
        scan_trees(13, workers=2, spot_check_rate=0.001)  # the lying tree is not sampled
        with pytest.raises(RouteDisagreement, match="tree DP"):
            scan_trees(13, workers=2, spot_check_rate=1.0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_first_of_two_lying_trees_in_a_block_is_reported(self, monkeypatch, workers):
        # order 10 is one block; the earlier liar is off at level 1 and the
        # later at level 0, so a check taking the block's trees level by
        # level, not tree by tree, would name the later one
        tables = _Tables(10, False)
        rest, first = tables.rows(10, tree_segments(tables.rooted, 10))
        keys = tables.keys(rest, first)
        early, late = keys[20], keys[70]
        real_scalars = scanner_module._Tables.scalars

        def lying_scalars(self, rest, first):
            sig0, s0, sig1, s1 = real_scalars(self, rest, first)
            keys = self.keys(rest, first)
            return sig0, s0 + (keys == late), sig1, s1 + (keys == early)

        # pool workers fork from this process, so they inherit the patch
        monkeypatch.setattr(scanner_module._Tables, "scalars", lying_scalars)
        [levels] = tables.levels([early])
        _, _, sig1, s1 = tree_scalars(levels)
        g6 = to_graph6(levels_to_graph(levels))
        message = f"tree DP ({sig1}, {s1 + 1}) vs subset oracle ({sig1}, {s1}) at level 1 on {g6}"
        with pytest.raises(RouteDisagreement, match=f"^{re.escape(message)}$"):
            scan_trees(10, workers=workers, spot_check_rate=1.0)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_first_of_two_lying_trees_in_different_runs_is_reported(self, monkeypatch, workers):
        # order 13 in six runs, five of 256 trees and one of 21; the earlier
        # liar is in the first run of the last share, a pool process's at
        # w > 1, and the later in a later run of share 0, this process's,
        # which is scored first
        monkeypatch.setattr(scanner_module, "_BLOCK", 16)
        runs = scanner_module._shares([256] * 5 + [21], workers)
        early_run = runs[-1][0]
        late_run = next(i for i in runs[0] if i > early_run)
        tables = _Tables(13, False)
        rest, first = tables.rows(13, tree_segments(tables.rooted, 13))
        keys = tables.keys(rest, first)
        early, late = keys[256 * early_run + 20], keys[256 * late_run + 70]
        real_scalars = scanner_module._Tables.scalars

        def lying_scalars(self, rest, first):
            sig0, s0, sig1, s1 = real_scalars(self, rest, first)
            keys = self.keys(rest, first)
            return sig0, s0 + (keys == late), sig1, s1 + (keys == early)

        # pool workers fork from this process, so they inherit the patch
        monkeypatch.setattr(scanner_module._Tables, "scalars", lying_scalars)
        [levels] = tables.levels([early])
        _, _, sig1, s1 = tree_scalars(levels)
        g6 = to_graph6(levels_to_graph(levels))
        message = f"tree DP ({sig1}, {s1 + 1}) vs subset oracle ({sig1}, {s1}) at level 1 on {g6}"
        with pytest.raises(RouteDisagreement, match=f"^{re.escape(message)}$") as raised:
            scan_trees(13, workers=workers, spot_check_rate=1.0)
        # a pool process's error keeps the traceback of where it was raised
        cause = raised.value.__cause__
        if workers > 1:
            assert isinstance(cause, RemoteTraceback) and "in _score_run" in str(cause)
        else:
            assert cause is None

    def test_more_workers_than_runs_write_the_one_worker_report(self):
        def report_bytes(records):
            return json.dumps([r.to_json_dict() for r in records]).encode()

        # order 5 is one run, and orders 4-7 are one run each, so some
        # shares hold no task
        assert report_bytes([scan_trees(5, workers=4)]) == report_bytes([scan_trees(5, workers=1)])
        assert not multiprocessing.active_children()
        one = report_bytes(conjecture_scan(range(4, 8), workers=1))
        for workers in (3, 5):
            assert report_bytes(conjecture_scan(range(4, 8), workers=workers)) == one
            assert not multiprocessing.active_children()

    @pytest.mark.parametrize("rate", [0.0, 0.01])
    def test_picks_runs_once_per_block_only_when_trees_are_sampled(self, monkeypatch, rate):
        calls, real_picks = [], scanner_module._SpotSample.picks

        def counting_picks(self, indices):
            calls.append(len(indices))
            return real_picks(self, indices)

        monkeypatch.setattr(scanner_module._SpotSample, "picks", counting_picks)
        orders = range(4, 17)
        conjecture_scan(orders, spot_check_rate=rate)
        blocks = sum(-(-scanner_module.count_free_trees(n) // scanner_module._BLOCK)
                     for n in orders)
        assert blocks == 42
        assert len(calls) == (blocks if rate else 0)

    def test_each_pool_process_sends_one_result(self, monkeypatch):
        sent, shares = [], []

        class RecordingSender:
            def __init__(self, sender):
                self.sender = sender

            def send(self, parts):
                sent.append(parts)
                self.sender.send(parts)

        def recording_pooled(tables, tasks, sender):
            real_pooled(tables, tasks, RecordingSender(sender))

        def recording_share(tables, tasks):
            shares.append([payload[5] // 256 for _, payload in tasks])
            return real_share(tables, tasks)

        real_pooled, real_share = scanner_module._pooled_share, scanner_module._score_share
        monkeypatch.setattr(scanner_module, "_BLOCK", 16)
        monkeypatch.setattr(scanner_module, "Process", InProcessPool)
        monkeypatch.setattr(scanner_module, "_pooled_share", recording_pooled)
        monkeypatch.setattr(scanner_module, "_score_share", recording_share)
        for workers in (2, 3):
            sent.clear()
            shares.clear()
            scan_trees(14, workers=workers)
            # 3159 trees in 13 runs, twelve of 256 and one of 87: each of
            # the w - 1 pool processes, started before this process scores
            # share 0, sends one message, its share's parts
            runs = scanner_module._shares([256] * 12 + [87], workers)
            assert shares == runs[1:] + runs[:1]
            assert [len(parts) for parts in sent] == [len(share) for share in runs[1:]]

    def test_a_pool_process_error_of_any_kind_is_raised_here(self, monkeypatch):
        parent, real_run = os.getpid(), scanner_module._score_run

        def failing_run(tables, payload):
            if os.getpid() != parent:
                raise ValueError("lost in a pool process")
            return real_run(tables, payload)

        # pool processes fork from this process, so they inherit the patch
        monkeypatch.setattr(scanner_module, "_score_run", failing_run)
        with pytest.raises(ValueError, match="^lost in a pool process$") as raised:
            scan_trees(11, workers=2)
        assert isinstance(raised.value.__cause__, RemoteTraceback)
        assert not multiprocessing.active_children()

    def test_a_pool_process_that_dies_unsent_ends_the_call(self, monkeypatch):
        parent, real_run = os.getpid(), scanner_module._score_run

        def dying_run(tables, payload):
            if os.getpid() != parent:
                os._exit(3)
            return real_run(tables, payload)

        # pool processes fork from this process, so they inherit the patch;
        # this process closes its copy of the send end, so the read ends
        monkeypatch.setattr(scanner_module, "_score_run", dying_run)
        with pytest.raises(EOFError):
            scan_trees(11, workers=3)
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("workers", [1, 2, 3, 5, 20])
    def test_shares_deal_every_run_once_and_this_process_the_lightest(self, workers):
        # the runs of the tree sweep of orders 4-17: one per order to 15,
        # two for order 16 and three for order 17
        size = scanner_module._RUN_BLOCKS * scanner_module._BLOCK
        trees = [min(size, count - first) for count in map(scanner_module.count_free_trees, range(4, 18))
                 for first in range(0, count, size)]
        assert len(trees) == 17 and sum(trees) == 81134
        shares = scanner_module._shares(trees, workers)
        assert len(shares) == workers
        assert sorted(chain(*shares)) == list(range(17))
        assert all(share == sorted(share) for share in shares)
        # a run weighs its trees and two blocks; share 0 is the lightest,
        # and dealt largest first, no share outweighs it by more than a run
        weights = [sum(trees[i] + 2 * scanner_module._BLOCK for i in share) for share in shares]
        assert weights[0] == min(weights)
        assert max(weights) - weights[0] <= size + 2 * scanner_module._BLOCK
        if workers == 2:
            assert [sum(trees[i] for i in share) for share in shares] == [41583, 39551]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_stream_short_of_the_tree_count_raises(self, monkeypatch, workers):
        def short_segments(tables, n):
            segments = real_segments(tables, n)
            if n == 11:  # order 11 loses its star, the last tree of the last segment
                segments[-1, 3] -= 1
            return segments

        real_segments = scanner_module.tree_segments
        monkeypatch.setattr(scanner_module, "tree_segments", short_segments)
        match = "order-11 stream held 234 trees, but the counting recurrence gives 235"
        with pytest.raises(RouteDisagreement, match=match):
            scan_trees(11, workers=workers)
        with pytest.raises(RouteDisagreement, match=match):
            conjecture_scan([11, 12], workers=workers)
        with pytest.raises(RouteDisagreement, match=match):
            verify_claims(claims=["tree-average-cap"], max_tree_order=11)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_caps_are_checked_only_for_the_claims(self, monkeypatch, workers):
        def no_degrees(rest, child):
            raise AssertionError("degrees computed on a sweep that checks no cap")

        # the tables, degrees included, are built before any pool opens
        monkeypatch.setattr(scanner_module, "_join_degrees", no_degrees)
        conjecture_scan([9, 10], workers=workers)
        scan_trees(10, workers=workers)
        with pytest.raises(AssertionError, match="checks no cap"):
            verify_claims(claims=["tree-average-cap"], max_tree_order=9)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_sweep_encodes_only_the_codes_its_sides_keep(self, monkeypatch, workers):
        # the tasks' sides hold row keys, and with no spot check and no cap
        # the only trees encoded are those the merged sides keep, each once,
        # in this process; pool workers fork with the patch, so a call made
        # in one is not counted here
        encoded, real_to_graph6 = [], scanner_module.to_graph6

        def counting_to_graph6(graph):
            encoded.append(real_to_graph6(graph))
            return encoded[-1]

        monkeypatch.setattr(scanner_module, "to_graph6", counting_to_graph6)
        sweeps = scanner_module._tree_sweeps(range(4, 18), "av1", workers, 5, 0.0)
        held = [code for sweep in sweeps for side in (sweep.lo, sweep.hi)
                for *_, codes in side.values for code in codes]
        assert encoded == held
        assert len(held) == 79

    def test_shifted_sample_picks_the_stream_indices_of_a_range(self):
        for total, want, seed in ((1301, 65, 2024), (106, 1, 0), (551, 551, 7), (30, 12, 59)):
            spots = scanner_module._SpotSample(total, want, seed)
            stream = spots.picks(np.arange(3 * total)).tolist()
            for first in (0, 1, total - 1, total, total + 17, 2 * total):
                shifted = replace(spots, seed=spots.seed + first)
                local = shifted.picks(np.arange(total))
                assert (local + first).tolist() == [i for i in stream
                                                    if first <= i < first + total]

    @pytest.mark.parametrize("seed", [0, 7, 2024])
    def test_spot_sample_picks_exactly_the_wanted_count(self, seed):
        for n in range(2, 13):
            total = scanner_module.count_free_trees(n)
            for rate in (0.0, 0.01, 0.05, 0.2, 0.5, 1.0):
                want = min(total, max(1, int(rate * total))) if rate else 0
                assert scanner_module._spot_sample(n, rate).want == want
                spots = scanner_module._SpotSample(total, want, seed)
                rule = [i for i in range(total) if (i + seed) * want % total < want]
                assert spots.picks(np.arange(total)).tolist() == rule, (n, rate)
                assert len(rule) == want

    @pytest.mark.parametrize("workers", [0, -4])
    def test_worker_count_below_one_refused(self, workers):
        with pytest.raises(ValueError, match="worker count must be at least 1"):
            scan_trees(6, workers=workers)
        with pytest.raises(ValueError, match="worker count must be at least 1"):
            conjecture_scan([6], workers=workers)

    def test_worker_count_above_the_limit_refused_before_any_pool(self, monkeypatch):
        def no_pool(**kwargs):
            raise AssertionError("a pool opened for a refused worker count")

        monkeypatch.setattr(scanner_module, "Process", no_pool)
        limit = scanner_module.WORKER_LIMIT
        match = rf"worker count {limit + 1} above the limit \({limit}\)"
        with pytest.raises(ValueError, match=match):
            scan_trees(6, workers=limit + 1)
        with pytest.raises(ValueError, match=match):
            conjecture_scan([6, 7], workers=limit + 1)


def assert_joined_like_the_dp(tables):
    """Every row's states and degree data in a ``_Tables`` built with the
    caps equal the per-position DP and a bincount of the parents, taken
    over 8192 rows of a size at a time."""
    for k in range(1, tables.rooted.top):
        table, start = tables.rooted.tables[k], tables.offsets[k]
        for lo in range(0, len(table), 8192):
            parent = level_parents(table[lo:lo + 8192])
            at = slice(start + lo, start + lo + len(parent))
            assert np.array_equal(tables.states[:, at], root_states_batch(parent)), (k, lo)
            assert np.array_equal(tables.degrees[:, at], rooted_degrees(parent)), (k, lo)


class TestJoin:
    def test_join_equals_the_block_route_at_every_order(self, monkeypatch):
        # values and degrees of each tree, row for row in stream order,
        # against the batched DP and a bincount over whole trees, joined a
        # run of one block at a time
        monkeypatch.setattr(scanner_module, "_RUN_BLOCKS", 1)
        tables = _Tables(18, True)
        for n in range(2, 19):
            joined = [[] for _ in range(6)]
            for _, segments in scanner_module._runs(tree_segments(tables.rooted, n)):
                rest, first = tables.rows(n, segments)
                for column, got in zip(joined, (*tables.scalars(rest, first),
                                                *tables.tree_degrees(rest, first))):
                    column.append(got)
            parent = level_parents(tree_rows(n))
            want = (*tree_scalars_batch(parent), *block_degrees(parent))
            for column, expected in zip(joined, want):
                assert np.concatenate(column).tolist() == expected.tolist(), n

    def test_tables_of_smaller_orders_are_suffixes(self):
        # the first subtrees and the rests of order n are suffixes of the
        # tables of order n + 1, whose rows are suffixes of the next order's,
        # so tables built for the top order serve every smaller one
        for n in range(3, 18):
            tables, larger = RootedTables(n).tables, RootedTables(n + 1).tables
            for k, rows in tables.items():
                assert larger[k].tobytes().endswith(rows.tobytes()), (n, k)
            for s in range(1, n - 1):
                m = n - s
                assert larger[m].tobytes().endswith(walked(rest_start(n, s))), (n, s)
                assert larger[s].tobytes().endswith(walked(tallest(s, min(s - 1, m - 1)))), (n, s)

    def test_joined_rows_equal_the_per_position_dp(self):
        # every row's states and degree data, joined from two smaller rows,
        # against the per-position DP and a bincount over each rooted tree
        for top in range(2, 19):
            assert_joined_like_the_dp(_Tables(top, True))

    @pytest.mark.parametrize("row, held", [(b"\0\1\2", 92), (b"\0\1\1", 99)],
                             ids=["path", "star"])
    def test_a_row_missing_from_the_tables_is_found(self, monkeypatch, row, held):
        # the path on 3 vertices is the first subtree of the path on 4, and
        # the star on 3 the remainder of the star on 4: without its row and
        # its join, the order-10 stream misses trees, which the tree count
        # finds
        def missing_a_row(top):
            rooted = RootedTables(top)
            keep = [i for i, levels in enumerate(rooted.tables[3].tolist()) if bytes(levels) != row]
            rooted.tables[3], rooted.joins[3] = rooted.tables[3][keep], rooted.joins[3][keep]
            return rooted

        monkeypatch.setattr(scanner_module, "RootedTables", missing_a_row)
        match = f"the order-10 stream held {held} trees, but the counting recurrence gives 106"
        with pytest.raises(RouteDisagreement, match=match):
            conjecture_scan([10], workers=1)

    def test_join_products_at_the_order_limit_stay_below_the_bound(self, order_limit_tables):
        # the joined tables of order 24 equal the per-position DP row for
        # row; each product of the join at order 24 is at most the product
        # of the largest rest state and the largest first-subtree sum it
        # meets, over the tables; those stay below n·2^n < 2^29, far inside
        # int64
        n = scanner_module.TREE_ORDER_LIMIT
        tables = order_limit_tables
        assert_joined_like_the_dp(tables)
        offsets = tables.offsets
        # a sweep's tree key, rest·R + first with R rows, is below R^2, which
        # int64 holds
        assert int(offsets[-1]) ** 2 < 2 ** 63
        largest = {k: tables.states[:, offsets[k]:offsets[k + 1]].max(axis=1) for k in range(1, n)}
        products = []
        for s in range(1, n - 1):
            pa0, pa1, pb0, pb1, pc0, pc1, pf0, pf1 = (int(v) for v in largest[n - s])
            a0, a1, b0, b1, c0, c1, f0, f1 = (int(v) for v in largest[s])
            # what T brings to the join: free = a + b, one = c + f, edge = b + c, out = a
            parts = (a0 + b0, a1 + b1, c0 + f0, c1 + f1, b0 + c0, b1 + c1, a0, a1)
            products += [rest * part for rest in (pa0, pa1, pb0, pb1, pc0, pc1, pf0, pf1)
                         for part in parts]
        # the bound holds, and with less than a factor 4 to spare
        assert n << (n - 2) < max(products) < n << n
        # every state of a rooted tree of size k < n is below k·2^k < 2^31,
        # so the sweep's tables hold them exactly as int32
        assert all(int(largest[k].max()) < k << k for k in largest)
        assert max(k << k for k in largest) < np.iinfo(np.int32).max


class TestPathCycleUnions:
    def test_order_four_population(self):
        combos = {tuple(sorted(combo)) for combo, _ in path_cycle_unions(4)}
        assert combos == {
            (("path", 4),),
            (("path", 2), ("path", 2)),
            (("cycle", 4),),
        }

    def test_all_members_satisfy_the_filter(self):
        from nisets.graphs import structural_predicates

        for n in range(2, 9):
            for _, graph in path_cycle_unions(n):
                s = structural_predicates(graph)
                assert not s.has_isolated_vertex and s.max_degree <= 2
                assert graph.n == n

    def test_matches_exhaustive_classes(self):
        # the structured generator agrees with the brute-force class scan
        for n in range(2, 8):
            structured = len(list(path_cycle_unions(n)))
            summaries = [structural_predicates(g) for g, _ in labeled_graph_classes(n)]
            brute = sum(1 for s in summaries if not s.has_isolated_vertex and s.max_degree <= 2)
            assert structured == brute


@pytest.fixture(scope="module")
def reports():
    return verify_claims(max_tree_order=10, max_graph_order=5,
                         max_ratio_order=8, max_family_order=20)


class TestClaims:

    def test_no_inequality_violations(self, reports):
        assert not has_inequality_violations(reports)

    def test_recorded_discrepancies_present(self, reports):
        flagged = {(r.claim_id, r.order)
                   for r in reports for v in r.violations if v.equality_claim}
        assert ("tree-average-cap", 4) in flagged
        assert ("subdivided-star-band", 6) in flagged

    def test_one_report_per_claim_and_order(self, reports):
        seen = {(r.claim_id, r.order) for r in reports}
        assert len(seen) == len(reports)
        # a repeated claim id counts once, at its first position
        repeated = verify_claims(claims=["tree-average-cap", "degree-two-ratio", "tree-average-cap"],
                                 max_tree_order=6, max_ratio_order=5)
        assert [(r.claim_id, r.order) for r in repeated] == (
            [("tree-average-cap", n) for n in range(2, 7)]
            + [("degree-two-ratio", n) for n in range(2, 6)])

    def test_selected_claims_only(self):
        reports = verify_claims(claims=["tree-average-lower"], max_tree_order=8)
        assert {r.claim_id for r in reports} == {"tree-average-lower"}
        assert all(r.status == "pass" for r in reports)

    def test_unknown_claim_rejected(self):
        with pytest.raises(ValueError, match="unknown claims"):
            verify_claims(claims=["flux-capacitor"])

    def test_a_single_claim_id_is_one_claim(self):
        assert (verify_claims(claims="tree-average-cap", max_tree_order=6)
                == verify_claims(claims=["tree-average-cap"], max_tree_order=6))
        with pytest.raises(ValueError, match="^unknown claims: flux-capacitor$"):
            verify_claims(claims="flux-capacitor")

    def test_order_caps_enforced(self):
        with pytest.raises(ValueError, match="exhaustive limit"):
            verify_claims(max_graph_order=8)
        with pytest.raises(ValueError, match="1..24"):
            verify_claims(max_tree_order=25)
        with pytest.raises(ValueError, match=r"max ratio order 31 above the path-cycle limit \(30\)"):
            verify_claims(max_ratio_order=31)
        with pytest.raises(ValueError, match=r"max family order 63 above the graph6 limit \(62\)"):
            verify_claims(max_family_order=63)

    def test_reports_are_deterministic(self, reports):
        again = verify_claims(max_tree_order=10, max_graph_order=5,
                              max_ratio_order=8, max_family_order=20)
        assert reports == again

    def test_json_shape(self, reports):
        d = reports[0].to_json_dict()
        for key in ("claim_id", "population", "order", "status", "extremal",
                    "witnesses", "violations"):
            assert key in d
        assert set(d["extremal"]) == {"min", "max"}


TREE_CLAIMS = ["tree-average-lower", "tree-average-band", "tree-average-cap", "internal-degree-cap"]


class TestTreeClaimPass:
    def test_verify_claims_golden(self):
        # SHA-256 of this report list as produced before the tree claims
        # shared one walk per order
        reports = verify_claims(max_tree_order=12, max_graph_order=6, witness_cap=None)
        text = json.dumps([r.to_json_dict() for r in reports], indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "2058f979cbccc6d4177a18ace8889c62b0e4d4a9a976a989209601d9fd747120")

    def test_inflated_trees_are_listed_by_both_caps(self, monkeypatch):
        # the first tree in stream order (the path) becomes the maximum; a
        # mid-stream tree breaks both caps without entering either side
        stream = [seq.levels for seq in level_sequences(8)]
        factors = {stream[0]: 4, stream[len(stream) // 2]: 3}
        inflated = {}
        for levels, factor in factors.items():
            _, _, sig1, s1 = tree_scalars(levels)
            inflated[levels] = Fraction(factor * s1, sig1)
        first, second = inflated
        assert Fraction(9, 2) < inflated[second] < inflated[first]

        # the join sees values, which name these two trees among the order's
        values = [tree_scalars(levels) for levels in stream]
        assert all(values.count(tree_scalars(levels)) == 1 for levels in factors)

        def inflating_join(rest, first):
            values = sig0, s0, sig1, s1 = join_scalars(rest, first)
            factor = np.ones_like(s1)
            for levels, times in factors.items():
                factor[valued_like(values, levels)] = times
            return sig0, s0, sig1, factor * s1

        monkeypatch.setattr(scanner_module, "join_scalars", inflating_join)
        reports = verify_claims(claims=["tree-average-cap", "internal-degree-cap"],
                                max_tree_order=9, witness_cap=None)
        g6 = {levels: to_graph6(levels_to_graph(levels)) for levels in factors}
        for claim_id in ("tree-average-cap", "internal-degree-cap"):
            (report,) = [r for r in reports if (r.claim_id, r.order) == (claim_id, 8)]
            assert [(v.graph6, v.observed) for v in report.violations] == [
                (g6[levels], format_rational(value)) for levels, value in inflated.items()]
            assert (report.max_value, report.max_witnesses) == (inflated[first], (g6[first],))
        others = [r for r in reports if r.order not in (4, 8)]
        assert others and not any(r.violations for r in others)

    def test_star_above_the_minimum_is_reported(self, monkeypatch):
        # the star's average 2 becomes 13/4, strictly between the other
        # order-7 trees' extremes 3 and 86/25, so the star enters neither side
        star = (0,) + (1,) * 6
        stars = [(0,) + (1,) * (n - 1) for n in range(2, 8)]

        def inflating_join(rest, first):
            values = sig0, s0, sig1, s1 = join_scalars(rest, first)
            # at each order only the star has n - 1 one-edge subsets
            is_star = np.logical_or.reduce([valued_like(values, levels) for levels in stars])
            return sig0, s0, np.where(is_star, 8, 1) * sig1, np.where(is_star, 13, 1) * s1

        monkeypatch.setattr(scanner_module, "join_scalars", inflating_join)
        (report,) = verify_claims(claims=["tree-average-lower"], max_tree_order=7)[-1:]
        assert report.order == 7 and report.min_value < Fraction(13, 4) < report.max_value
        assert [v.graph6 for v in report.violations] == [to_graph6(levels_to_graph(star))]

    def test_one_walk_per_order(self, monkeypatch):
        sampled = {n: spot_check_trees(n, 0.05) for n in range(2, 11)}
        walks = Counter()

        def counting_segments(tables, n):
            walks[n] += 1
            return real_segments(tables, n)

        real_segments = scanner_module.tree_segments
        monkeypatch.setattr(scanner_module, "tree_segments", counting_segments)
        for runs, rate in ((1, 0.0), (2, 0.05)):
            checked = {}
            reports = verify_claims(claims=TREE_CLAIMS, max_tree_order=10,
                                    spot_check_rate=rate, spot_checked=checked)
            assert {r.claim_id for r in reports} == set(TREE_CLAIMS)
            # nothing is cached between calls: each call walks each order
            # once, and the spot checks ride that walk
            assert walks == {n: runs for n in range(2, 11)}
            assert checked == (sampled if rate else {})

    def test_no_tree_claim_walks_no_tree(self, monkeypatch):
        walks = Counter()

        def counting_segments(tables, n):
            walks[n] += 1
            return real_segments(tables, n)

        real_segments = scanner_module.tree_segments
        monkeypatch.setattr(scanner_module, "tree_segments", counting_segments)
        checked = {}
        reports = verify_claims(claims=["degree-two-ratio"], max_tree_order=9,
                                max_ratio_order=4, spot_check_rate=0.05, spot_checked=checked)
        assert {r.claim_id for r in reports} == {"degree-two-ratio"}
        # the spot checks ride only the tree claims' walk
        assert walks == Counter() and checked == {}

    def test_claim_walk_checks_the_rows_it_scored(self, monkeypatch):
        # a DP row off by one at a sampled tree is caught on the claim walk
        def lying_join(rest, first):
            sig0, s0, sig1, s1 = join_scalars(rest, first)
            return sig0, s0, sig1, s1 + 1

        monkeypatch.setattr(scanner_module, "join_scalars", lying_join)
        with pytest.raises(RouteDisagreement, match="tree DP"):
            verify_claims(claims=["tree-average-cap"], max_tree_order=6, spot_check_rate=0.01)

    def test_empty_selection_refused_before_any_suite(self, monkeypatch):
        calls = Counter()
        for suite in ("_graph_claim_reports", "_tree_sweeps"):
            monkeypatch.setattr(scanner_module, suite,
                                lambda *args, suite=suite, **kwargs: calls.update([suite]))
        for empty in ([], (), ""):
            with pytest.raises(ValueError, match="^no claim selected"):
                verify_claims(claims=empty)
        assert calls == Counter()

    @pytest.mark.parametrize("suite, option, first", [
        ("tree", "max_tree_order", 2), ("graph", "max_graph_order", 2),
        ("ratio", "max_ratio_order", 2), ("family", "max_family_order", 4)])
    def test_order_below_a_selected_suite_refused(self, suite, option, first):
        with pytest.raises(ValueError, match=f"max {suite} order {first - 1} lies below"):
            verify_claims(**{option: first - 1})
        # an unselected suite's order is not checked
        claim = next(c for c, (s, *_) in scanner_module._CLAIMS.items() if s != suite)
        orders = {"max_tree_order": 3, "max_graph_order": 3, "max_ratio_order": 3,
                  "max_family_order": 5, option: first - 1}
        assert verify_claims(claims=[claim], **orders)

    @pytest.mark.parametrize("claim, suite, first", [
        (claim, suite, first) for claim, (suite, first, *_) in scanner_module._CLAIMS.items()])
    def test_named_claim_checks_from_its_first_order(self, claim, suite, first):
        reports = verify_claims(claims=[claim], **{f"max_{suite}_order": first})
        assert {r.claim_id for r in reports} == {claim}
        (report,) = [r for r in reports if r.order == first]
        assert report.status == "pass"
        assert report.min_value is not None and report.max_value is not None
        with pytest.raises(ValueError, match=f"first order of {claim} \\({first}\\)"):
            verify_claims(claims=[claim], **{f"max_{suite}_order": first - 1})

    def test_degrees_match_structural_predicates(self):
        # and each tree's key spells the stream's level sequence, in order
        tables = _Tables(14, True)
        for n in range(2, 15):
            stream = []
            for _, segments in scanner_module._runs(tree_segments(tables.rooted, n)):
                rest, first = tables.rows(n, segments)
                keys = tables.keys(rest, first)
                for levels, *got in zip(tables.levels(keys), *tables.tree_degrees(rest, first)):
                    stream.append(levels)
                    s = structural_predicates(levels_to_graph(stream[-1]))
                    assert (got[0], got[1] or None) == (s.max_degree, s.min_internal_degree)
            assert stream == tree_rows(n).tolist(), n

    def test_claim_reports_carry_the_extremes_of_their_scan(self):
        # each report names a population and objective; its sides are that
        # scan's, except internal-degree-cap's empty ones below its first order
        claims = TREE_CLAIMS + GRAPH_CLAIMS
        reports = verify_claims(claims=claims, max_tree_order=12, max_graph_order=7,
                                witness_cap=None)
        scans = {}
        for r in reports:
            suite, first, population, objective = scanner_module._CLAIMS[r.claim_id]
            assert (r.population, r.objective) == (population, objective)
            if r.order < first:
                assert (r.claim_id, r.order, r.min_value, r.max_value) == (
                    "internal-degree-cap", 2, None, None)
                continue
            key = (suite, r.order, objective)
            if key not in scans:
                scans[key] = (scan_trees(r.order, objective, witness_cap=None) if suite == "tree"
                              else scan_graphs(r.order, "non-edgeless", objective, witness_cap=None))
            scan = scans[key]
            assert scan.population == population and scan.objective == objective
            fields = ("min_value", "max_value", "min_witnesses", "max_witnesses",
                      "min_count", "max_count")
            assert [getattr(r, f) for f in fields] == [getattr(scan, f) for f in fields], (
                r.claim_id, r.order)
        # 36 tree reports (11 + 11 + 10 + 4) and 26 graph reports (4 * 6 + 2)
        assert len(reports) == 62
        assert {(s, n) for s, n, _ in scans} == (
            {("tree", n) for n in range(2, 13)} | {("graph", n) for n in range(2, 8)})

    def test_graph_average_upper_without_witnesses(self):
        (report,) = verify_claims(claims=["graph-average-upper"], max_graph_order=6,
                                  witness_cap=0)
        assert report.status == "pass"
        assert report.max_count == 1 and report.max_witnesses == ()


GRAPH_CLAIMS = ["graph-average-lower", "graph-average-upper", "union-size-sandwich",
                "edge-average-bracket", "residual-count-sandwich"]


def tamper(monkeypatch, replaced):
    """Plant whole-graph scalars in the graph walk for chosen graphs:
    ``replaced[(level, graph6)]`` is the (count, size-sum) that the
    graph's table row holds at its full vertex mask (level 0), or that its
    record carries as (sigma1, S1) (level 1).  Every proper vertex subset
    keeps its true values."""
    subset_scalars, class_records = scanner_module._subset_scalars, scanner_module._class_records

    def planted_tables(graphs, n):
        count, size = subset_scalars(graphs, n)
        for row, graph in enumerate(graphs):
            if (0, to_graph6(graph)) in replaced:
                count[row, -1], size[row, -1] = replaced[0, to_graph6(graph)]
        return count, size

    def planted_records(n, graph_filter):
        for graph, g6, counts, totals, sigma1, s1 in class_records(n, graph_filter):
            yield (graph, g6, counts, totals, *replaced.get((1, g6), (sigma1, s1)))

    monkeypatch.setattr(scanner_module, "_subset_scalars", planted_tables)
    monkeypatch.setattr(scanner_module, "_class_records", planted_records)


@pytest.fixture
def built_engines(monkeypatch):
    """The graph of every Engine the scanner builds during the test."""
    built = []

    def counting_engine(graph):
        built.append(graph)
        return Engine(graph)

    monkeypatch.setattr(scanner_module, "Engine", counting_engine)
    return built


@pytest.fixture
def built_tables(monkeypatch):
    """The graphs of every subset table the scanner builds during the test,
    one list per table."""
    built = []
    subset_scalars = scanner_module._subset_scalars

    def counting_tables(graphs, n):
        built.append(list(graphs))
        return subset_scalars(graphs, n)

    monkeypatch.setattr(scanner_module, "_subset_scalars", counting_tables)
    return built


def engine_subset_scalars(graph):
    """The general Engine's (sigma0, S0) at every vertex mask of the graph."""
    eng = Engine(graph)
    return [eng.scalars0(mask) for mask in range(1 << graph.n)]


class TestSubsetScalars:
    @pytest.mark.parametrize("n", range(1, GRAPH_SCAN_LIMIT + 1))
    def test_every_mask_of_every_class_matches_the_engine(self, n):
        records = list(scanner_module._class_records(n, "all"))
        assert [r[0] for r in records] == [g for g, _ in labeled_graph_classes(n)]
        for graph, g6, counts, totals, sigma1, s1 in records:
            assert list(zip(counts, totals)) == engine_subset_scalars(graph), g6
            eng = Engine(graph)
            by_edges = eng.i1_by_edges()
            assert (sigma1, s1) == eng.scalars1() == (
                sum(by_edges), sum(k * c for k, c in enumerate(by_edges))), g6

    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(0, (1 << n * (n - 1) // 2) - 1), min_size=1,
                             max_size=3))))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_engine_on_random_graphs(self, drawn):
        n, masks = drawn
        graphs = [graph_from_pair_mask(n, mask) for mask in masks]
        count, size = _subset_scalars(graphs, n)
        for graph, count_row, size_row in zip(graphs, count.tolist(), size.tolist()):
            assert list(zip(count_row, size_row)) == engine_subset_scalars(graph)

    def test_int32_holds_every_subset_up_to_the_limit(self):
        # an order-n table holds sigma0 <= 2^n and S0 <= n * 2^(n-1), both
        # reached by the edgeless graph, so its dtype must hold the limit's
        # S0 bound
        (count,), (size,) = _subset_scalars([graph_from_pair_mask(5, 0)], 5)
        assert count.dtype == size.dtype
        assert (count.max(), size.max()) == (2 ** 5, 5 * 2 ** 4)
        n = GRAPH_SCAN_LIMIT
        assert 2 ** n <= n * 2 ** (n - 1) <= np.iinfo(count.dtype).max


class TestGraphClaimPass:
    def test_verify_claims_golden_to_order_seven(self):
        # SHA-256 of this report list as produced before the graph claims
        # shared one pass per order
        reports = verify_claims(claims=GRAPH_CLAIMS, max_graph_order=7, witness_cap=None)
        text = json.dumps([r.to_json_dict() for r in reports], indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "f663322a021a451c722e7fcb51287cd7d319e7f515aed421c15d246a050d1728")

    @pytest.mark.parametrize("g6, low, high", [("A_", 3, 4), ("Bg", 5, 6)])
    def test_residual_count_bounds_are_inclusive(self, monkeypatch, g6, low, high):
        # K2: the edge's residual count is 1 and deleting an endpoint leaves
        # 2 independent sets, so the sandwich holds for 3 <= sigma0 <= 4.
        # P3: the binding upper bound of each edge deletes the middle vertex,
        # the second endpoint of (0,1) and the first of (1,2).
        graph = from_graph6(g6)
        sigma_g, s_g = Engine(graph).scalars0()
        assert low <= sigma_g <= high
        for sigma0 in (low - 1, low, high, high + 1):
            tamper(monkeypatch, {(0, g6): (sigma0, s_g)})
            # Bg is not its class's representative, so the suite walks this graph alone
            monkeypatch.setattr(scanner_module, "labeled_graph_classes", lambda n: [(graph, 1)])
            _, violations = _graph_claim_reports(graph.n)["residual-count-sandwich"]
            expected = [] if low <= sigma0 <= high else [
                f"edge ({u},{v}) ratio 1/{sigma0}" for u, v in graph.edges()]
            assert [v.observed for v in violations] == expected

    def test_tampered_averages_are_named(self, monkeypatch):
        graphs = [g for g, _ in labeled_graph_classes(5)]
        low, high = [g for g in graphs if g.edge_count and not is_good_graph(g)][:2]
        low_g6, high_g6 = to_graph6(low), to_graph6(high)
        low_sigma1, _ = Engine(low).scalars1()
        high_sigma1, _ = Engine(high).scalars1()
        # low averages 1, below 2 and below every edge's bracket; high averages
        # 50, above every edge's bracket and the union bound
        tamper(monkeypatch, {(1, low_g6): (low_sigma1, low_sigma1),
                             (1, high_g6): (high_sigma1, 50 * high_sigma1)})
        checks = _graph_claim_reports(5)
        assert [v.graph6 for v in checks["graph-average-lower"][1]] == [low_g6]
        for claim_id in ("edge-average-bracket", "union-size-sandwich"):
            assert [v.graph6 for v in checks[claim_id][1]] == [low_g6, high_g6]
        assert not checks["residual-count-sandwich"][1]
        lo, hi = checks["graph-average-lower"][0]
        assert (lo.value, lo.codes) == (1, [low_g6])
        assert (hi.value, hi.codes) == (50, [high_g6])

    def test_covering_edge_mismatches_follow_in_graph6_order(self, monkeypatch):
        # C5 has an edge whose neighbourhoods miss a vertex, yet is moved onto
        # average 2; the star, whose every edge covers all vertices, is moved
        # off it, below 2.  The walk meets the star first, so only the sort
        # by graph6 puts C5 ahead of it
        cycle, star = "DLo", "Ds_"
        assert not is_good_graph(from_graph6(cycle)) and is_good_graph(from_graph6(star))
        codes = [to_graph6(g) for g, _ in labeled_graph_classes(5)]
        assert codes.index(star) < codes.index(cycle)
        cycle_sigma1, _ = Engine(from_graph6(cycle)).scalars1()
        star_sigma1, _ = Engine(from_graph6(star)).scalars1()
        tamper(monkeypatch, {(1, cycle): (cycle_sigma1, 2 * cycle_sigma1),
                             (1, star): (star_sigma1, star_sigma1)})
        covering = "average equals 2 exactly for graphs whose every edge covers all vertices"
        _, lower = _graph_claim_reports(5)["graph-average-lower"]
        assert [(v.graph6, v.claim) for v in lower] == [
            (star, "average size of one-edge subsets is at least 2"),
            (cycle, covering),
            (star, covering),
        ]

    def test_graph_suite_builds_no_polynomial(self, monkeypatch):
        calls = Counter()

        def counted(name):
            route = getattr(Engine, name)

            def wrapper(self, mask):
                calls[name] += 1
                return route(self, mask)
            return wrapper

        for name in ("_i0", "_i1"):
            monkeypatch.setattr(Engine, name, counted(name))
        _graph_claim_reports(6)
        assert calls == {}
        # the counters see the polynomial routes when they run
        Engine(from_graph6("Bw")).i1()
        assert calls["_i0"] and calls["_i1"]

    def test_one_engine_per_non_edgeless_class(self, built_engines, built_tables):
        # the walk builds no Engine, and one subset table over the kept classes
        graphs = [g for g, _ in labeled_graph_classes(6)]
        assert set(_graph_claim_reports(6)) == set(GRAPH_CLAIMS)
        assert built_engines == []
        assert built_tables == [[g for g in graphs if g.edge_count]]

    def test_graph_suite_builds_one_engine_per_non_edgeless_class(self, built_engines,
                                                                  built_tables):
        # one subset table per order, over exactly its non-edgeless classes
        verify_claims(claims=GRAPH_CLAIMS, max_graph_order=6)
        assert built_engines == []
        assert built_tables == [[g for g, _ in labeled_graph_classes(n) if g.edge_count]
                                for n in range(2, 7)]
        classes = sum(1 for n in range(2, 7) for g, _ in labeled_graph_classes(n) if g.edge_count)
        assert sum(map(len, built_tables)) == classes == 202

    def test_claim_sides_are_the_non_edgeless_scans(self):
        # the scan and the claims read the same class records, so each
        # objective's claim sides are its non-edgeless scan's
        for n in range(2, 8):
            checks = _graph_claim_reports(n)
            for objective, claim_id in (("av1", "graph-average-lower"),
                                        ("sigma-ratio", "residual-count-sandwich")):
                scan = scan_graphs(n, "non-edgeless", objective, witness_cap=None)
                lo, hi = checks[claim_id][0]
                assert [lo.value, hi.value, sorted(lo.codes), sorted(hi.codes),
                        len(lo.codes), len(hi.codes)] == [
                    scan.min_value, scan.max_value, list(scan.min_witnesses),
                    list(scan.max_witnesses), scan.min_count, scan.max_count], (n, claim_id)

    def test_av1_graph_scan_reads_no_level_zero_scalars(self, monkeypatch, built_engines,
                                                        built_tables):
        calls = Counter()
        scalars0 = Engine.scalars0

        def counted(self, mask=None):
            calls["scalars0"] += 1
            return scalars0(self, mask)

        monkeypatch.setattr(Engine, "scalars0", counted)
        scan_graphs(7)
        assert calls == {}
        assert built_engines == []
        assert built_tables == [[g for g, _ in labeled_graph_classes(7)]]
        # the sigma-ratio scan reads its one table too, built over its 4 classes
        scan_graphs(3, "all", "sigma-ratio")
        assert calls == {}
        assert built_engines == []
        assert built_tables[1:] == [[g for g, _ in labeled_graph_classes(3)]]
        assert len(built_tables[1]) == 4
        # the counter sees level-zero reads when they run
        Engine(from_graph6("Bw")).scalars0()
        assert calls == {"scalars0": 1}

    @pytest.mark.parametrize("n", [6, 7])
    def test_upper_claim_names_the_single_edge(self, monkeypatch, n):
        # the single edge drops to 2 and a two-edge class alone takes its
        # value n/2 + 1: the max side holds one class, and it is not the
        # single edge plus isolated vertices
        single = to_graph6(build(FamilySpec("G_special", n)))
        two_edges = next(to_graph6(g) for g, _ in labeled_graph_classes(n) if g.edge_count == 2)
        single_sigma1, _ = Engine(from_graph6(single)).scalars1()
        two_sigma1, _ = Engine(from_graph6(two_edges)).scalars1()
        tamper(monkeypatch, {(1, single): (single_sigma1, 2 * single_sigma1),
                             (1, two_edges): (2 * two_sigma1, (n + 2) * two_sigma1)})
        (_, hi), upper = _graph_claim_reports(n)["graph-average-upper"]
        assert (hi.value, hi.codes) == (Fraction(n, 2) + 1, [two_edges])
        assert [v.graph6 for v in upper] == [single]


class TestConjecture:
    def test_small_orders(self):
        records = conjecture_scan(range(4, 9))
        by_order = {rec.order: rec for rec in records}
        assert by_order[4].subdivided_star_is_unique_max
        assert by_order[4].max_value == Fraction(12, 5)
        # at order 6 another tree ties the subdivided star, so not unique
        assert not by_order[6].subdivided_star_is_unique_max
        assert by_order[6].max_value == by_order[6].subdivided_star_value == 3
        assert len(by_order[6].max_witnesses) == 2
        for n in (5, 7, 8):
            assert by_order[n].subdivided_star_is_unique_max

    def test_top_list_is_sorted(self):
        (record,) = conjecture_scan([9], top_k=5)
        values = [v for _, v in record.top]
        assert values == sorted(values, reverse=True)
        assert len(record.top) == 5
        assert record.top[0][1] == record.max_value

    def test_order_floor(self):
        with pytest.raises(ValueError, match=">= 4"):
            conjecture_scan([3])

    def test_empty_order_list_refused(self):
        # an empty selection would check nothing, as verify_claims refuses
        for orders in ([], (), range(5, 4)):
            with pytest.raises(ValueError, match="no order selected"):
                conjecture_scan(orders)

    def test_orders_checked_before_any_sweep(self, monkeypatch):
        def no_sweep(*args):
            raise AssertionError("an order was swept before every order was checked")

        monkeypatch.setattr(scanner_module, "_score_run", no_sweep)
        monkeypatch.setattr(scanner_module, "RootedTables", no_sweep)
        with pytest.raises(ValueError, match="<= 24"):
            conjecture_scan(range(18, 26))
        with pytest.raises(ValueError, match="<= 24"):
            conjecture_scan(range(18, 26), workers=2)

    def test_negative_top_refused(self):
        with pytest.raises(ValueError, match="top list length"):
            conjecture_scan([6], top_k=-1)

    def test_a_tree_in_the_subdivided_stars_place_is_not_unique(self, monkeypatch):
        # R drops to 2 and the star takes R's exact (sigma1, S1): the max
        # side holds one tree, and it is not R
        n = 9
        star_levels = [0] + [1] * (n - 1)
        r_levels = [0, 1, 2] + [1] * (n - 3)
        # R is the unique maximiser, and the star alone has n - 1 one-edge
        # subsets, so their values name them among the order's trees
        (record,) = conjecture_scan([n])
        assert record.subdivided_star_is_unique_max
        _, _, r_sigma1, r_total1 = tree_scalars(r_levels)

        def moved(rest, first):
            values = join_scalars(rest, first)
            is_r, is_star = valued_like(values, r_levels), valued_like(values, star_levels)
            sig0, s0, sig1, tot1 = (v.copy() for v in values)
            sig1[is_r], tot1[is_r] = r_sigma1, 2 * r_sigma1
            sig1[is_star], tot1[is_star] = r_sigma1, r_total1
            return sig0, s0, sig1, tot1

        monkeypatch.setattr(scanner_module, "join_scalars", moved)
        (moved_record,) = conjecture_scan([n])
        assert moved_record.max_value == moved_record.subdivided_star_value == record.max_value
        assert moved_record.max_witnesses == (to_graph6(levels_to_graph(star_levels)),)
        assert not moved_record.subdivided_star_is_unique_max

    def test_stream_levels_name_exactly_the_subdivided_star(self):
        # the scan names R by the graph6 of its stream level sequence; the
        # canonical key says the same.  A tree of another degree sequence is
        # neither R's graph6 nor isomorphic to R, so only R's is keyed
        def degrees(g):
            return sorted(map(g.degree, range(g.n)))

        for n in range(4, 17):
            r = build(FamilySpec("R", n))
            r_key, r_degrees = tree_canonical_key(r), degrees(r)
            r_code = to_graph6(levels_to_graph([0, 1, 2] + [1] * (n - 3)))
            for tree in free_trees(n):
                is_r = degrees(tree) == r_degrees and tree_canonical_key(tree) == r_key
                assert (to_graph6(tree) == r_code) == is_r


def test_spot_check_catches_disagreement(monkeypatch):
    import nisets.scanner as scanner_module

    class Liar:
        def __init__(self, graph):
            self.graph = graph

        def scalars0(self):
            return (1, 1)

        def scalars1(self):
            return (1, 1)

    monkeypatch.setattr(scanner_module, "Engine", Liar)
    with pytest.raises(RouteDisagreement):
        spot_check_trees(5, 1.0)


def test_spot_check_catches_tree_dp_disagreement(monkeypatch):
    import nisets.scanner as scanner_module

    def lying_join(rest, first):
        return (np.ones(rest.shape[1], dtype=np.int64),) * 4

    monkeypatch.setattr(scanner_module, "join_scalars", lying_join)
    with pytest.raises(RouteDisagreement, match="tree DP"):
        spot_check_trees(5, 1.0)


def test_spot_check_builds_one_oracle_table_per_tree(monkeypatch):
    # order 12 is one block, so its 55 checked trees share one kernel call,
    # and at most 2^18 >> 12 = 64 graphs share a pass: all 55 enter one
    passes, real_pass = [], oracle_module._oracle_pass

    def counting_pass(graphs):
        passes.append(list(graphs))
        return real_pass(graphs)

    monkeypatch.setattr(oracle_module, "_oracle_pass", counting_pass)
    checked = spot_check_trees(12, 0.1)
    entered = [to_graph6(graph) for graph in chain.from_iterable(passes)]
    assert checked == 55 and len(entered) == checked and len(set(entered)) == checked
    assert len(passes) == 1


def test_spot_check_catches_oracle_disagreement(monkeypatch):
    def lying_oracle_profiles_of(graphs):
        lies = []
        for profiles in oracle_profiles_of(graphs):
            shifted = OracleProfile(1, (0,) + profiles[1].by_size[:-1])
            lies.append((profiles[0], shifted) + profiles[2:])
        return lies

    monkeypatch.setattr(scanner_module, "oracle_profiles_of", lying_oracle_profiles_of)
    with pytest.raises(RouteDisagreement, match=r"vs subset oracle \(\d+, \d+\) at level 1"):
        spot_check_trees(5, 1.0)
