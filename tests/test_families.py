"""Family constructors, closed forms and the known ratio table."""

from fractions import Fraction

import pytest

from crosschecks import ratio_table
from nisets.engine import nis_summary
from nisets.families import (
    CLOSED_FORM_FAMILIES,
    FAMILY_MIN_ORDER,
    FamilySpec,
    build,
    closed_form_summary,
)
from nisets.graphs import MAX_VERTICES
from nisets.trees import tree_canonical_key


def test_min_orders_enforced():
    with pytest.raises(ValueError, match=">= 4"):
        FamilySpec("R", 3)
    with pytest.raises(ValueError, match=">= 3"):
        FamilySpec("cycle", 2)
    with pytest.raises(ValueError, match=">= 3"):
        FamilySpec("G_special", 2)
    with pytest.raises(ValueError, match="unknown family"):
        FamilySpec("wheel", 5)


def test_orders_past_the_vertex_universe_refused():
    with pytest.raises(ValueError, match="<= 64"):
        FamilySpec("path", MAX_VERTICES + 1)
    # at the last order the closed form and the constructed graph agree
    for family in ("path", "R"):
        spec = FamilySpec(family, MAX_VERTICES)
        assert closed_form_summary(spec, 1) == nis_summary(build(spec), 1)


def test_subdivided_star_smallest_is_path():
    assert tree_canonical_key(build(FamilySpec("R", 4))) == tree_canonical_key(
        build(FamilySpec("path", 4)))


def test_single_edge_with_isolates_shape():
    g = build(FamilySpec("G_special", 6))
    assert g.n == 6 and g.edge_count == 1


def test_star_center_degree():
    g = build(FamilySpec("star", 5))
    assert g.degree(0) == 4 and all(g.degree(v) == 1 for v in range(1, 5))


def test_subdivided_star_shape():
    g = build(FamilySpec("R", 7))
    degrees = sorted(g.degree(v) for v in range(7))
    assert degrees == [1, 1, 1, 1, 1, 2, 5]


def test_closed_form_examples():
    s = closed_form_summary(FamilySpec("star", 7), 1)
    assert (s.sigma, s.total, s.average) == (6, 12, 2)
    assert closed_form_summary(FamilySpec("R", 6), 1).average == 3
    assert closed_form_summary(FamilySpec("G_special", 10), 1).average == 6
    assert closed_form_summary(FamilySpec("R", 10), 1).average == Fraction(741, 143)


@pytest.mark.parametrize("n", range(2, 21))
def test_star_and_complete_counts(n):
    star = closed_form_summary(FamilySpec("star", n), 1)
    assert star.sigma == n - 1 and star.total == 2 * (n - 1)
    comp = closed_form_summary(FamilySpec("complete", n), 1)
    assert comp.sigma == n * (n - 1) // 2 and comp.total == n * (n - 1)


def test_closed_forms_match_engine():
    for family in CLOSED_FORM_FAMILIES:
        for n in range(max(FAMILY_MIN_ORDER[family], 2), 21):
            g = build(FamilySpec(family, n))
            for level in (0, 1):
                want = closed_form_summary(FamilySpec(family, n), level)
                got = nis_summary(g, level)
                assert (got.sigma, got.total) == (want.sigma, want.total), (family, n, level)


def test_cycle_has_no_closed_form():
    assert CLOSED_FORM_FAMILIES == tuple(f for f in FAMILY_MIN_ORDER if f != "cycle")
    with pytest.raises(ValueError, match="cycle"):
        closed_form_summary(FamilySpec("cycle", 5), 1)


def test_unsupported_level():
    with pytest.raises(ValueError, match="level"):
        closed_form_summary(FamilySpec("star", 5), 2)


def test_ratio_table_values():
    table = dict(ratio_table())
    assert table["P5"] == Fraction(10, 13)
    assert table["C4"] == Fraction(4, 7)
    assert table["P4"] == Fraction(5, 8)
    assert table["C3"] == Fraction(3, 4)
    assert table["P3"] == Fraction(2, 5)
    assert table["P2"] == Fraction(1, 3)


class TestSubdividedStarBand:
    def r_average(self, n):
        return closed_form_summary(FamilySpec("R", n), 1).average

    def test_below_half_plus_one_half(self):
        for n in range(4, 41):
            assert self.r_average(n) < Fraction(n + 1, 2)

    def test_above_half_with_exceptions(self):
        for n in range(4, 41):
            value = self.r_average(n)
            if n == 6:
                assert value == 3  # exact equality, not strict
            elif n in (7, 8):
                assert value < Fraction(n, 2)
            else:
                assert value > Fraction(n, 2)

    def test_gap_to_upper_shrinks(self):
        # the distance to (n+1)/2 peaks at order 7, then decreases towards 0;
        # it stays below 1/50 from order 16 and below 1/100 from order 18
        gaps = {n: Fraction(n + 1, 2) - self.r_average(n) for n in range(4, 41)}
        for n in range(7, 40):
            assert gaps[n + 1] < gaps[n]
        assert gaps[16] < Fraction(1, 50)
        assert gaps[18] < Fraction(1, 100)
        # trivially, the signed difference is below 0.01 everywhere
        assert all(self.r_average(n) - Fraction(n + 1, 2) < Fraction(1, 100)
                   for n in range(4, 41))


def test_path_closed_forms_match_engine_through_order_40():
    for n in range(41):
        path = build(FamilySpec("path", n))
        for level in (0, 1):
            want = closed_form_summary(FamilySpec("path", n), level)
            got = nis_summary(path, level)
            assert (got.sigma, got.total) == (want.sigma, want.total), (n, level)
