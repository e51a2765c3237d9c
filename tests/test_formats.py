"""Edge-list and graph6 round trips, plus parse-error positions."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nisets.formats import (
    GRAPH6_ORDER_LIMIT,
    FormatError,
    from_graph6,
    parse_edge_list,
    to_graph6,
)
from nisets.graphs import build_graph, graph_from_pair_mask


@st.composite
def graphs(draw, max_order):
    n = draw(st.integers(0, max_order))
    return graph_from_pair_mask(n, draw(st.integers(0, (1 << n * (n - 1) // 2) - 1)))


# single-byte anchors from the standard encoding
KNOWN = {
    "A?": (2, []),
    "A_": (2, [(0, 1)]),
    "Bw": (3, [(0, 1), (0, 2), (1, 2)]),
    "C~": (4, [(u, v) for u in range(4) for v in range(u + 1, 4)]),
    "Ch": (4, [(0, 1), (1, 2), (2, 3)]),
}


@pytest.mark.parametrize("text,spec", sorted(KNOWN.items()))
def test_known_graph6_strings(text, spec):
    n, edges = spec
    g = build_graph(n, edges)
    assert to_graph6(g) == text
    assert from_graph6(text) == g


def test_graph6_round_trip_random():
    rng = random.Random(20240810)
    for _ in range(300):
        n = rng.randrange(0, 25)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        g = build_graph(n, edges)
        assert from_graph6(to_graph6(g)) == g


@given(graphs(GRAPH6_ORDER_LIMIT))
@settings(max_examples=200, deadline=None)
def test_graph6_round_trip_property(g):
    assert from_graph6(to_graph6(g)) == g


def test_graph6_order_limit():
    with pytest.raises(ValueError, match="62"):
        to_graph6(build_graph(63, []))


def test_graph6_bad_padding():
    # K2 with a stray padded bit set
    with pytest.raises(ValueError, match="padding"):
        from_graph6("A" + chr(63 + 0b110000))


def test_graph6_header_stripped():
    assert from_graph6(">>graph6<<Ch") == build_graph(4, [(0, 1), (1, 2), (2, 3)])


def edge_list(g):
    """The ``n m`` header line of a graph and one ``u v`` line per edge."""
    return "".join([f"{g.n} {g.edge_count}\n", *(f"{u} {v}\n" for u, v in g.edges())])


def test_edge_list_round_trip():
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert parse_edge_list(edge_list(g)) == g


@given(graphs(GRAPH6_ORDER_LIMIT))
@settings(max_examples=200, deadline=None)
def test_edge_list_round_trip_property(g):
    assert parse_edge_list(edge_list(g)) == g


def test_edge_list_example():
    assert parse_edge_list("4 3\n0 1\n1 2\n2 3\n") == build_graph(
        4, [(0, 1), (1, 2), (2, 3)]
    )


@pytest.mark.parametrize(
    "text,line,column",
    [
        ("", 1, 1),
        ("4\n", 1, 1),
        ("4 x\n", 1, 3),
        ("4 2\n0 1\n", 1, 3),
        ("4 1\n0 y\n", 2, 3),
        ("4 1\nz 1\n", 2, 1),
        ("4 1\n0 9\n", 2, 3),
        ("4 1\n1 1\n", 2, 1),
        ("4 1\n0 1 2\n", 2, 5),
    ],
)
def test_edge_list_errors_carry_position(text, line, column):
    with pytest.raises(FormatError) as err:
        parse_edge_list(text)
    assert err.value.line == line
    assert err.value.column == column
    assert f"line {line}, column {column}" in str(err.value)
