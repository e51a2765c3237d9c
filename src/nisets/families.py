"""Named graph families with closed-form counts, used as regression anchors.

Families: edgeless, star, complete, path, cycle, the subdivided star R
(a star with one edge subdivided once) and G_special (a single edge plus
isolated vertices).  Closed forms are evaluated with exact integers; path
values come from the two-term linear recurrences rather than any
floating-point shortcut.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import NisSummary
from .graphs import MAX_VERTICES, Graph, build_graph

FAMILY_MIN_ORDER = {
    "edgeless": 0,
    "star": 1,
    "complete": 1,
    "path": 0,
    "cycle": 3,
    "R": 4,
    "G_special": 3,
}

# the families ``closed_form_summary`` evaluates; cycles go through the engine
CLOSED_FORM_FAMILIES = tuple(name for name in FAMILY_MIN_ORDER if name != "cycle")


@dataclass(frozen=True)
class FamilySpec:
    family: str
    n: int

    def __post_init__(self):
        if self.family not in FAMILY_MIN_ORDER:
            raise ValueError(f"unknown family {self.family!r}")
        low = FAMILY_MIN_ORDER[self.family]
        if self.n < low:
            raise ValueError(f"family {self.family!r} requires order >= {low}")
        # the closed forms stop where ``build`` does
        if self.n > MAX_VERTICES:
            raise ValueError(f"family {self.family!r} requires order <= {MAX_VERTICES}, "
                             "the vertex universe")


def build(spec: FamilySpec) -> Graph:
    """Construct the named graph with its documented labelling."""
    n = spec.n
    if spec.family == "edgeless":
        return build_graph(n, [])
    if spec.family == "star":
        return build_graph(n, [(0, v) for v in range(1, n)])
    if spec.family == "complete":
        return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    if spec.family == "path":
        return build_graph(n, [(v, v + 1) for v in range(n - 1)])
    if spec.family == "cycle":
        return build_graph(n, [(v, (v + 1) % n) for v in range(n)])
    if spec.family == "R":
        # 0 = hub, 1..n-3 = hub leaves, n-2 = subdivision vertex, n-1 = new leaf
        edges = [(0, v) for v in range(1, n - 2)]
        edges += [(0, n - 2), (n - 2, n - 1)]
        return build_graph(n, edges)
    # G_special: one edge plus n-2 isolated vertices
    return build_graph(n, [(0, 1)])


def _path_scalar_tables(n: int):
    """(sigma0, s0, sigma1, s1) of paths of order 0..n via linear recurrences
    on the last vertex: a subset leaves it out, or takes it without its
    neighbour, or (at level 1) takes the edge to its neighbour, whose other
    neighbour is then left out.  Order -1 counts like order 0."""
    # index k + 1 holds order k, from order -1
    sigma0, s0, sigma1, s1 = [1, 1, 2], [0, 0, 1], [0, 0, 0], [0, 0, 0]
    for i in range(3, n + 2):
        sigma0.append(sigma0[i - 1] + sigma0[i - 2])
        s0.append(s0[i - 1] + s0[i - 2] + sigma0[i - 2])
        sigma1.append(sigma1[i - 1] + sigma1[i - 2] + sigma0[i - 3])
        s1.append(s1[i - 1] + s1[i - 2] + sigma1[i - 2] + s0[i - 3] + 2 * sigma0[i - 3])
    return tuple(table[1:n + 2] for table in (sigma0, s0, sigma1, s1))


def closed_form_summary(spec: FamilySpec, level: int) -> NisSummary:
    """Exact (count, size-sum, average) from the family's closed form, for
    a family of ``CLOSED_FORM_FAMILIES``."""
    if level not in (0, 1) or spec.family not in CLOSED_FORM_FAMILIES:
        raise ValueError(f"no closed form for family {spec.family!r} at level {level}")
    n = spec.n
    family = spec.family
    if family == "edgeless":
        if level == 0:
            return NisSummary.from_counts(1 << n, n << (n - 1) if n else 0)
        return NisSummary.from_counts(0, 0)
    if family == "star":
        if level == 0:
            if n == 1:
                return NisSummary.from_counts(2, 1)
            return NisSummary.from_counts((1 << (n - 1)) + 1, (n - 1) * (1 << (n - 2)) + 1)
        return NisSummary.from_counts(n - 1, 2 * (n - 1))
    if family == "complete":
        if level == 0:
            return NisSummary.from_counts(n + 1, n)
        return NisSummary.from_counts(n * (n - 1) // 2, n * (n - 1))
    if family == "path":
        sigma0, s0, sigma1, s1 = _path_scalar_tables(n)
        if level == 0:
            return NisSummary.from_counts(sigma0[n], s0[n])
        return NisSummary.from_counts(sigma1[n], s1[n])
    if family == "R":
        if level == 0:
            sigma = 3 * (1 << (n - 3)) + 2
            total = 3 * (n - 3) * (1 << (n - 4)) + (1 << (n - 2)) + 3
            return NisSummary.from_counts(sigma, total)
        sigma = 2 * n - 5 + (1 << (n - 3))
        total = 5 * n - 13 + (n + 1) * (1 << (n - 4))
        return NisSummary.from_counts(sigma, total)
    # G_special
    if level == 0:
        sigma = 3 << (n - 2)
        total = (1 << (n - 1)) + 3 * (n - 2) * (1 << (n - 3))
        return NisSummary.from_counts(sigma, total)
    sigma = 1 << (n - 2)
    total = (1 << (n - 1)) + (n - 2) * (1 << (n - 3))
    return NisSummary.from_counts(sigma, total)

