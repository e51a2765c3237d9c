"""Exact counting and averaging of vertex subsets that induce exactly one
edge, together with the classical independent-set quantities, closed-form
family evaluators, exhaustive free-tree generation and desk-scale extremal
verification scans.  All arithmetic is exact."""

from .engine import (
    CountPolynomial,
    EdgeTerm,
    Engine,
    NisSummary,
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
from .families import FamilySpec, build, closed_form_summary, ratio_table
from .formats import FormatError, from_graph6, parse_edge_list, to_graph6, write_edge_list
from .graphs import (
    Graph,
    StructuralSummary,
    build_graph,
    canonical_code,
    closed_neighborhood_union,
    delta_bounds,
    disjoint_union,
    induced,
    is_good_graph,
    structural_predicates,
)
from .oracle import OracleProfile, oracle_profile, oracle_summary
from .scanner import (
    ConjectureRecord,
    RouteDisagreement,
    ScanReport,
    Violation,
    conjecture_scan,
    labeled_graph_classes,
    path_cycle_unions,
    scan_graphs,
    scan_trees,
    spot_check_trees,
    verify_claims,
)
from .trees import (
    LevelSequence,
    count_free_trees,
    free_trees,
    labelled_tree_classes,
    tree_canonical_key,
)

__version__ = "0.1.0"

__all__ = [
    "CountPolynomial", "EdgeTerm", "Engine", "NisSummary",
    "av1_edge", "edge_terms", "format_rational",
    "i0_polynomial", "i1_edge_decomposition", "i1_vertex_recursion",
    "nis_summary", "s1_vertex_recursion", "summarize", "tree_scalars", "union_combine",
    "WorkLimitExceeded",
    "FamilySpec", "build", "closed_form_summary", "ratio_table",
    "FormatError", "from_graph6", "parse_edge_list", "to_graph6", "write_edge_list",
    "Graph", "StructuralSummary", "build_graph", "canonical_code",
    "closed_neighborhood_union", "delta_bounds", "disjoint_union", "induced",
    "is_good_graph", "structural_predicates",
    "OracleProfile", "oracle_profile", "oracle_summary",
    "ConjectureRecord", "RouteDisagreement", "ScanReport", "Violation",
    "conjecture_scan", "labeled_graph_classes", "path_cycle_unions",
    "scan_graphs", "scan_trees", "spot_check_trees", "verify_claims",
    "LevelSequence", "count_free_trees", "free_trees",
    "labelled_tree_classes", "tree_canonical_key",
    "__version__",
]
