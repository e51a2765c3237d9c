"""Exact counting and averaging of vertex subsets that induce exactly one
edge, together with the classical independent-set quantities, closed-form
family evaluators, exhaustive free-tree generation and desk-scale extremal
verification scans.  All arithmetic is exact."""

import os

# numpy's OpenBLAS starts a thread per CPU on import, and nothing here calls BLAS
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .engine import (
    EdgeTerm,
    Engine,
    NisSummary,
    WorkLimitExceeded,
    format_rational,
    nis_summary,
    tree_scalars,
)
from .families import FamilySpec, build, closed_form_summary
from .formats import FormatError, from_graph6, parse_edge_list, to_graph6
from .graphs import (
    Graph,
    StructuralSummary,
    build_graph,
    disjoint_union,
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
    tree_canonical_key,
)

__version__ = "0.1.0"

__all__ = [
    "EdgeTerm", "Engine", "NisSummary", "format_rational",
    "nis_summary", "tree_scalars",
    "WorkLimitExceeded",
    "FamilySpec", "build", "closed_form_summary",
    "FormatError", "from_graph6", "parse_edge_list", "to_graph6",
    "Graph", "StructuralSummary", "build_graph",
    "disjoint_union",
    "is_good_graph", "structural_predicates",
    "OracleProfile", "oracle_profile", "oracle_summary",
    "ConjectureRecord", "RouteDisagreement", "ScanReport", "Violation",
    "conjecture_scan", "labeled_graph_classes", "path_cycle_unions",
    "scan_graphs", "scan_trees", "spot_check_trees", "verify_claims",
    "LevelSequence", "count_free_trees", "free_trees",
    "tree_canonical_key",
    "__version__",
]
