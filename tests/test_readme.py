"""The README's Library example runs, and each commented line's comment is
the ``repr`` of the value of its expression; each number of its Limits table
is the constant it names."""

import ast
import re
from pathlib import Path

from nisets.engine import MAX_ENGINE_MASKS
from nisets.formats import GRAPH6_ORDER_LIMIT
from nisets.graphs import MAX_VERTICES
from nisets.oracle import ORACLE_ORDER_LIMIT
from nisets.scanner import GRAPH_SCAN_LIMIT, RATIO_ORDER_LIMIT, WORKER_LIMIT
from nisets.trees import TREE_ORDER_LIMIT

README = Path(__file__).resolve().parents[1] / "README.md"


def checked_lines(block: str):
    """Run a Python block statement by statement and yield (expression,
    comment, repr of its value) for each expression statement; every
    expression statement must carry a ``# value`` comment."""
    lines = block.splitlines()
    namespace: dict = {}
    for node in ast.parse(block).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        rest = lines[node.end_lineno - 1][node.end_col_offset:].strip()
        assert rest.startswith("#"), f"no value comment on line {node.end_lineno}"
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        yield ast.get_source_segment(block, node), rest[1:].strip(), repr(value)


def test_library_example_values():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    checked = list(checked_lines(blocks[0]))
    assert [(expr, comment) for expr, comment, _ in checked] == [
        (expr, got) for expr, _, got in checked]
    assert len(checked) == 4


def test_a_stale_value_is_found():
    block = "x = 2\nx + 1   # 4\nx * 3   # 6\n"
    assert list(checked_lines(block)) == [("x + 1", "4", "3"), ("x * 3", "6", "6")]


def limits_table(text: str) -> dict[str, int]:
    """The ``## Limits`` table of a README text as {What cell: the first
    number of its Limit cell}, where ``2^k`` reads as 2**k."""
    table = text.split("\n## Limits\n", 1)[1].strip().split("\n\n")[0]
    limits = {}
    for line in table.splitlines()[2:]:
        what, limit = (cell.strip() for cell in line.strip("|").split("|"))
        base, exponent = re.search(r"(\d+)(?:\^(\d+))?", limit).groups()
        limits[what] = int(base) ** int(exponent or 1)
    return limits


def test_limits_table_values():
    assert limits_table(README.read_text()) == {
        "vertex universe": MAX_VERTICES,
        "subset oracle": ORACLE_ORDER_LIMIT,
        "exhaustive graph scans": GRAPH_SCAN_LIMIT,
        "free-tree generation": TREE_ORDER_LIMIT,
        "graph6 I/O": GRAPH6_ORDER_LIMIT,
        "`verify --max-ratio-order`": RATIO_ORDER_LIMIT,
        "`verify --max-family-order`": GRAPH6_ORDER_LIMIT,
        "`families`": MAX_VERTICES,
        "engine work per graph": MAX_ENGINE_MASKS,
        "`--workers`": WORKER_LIMIT,
    }


def test_a_stale_limit_is_found():
    text = ("# x\n\n## Limits\n\n| What | Limit |\n| --- | --- |\n"
            "| subset oracle | order 25 (2^25 subsets) |\n| engine work | 2^18 masks |\n\nAfter.\n")
    assert limits_table(text) == {"subset oracle": 25, "engine work": 1 << 18}
    assert limits_table(text) != {"subset oracle": ORACLE_ORDER_LIMIT,
                                  "engine work": MAX_ENGINE_MASKS}
