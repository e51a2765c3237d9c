"""The README's Library example runs, and each commented line's comment is
the ``repr`` of the value of its expression."""

import ast
import re
from pathlib import Path

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
