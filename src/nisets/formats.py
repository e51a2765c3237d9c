"""Text formats: plain edge lists and header-less graph6 strings."""

from __future__ import annotations

from .graphs import Graph, build_graph

GRAPH6_ORDER_LIMIT = 62


class FormatError(ValueError):
    """Parse failure carrying the offending line and column (1-based)."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _int_token(token: str, line_no: int, column: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise FormatError(f"expected {what}, got {token!r}", line_no, column) from None


def _split_tokens(line: str):
    tokens = []
    col = 1
    for piece in line.split(" "):
        if piece:
            tokens.append((piece, col))
        col += len(piece) + 1
    return tokens


def parse_edge_list(text: str) -> Graph:
    """Parse the ``n m`` / ``u v`` edge-list format into a graph."""
    lines = text.splitlines()
    rows = [(i + 1, _split_tokens(ln)) for i, ln in enumerate(lines)]
    rows = [(no, toks) for no, toks in rows if toks]
    if not rows:
        raise FormatError("empty input, expected a header line 'n m'", 1, 1)
    head_no, head = rows[0]
    if len(head) != 2:
        raise FormatError("header must be exactly 'n m'", head_no, head[0][1] if head else 1)
    n = _int_token(head[0][0], head_no, head[0][1], "vertex count")
    m = _int_token(head[1][0], head_no, head[1][1], "edge count")
    body = rows[1:]
    if len(body) != m:
        raise FormatError(
            f"header announces {m} edges but {len(body)} edge lines follow",
            head_no,
            head[1][1],
        )
    edges = []
    for no, toks in body:
        if len(toks) != 2:
            bad_col = toks[2][1] if len(toks) > 2 else toks[0][1]
            raise FormatError("edge line must be exactly 'u v'", no, bad_col)
        u = _int_token(toks[0][0], no, toks[0][1], "vertex")
        v = _int_token(toks[1][0], no, toks[1][1], "vertex")
        for w, col in ((u, toks[0][1]), (v, toks[1][1])):
            if not 0 <= w < n:
                raise FormatError(f"vertex {w} out of range 0..{n - 1}", no, col)
        if u == v:
            raise FormatError(f"loop edge ({u},{v}) not allowed", no, toks[0][1])
        edges.append((u, v))
    return build_graph(n, edges)


def to_graph6(g: Graph) -> str:
    """Header-less graph6 encoding, single-byte order (n <= 62)."""
    n = g.n
    if n > GRAPH6_ORDER_LIMIT:
        raise ValueError(f"graph6 writing limited to {GRAPH6_ORDER_LIMIT} vertices")
    bits = []
    for j in range(1, n):
        col = g.adj[j]
        bits.extend((col >> i) & 1 for i in range(j))
    chars = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        group = bits[k : k + 6]
        group += [0] * (6 - len(group))
        val = 0
        for b in group:
            val = (val << 1) | b
        chars.append(chr(val + 63))
    return "".join(chars)


def from_graph6(s: str) -> Graph:
    """Decode a header-less graph6 string (n <= 62)."""
    s = s.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise ValueError("empty graph6 string")
    n = ord(s[0]) - 63
    if not 0 <= n <= GRAPH6_ORDER_LIMIT:
        raise ValueError(f"graph6 order byte {s[0]!r} outside 0..{GRAPH6_ORDER_LIMIT}")
    need = n * (n - 1) // 2
    expect_chars = (need + 5) // 6
    if len(s) - 1 != expect_chars:
        raise ValueError(
            f"graph6 string for order {n} needs {expect_chars} data characters, got {len(s) - 1}"
        )
    bits = []
    for ch in s[1:]:
        val = ord(ch) - 63
        if not 0 <= val < 64:
            raise ValueError(f"invalid graph6 character {ch!r}")
        bits.extend((val >> (5 - k)) & 1 for k in range(6))
    if any(bits[need:]):
        raise ValueError("nonzero padding bits in graph6 string")
    edges = []
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bits[pos]:
                edges.append((i, j))
            pos += 1
    return build_graph(n, edges)
