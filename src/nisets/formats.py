"""Text formats: plain edge lists and header-less graph6 strings."""

from __future__ import annotations

from .graphs import MAX_VERTICES, Graph, build_graph, graph_from_pair_mask

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
    if not 0 <= n <= MAX_VERTICES:
        raise FormatError(f"vertex count {n} outside 0..{MAX_VERTICES}", head_no, head[0][1])
    m = _int_token(head[1][0], head_no, head[1][1], "edge count")
    body = rows[1:]
    if len(body) != m:
        raise FormatError(
            f"header announces {m} edges but {len(body)} edge lines follow",
            head_no,
            head[1][1],
        )
    edges = set()
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
        edge = (min(u, v), max(u, v))
        if edge in edges:
            raise FormatError(f"repeated edge ({u},{v})", no, toks[0][1])
        edges.add(edge)
    return build_graph(n, edges)


def to_graph6(g: Graph) -> str:
    """Header-less graph6 encoding, single-byte order (n <= 62): the order
    byte, then one bit per vertex pair (i, j), i < j, in colex order
    (``graphs.all_pairs``), cut six bits to a character, zero-padded."""
    n = g.n
    if n > GRAPH6_ORDER_LIMIT:
        raise ValueError(f"graph6 writing limited to {GRAPH6_ORDER_LIMIT} vertices")
    # column j's pairs (0, j) .. (j - 1, j) are bits 0 .. j - 1 of adj[j]
    bits = "".join(f"{g.adj[j] & (1 << j) - 1:0{j}b}"[::-1] for j in range(1, n))
    bits += "0" * (-len(bits) % 6)
    return chr(n + 63) + "".join(chr(int(bits[k:k + 6], 2) + 63) for k in range(0, len(bits), 6))


def from_graph6(s: str) -> Graph:
    """Decode a header-less graph6 string (n <= 62): its data bits are the
    pair mask of ``graphs.graph_from_pair_mask``, first pair lowest."""
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
    bits = ""
    for ch in s[1:]:
        val = ord(ch) - 63
        if not 0 <= val < 64:
            raise ValueError(f"invalid graph6 character {ch!r}")
        bits += f"{val:06b}"
    if "1" in bits[need:]:
        raise ValueError("nonzero padding bits in graph6 string")
    return graph_from_pair_mask(n, int("0" + bits[:need][::-1], 2))
