"""graph6 and DOT emission, plus the JSON label sidecar.

graph6 encoding is bit-exact per the de-facto format description: an order
field N(n) followed by the upper triangle of the adjacency matrix read
column by column, packed into 6-bit groups offset by 63.  Labels do not
survive graph6; they travel in a JSON sidecar document.
"""

from __future__ import annotations

import json

from .graphs import Graph, GraphError

_HEADER = ">>graph6<<"


def _encode_order(n: int) -> str:
    if n < 0:
        raise GraphError("order must be nonnegative")
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return chr(126) + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    if n <= 68719476735:
        return chr(126) + chr(126) + "".join(
            chr(((n >> s) & 63) + 63) for s in (30, 24, 18, 12, 6, 0))
    raise GraphError("order too large for graph6")


def _decode_order(s: str) -> tuple[int, int]:
    """The order field N(n) at the start of ``s`` and its length: one byte
    below 126, or 126 and three bytes, or 126, 126 and six bytes, each a
    6-bit group offset by 63."""
    if not s:
        raise GraphError("empty graph6 string")
    start = 0 if s[0] != chr(126) else 1 if s[1:2] != chr(126) else 2
    end = start + (1, 3, 6)[start]
    vals = [ord(c) - 63 for c in s[start:end]]
    if len(vals) < end - start or any(not 0 <= v <= 63 for v in vals):
        raise GraphError("invalid graph6 order field: truncated, or a byte "
                         "outside 63..126")
    n = 0
    for v in vals:
        n = (n << 6) | v
    return n, end


def to_graph6(g: Graph) -> str:
    """Canonical graph6 line (no trailing newline)."""
    bits: list[int] = []
    for j in range(1, g.n):
        col = g.rows[j]
        for i in range(j):
            bits.append((col >> i) & 1)
    while len(bits) % 6:
        bits.append(0)
    chars = [_encode_order(g.n)]
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k:k + 6]:
            val = (val << 1) | b
        chars.append(chr(val + 63))
    return "".join(chars)


def from_graph6(line: str) -> Graph:
    s = line.strip()
    if s.startswith(_HEADER):
        s = s[len(_HEADER):]
    n, at = _decode_order(s)
    need = (n * (n - 1) // 2 + 5) // 6
    body = s[at:]
    if len(body) != need:
        raise GraphError(f"graph6 body length {len(body)}, expected {need}")
    bits: list[int] = []
    for c in body:
        v = ord(c) - 63
        if not 0 <= v <= 63:
            raise GraphError(f"invalid graph6 character {c!r}")
        bits.extend((v >> s6) & 1 for s6 in (5, 4, 3, 2, 1, 0))
    rows = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    if any(bits[k:]):
        raise GraphError("nonzero padding bits in graph6 body")
    return Graph(n, tuple(rows))


def to_dot(g: Graph) -> str:
    lines = ["graph g {"]
    for i in range(g.n):
        lines.append(f'  v{i} [label="{g.label_of(i)}"];')
    for i, j in g.edges():
        lines.append(f"  v{i} -- v{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def labels_sidecar(g: Graph) -> str:
    """JSON document mapping vertex index to external label."""
    return json.dumps(
        {"n": g.n, "labels": [g.label_of(i) for i in range(g.n)]},
        sort_keys=True)
