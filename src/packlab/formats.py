"""Graph serialization: graph6 strings and plain edge-list text.

graph6 packs the upper triangle column by column (edge (i, j), i < j, at bit
``j*(j-1)//2 + i``), six bits per printable byte, after a size header: one
byte for n <= 62, the four-byte ``~``-prefixed form for larger n.  That bit
order matches the package's edge-mask integers, so witness masks from the
enumeration kernels serialize without reshuffling.

The edge-list format is line oriented: a ``n=<N>`` header, then one ``u v``
pair per line.
"""

from __future__ import annotations

from binascii import a2b_base64, b2a_base64

from .errors import Graph6Error, ParameterRangeError
from .graph import Graph

_G6_MAX = 258047
# graph6 writes six-bit group v as chr(63 + v), base64 as its v-th letter
_G6_ALPHABET = bytes(range(63, 127))
_BASE64_ALPHABET = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_G6 = bytes.maketrans(_BASE64_ALPHABET, _G6_ALPHABET)
_FROM_G6 = bytes.maketrans(_G6_ALPHABET, _BASE64_ALPHABET)


def encode_graph6(graph: Graph) -> str:
    n = graph.n
    if n <= 62:
        header = bytes([n + 63])
    elif n <= _G6_MAX:
        header = bytes(
            [126, 63 + ((n >> 12) & 63), 63 + ((n >> 6) & 63), 63 + (n & 63)]
        )
    else:  # unreachable under the vertex cap, kept for safety
        raise ParameterRangeError(f"graph6 encoder supports n <= {_G6_MAX}")
    nslots = n * (n - 1) // 2
    quanta = -(-nslots // 24)
    # slot s is bit s of the edge mask and bit s of the body counted from its
    # first byte's top bit: reverse the mask's bits, left-align them in whole
    # 24-bit base64 quanta and let base64 cut the six-bit groups
    value = int(format(graph.edge_mask(), f"0{nslots}b")[::-1], 2) if nslots else 0
    raw = (value << (24 * quanta - nslots)).to_bytes(3 * quanta, "big")
    body = b2a_base64(raw, newline=False).translate(_TO_G6)[: (nslots + 5) // 6]
    return (header + body).decode("ascii")


def decode_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise Graph6Error("empty graph6 string")
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError as exc:
        raise Graph6Error("graph6 strings are ASCII") from exc
    outside = data.translate(None, _G6_ALPHABET)
    if outside:
        raise Graph6Error(f"byte {outside[0]!r} outside the graph6 alphabet")
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            raise Graph6Error("graph6 sizes beyond 258047 are not supported")
        if len(data) < 4:
            raise Graph6Error("truncated graph6 size header")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
        if n <= 62:
            raise Graph6Error("non-canonical long size header for n <= 62")
    else:
        n = data[0] - 63
        body = data[1:]
    nslots = n * (n - 1) // 2
    nbytes = (nslots + 5) // 6
    if len(body) != nbytes:
        raise Graph6Error(
            f"graph6 body has {len(body)} bytes, expected {nbytes} for n={n}"
        )
    # the inverse of the encoder's base64 step; "A" (zero) fills the last quantum
    raw = a2b_base64(body.translate(_FROM_G6) + b"A" * (-nbytes % 4))
    bits = format(int.from_bytes(raw, "big"), f"0{8 * len(raw)}b")
    if "1" in bits[nslots:]:
        raise Graph6Error("nonzero padding bits in graph6 body")
    mask = int(bits[nslots - 1::-1], 2) if nslots else 0
    return Graph.from_edge_mask(n, mask)


def format_edge_list(graph: Graph) -> str:
    lines = [f"n={graph.n}"]
    lines.extend(f"{u} {v}" for u, v in graph.edges())
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("n="):
        raise ParameterRangeError("edge list must start with an 'n=<N>' header")
    try:
        n = int(lines[0][2:])
    except ValueError as exc:
        raise ParameterRangeError(f"bad vertex count {lines[0]!r}") from exc
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ParameterRangeError(f"bad edge line {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ParameterRangeError(f"bad edge line {ln!r}") from exc
        edges.append((u, v))
    return Graph(n, edges)


def parse_graph(text: str, fmt: str | None = None) -> Graph:
    """Parse either supported format; auto-detects on the 'n=' header."""
    if fmt == "graph6":
        return decode_graph6(text)
    if fmt == "edges":
        return parse_edge_list(text)
    if fmt is not None:
        raise ParameterRangeError(f"unknown graph format {fmt!r}")
    stripped = text.lstrip()
    if stripped.startswith("n="):
        return parse_edge_list(text)
    return decode_graph6(text)
