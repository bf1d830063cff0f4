"""Independent brute-force reference implementations used to cross-check the
package.  Everything here is deliberately naive: plain itertools search over
vertex tuples, no bitmask kernels, no shared code with the package beyond the
Graph accessors.
"""

from itertools import combinations, permutations


def edges_of(graph):
    return {frozenset(e) for e in graph.edges()}


def is_clique_brute(graph, vertices) -> bool:
    return all(graph.has_edge(u, v) for u, v in combinations(vertices, 2))


def has_perfect_packing_brute(graph, r: int) -> bool:
    """Exhaustive search for a partition of the vertices into r-cliques."""
    n = graph.n
    if r <= 0 or n % r:
        return False

    def extend(remaining):
        if not remaining:
            return True
        first = remaining[0]
        rest = remaining[1:]
        for others in combinations(rest, r - 1):
            block = (first,) + others
            if is_clique_brute(graph, block):
                left = tuple(v for v in rest if v not in others)
                if extend(left):
                    return True
        return False

    return extend(tuple(range(n)))


def has_perfect_matching_brute(graph) -> bool:
    return has_perfect_packing_brute(graph, 2)


def has_equitable_colouring_brute(graph, k: int) -> bool:
    """Exhaustive search for a proper k-colouring with class sizes differing
    by at most one."""
    n = graph.n
    if k <= 0:
        return False
    base, extra = divmod(n, k)
    sizes = [base + 1] * extra + [base] * (k - extra)

    def extend(vertices, remaining_sizes):
        if not vertices:
            return True
        first = vertices[0]
        rest = vertices[1:]
        # the first unplaced vertex goes into some class; classes of equal
        # size are interchangeable, so try each distinct size once
        tried = set()
        for idx, size in enumerate(remaining_sizes):
            if size == 0 or size in tried:
                continue
            tried.add(size)
            for others in combinations(rest, size - 1):
                cls = (first,) + others
                if all(not graph.has_edge(u, v) for u, v in combinations(cls, 2)):
                    left = tuple(v for v in rest if v not in others)
                    if extend(left, remaining_sizes[:idx] + remaining_sizes[idx + 1:]):
                        return True
        return False

    return extend(tuple(range(n)), sizes)


def has_hamilton_path_brute(graph) -> bool:
    """Exhaustive search over vertex tuples, each extended by one edge at a
    time from every start vertex."""
    n = graph.n
    if n <= 1:
        return n == 1

    def extend(path):
        if len(path) == n:
            return True
        return any(
            extend(path + (v,))
            for v in range(n)
            if v not in path and graph.has_edge(path[-1], v)
        )

    return any(extend((v,)) for v in range(n))


def has_clique_brute(graph, q: int) -> bool:
    return any(
        is_clique_brute(graph, c) for c in combinations(range(graph.n), q)
    )


def independent_p4_inside_brute(graph, vertices) -> bool:
    """Whether the induced subgraph on ``vertices`` contains a path on four
    distinct vertices (not necessarily induced)."""
    vs = tuple(vertices)
    for quad in permutations(vs, 4):
        if quad[0] > quad[3]:
            continue
        if all(graph.has_edge(quad[i], quad[i + 1]) for i in range(3)):
            return True
    return False


def square_obstructions_brute(graph):
    """Vertices whose neighbourhood contains no path on four vertices."""
    out = []
    for v in range(graph.n):
        nb = [u for u in range(graph.n) if u != v and graph.has_edge(u, v)]
        if not independent_p4_inside_brute(graph, nb):
            out.append(v)
    return tuple(out)


def turan_edges_brute(m: int, s: int) -> int:
    """Edge count of the balanced complete s-partite graph on m vertices,
    counted pair by pair."""
    q, a = divmod(m, s)
    sizes = [q + 1] * a + [q] * (s - a)
    labels = [i for i, size in enumerate(sizes) for _ in range(size)]
    return sum(
        1 for u, v in combinations(range(m), 2) if labels[u] != labels[v]
    )


def max_edges_no_matching_brute(n: int, d: int) -> int:
    """max{e(G) : min degree >= d, no perfect matching} over all labeled
    n-vertex graphs, by full enumeration (n <= 6)."""
    from packlab import Graph

    e_total = n * (n - 1) // 2
    best = -1
    for mask in range(1 << e_total):
        g = Graph.from_edge_mask(n, mask)
        if min(g.degrees(), default=0) < d:
            continue
        if has_perfect_matching_brute(g):
            continue
        best = max(best, g.edge_count)
    return best


def chvatal_condition_brute(graph) -> bool:
    """Degree-sequence sufficient condition for a Hamilton path: with degrees
    sorted ascending, every index 1 <= i <= n/2 has d_i >= i or
    d_{n-i+1} >= n - i.  Independent transcription for cross-checking."""
    n = graph.n
    d = sorted(graph.degrees())
    return all(
        d[i - 1] >= i or d[n - i] >= n - i for i in range(1, n // 2 + 1)
    )


# Per-bit reference codecs: one shift of the whole edge mask per slot, so
# quadratic in the slot count.  The package's versions must agree with these
# bit for bit, byte for byte and error for error.


def edge_mask_reference(graph) -> int:
    mask = 0
    s = 0
    for j in range(1, graph.n):
        for i in range(j):
            if graph.has_edge(i, j):
                mask |= 1 << s
            s += 1
    return mask


def from_edge_mask_reference(n: int, mask: int):
    from packlab import Graph, ParameterRangeError

    nslots = n * (n - 1) // 2
    if mask < 0 or mask >> nslots:
        raise ParameterRangeError("edge mask has bits beyond the slot count")
    edges = []
    s = 0
    for j in range(1, n):
        for i in range(j):
            if (mask >> s) & 1:
                edges.append((i, j))
            s += 1
    return Graph(n, edges)


def encode_graph6_reference(graph) -> str:
    n = graph.n
    if n <= 62:
        out = bytearray([n + 63])
    else:
        out = bytearray([126, 63 + ((n >> 12) & 63), 63 + ((n >> 6) & 63), 63 + (n & 63)])
    mask = edge_mask_reference(graph)
    nslots = n * (n - 1) // 2
    for start in range(0, nslots, 6):
        group = 0
        for t in range(6):
            s = start + t
            bit = (mask >> s) & 1 if s < nslots else 0
            group = (group << 1) | bit
        out.append(63 + group)
    return out.decode("ascii")


def decode_graph6_reference(text: str):
    from packlab import Graph6Error

    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise Graph6Error("empty graph6 string")
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError as exc:
        raise Graph6Error("graph6 strings are ASCII") from exc
    for b in data:
        if not 63 <= b <= 126:
            raise Graph6Error(f"byte {b!r} outside the graph6 alphabet")
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
    mask = 0
    for idx, b in enumerate(body):
        group = b - 63
        for t in range(6):
            s = idx * 6 + t
            bit = (group >> (5 - t)) & 1
            if s < nslots:
                mask |= bit << s
            elif bit:
                raise Graph6Error("nonzero padding bits in graph6 body")
    return from_edge_mask_reference(n, mask)
