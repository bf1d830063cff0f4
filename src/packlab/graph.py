"""Immutable labeled graphs on vertex set {0, ..., n-1} backed by bitsets.

Each vertex stores its neighbourhood as one Python integer bitmask, so
predicates and set algebra are word-parallel for the sizes this package
targets.  Vertices are plain indices at the API boundary and bits of masks
internally.  Certificates carry explicit vertex tuples and are checked
by validators that share no code with the solvers that produced them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import CapExceededError, ParameterRangeError
from ._kernels import KERNEL_MAX_N

MAX_VERTICES = int(os.environ.get("PACKLAB_MAX_N", "4096"))


def _check_vertex_cap(n: int) -> None:
    if n > MAX_VERTICES:
        raise ParameterRangeError(f"n={n} exceeds the configured vertex cap {MAX_VERTICES}")


class Graph:
    """A labeled simple graph; instances are immutable and hashable."""

    __slots__ = ("n", "_adj", "_hash")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ParameterRangeError("vertex count must be non-negative")
        _check_vertex_cap(n)
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ParameterRangeError(f"loop at vertex {u} not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ParameterRangeError(f"edge ({u}, {v}) out of range for n={n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self._adj = tuple(adj)
        self._hash = None

    @classmethod
    def _from_masks(cls, masks: Sequence[int]) -> "Graph":
        _check_vertex_cap(len(masks))
        g = cls.__new__(cls)
        g.n = len(masks)
        g._adj = tuple(masks)
        g._hash = None
        return g

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        _check_vertex_cap(n)
        full = (1 << n) - 1
        return cls._from_masks([full & ~(1 << i) for i in range(n)])

    @classmethod
    def from_edge_mask(cls, n: int, mask: int) -> "Graph":
        """Decode an edge-mask integer; bit ``j*(j-1)//2 + i`` is edge (i, j).

        Runs in time linear in the slot count: the mask is read once as a
        binary string, cut into one column of lower neighbours per vertex,
        and the upper neighbours are that triangle transposed by ``zip``.
        """
        _check_vertex_cap(n)
        nslots = n * (n - 1) // 2
        if mask < 0 or mask >> nslots:
            raise ParameterRangeError("edge mask has bits beyond the slot count")
        bits = format(mask, f"0{nslots}b")
        # rows[j] holds bit i of vertex j's lower neighbours at character
        # n - 1 - i, zero-padded on the left to n characters
        rows = []
        end = nslots
        for j in range(n):
            rows.append("0" * (n - j) + bits[end - j:end])
            end -= j
        # reading the rows' column for vertex i in j order gives its upper
        # neighbours with bit j at character j, so reverse before parsing
        upper = ["".join(col)[::-1] for col in zip(*rows)][::-1]
        return cls._from_masks(
            [int(low, 2) | int(up, 2) for low, up in zip(rows, upper)]
        )

    def edge_mask(self) -> int:
        """Encode as an edge-mask integer (inverse of ``from_edge_mask``)."""
        adj = self._adj
        # column j is vertex j's lower neighbours, j bits at slot j*(j-1)//2;
        # one binary string, highest column first, keeps this linear-time
        return int(
            "".join(format(adj[j] & ((1 << j) - 1), f"0{j}b") for j in range(self.n - 1, 0, -1))
            or "0",
            2,
        )

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self._adj[u] >> v) & 1)

    def neighbour_mask(self, v: int) -> int:
        return self._adj[v]

    def neighbours(self, v: int) -> tuple[int, ...]:
        return tuple(_iter_bits(self._adj[v]))

    def degree(self, v: int) -> int:
        return self._adj[v].bit_count()

    def degrees(self) -> list[int]:
        """Degrees in vertex order (not sorted)."""
        return list(map(int.bit_count, self._adj))

    @property
    def edge_count(self) -> int:
        return sum(map(int.bit_count, self._adj)) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            rest = self._adj[u] >> (u + 1)
            v = u + 1
            while rest:
                if rest & 1:
                    yield (u, v)
                rest >>= 1
                v += 1

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        return Graph._from_masks(
            [full & ~a & ~(1 << i) for i, a in enumerate(self._adj)]
        )

    def adjacency_array(self) -> np.ndarray:
        """Neighbour masks as an int64 numpy array for the search kernels."""
        if self.n > KERNEL_MAX_N:
            raise CapExceededError(
                f"exact search kernels support at most {KERNEL_MAX_N} vertices, got {self.n}"
            )
        return np.array(self._adj, dtype=np.int64) if self.n else np.zeros(0, np.int64)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self._adj == other._adj
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.n, self._adj))
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def _iter_bits(mask: int) -> Iterator[int]:
    v = 0
    while mask:
        if mask & 1:
            yield v
        mask >>= 1
        v += 1


def complement(graph: Graph) -> Graph:
    return graph.complement()


def degree_sequence(graph: Graph) -> list[int]:
    """Degrees sorted ascending (d_1 <= ... <= d_n in 1-based statements)."""
    return sorted(graph.degrees())


def disjoint_union(*graphs: Graph) -> Graph:
    """Disjoint union; vertex labels of later summands are shifted up."""
    masks: list[int] = []
    offset = 0
    for g in graphs:
        masks.extend(a << offset for a in g._adj)
        offset += g.n
    return Graph._from_masks(masks)


def complete_multipartite(sizes: Sequence[int]) -> Graph:
    """Complete multipartite graph, classes labeled consecutively in the order given."""
    n = sum(sizes)
    if any(s < 0 for s in sizes):
        raise ParameterRangeError("class sizes must be non-negative")
    _check_vertex_cap(n)
    full = (1 << n) - 1
    masks = []
    start = 0
    for s in sizes:
        class_mask = ((1 << s) - 1) << start
        other = full & ~class_mask
        masks.extend(other for _ in range(s))
        start += s
    return Graph._from_masks(masks)


def turan_sizes(m: int, s: int) -> list[int]:
    """Class sizes of the balanced complete s-partite graph on m vertices."""
    if s < 1 or m < 0:
        raise ParameterRangeError("need s >= 1 and m >= 0")
    q, a = divmod(m, s)
    return [q + 1] * a + [q] * (s - a)


def turan_graph(m: int, s: int) -> Graph:
    """Balanced complete s-partite graph on m vertices (K_m when m < s).

    Classes of size ceil(m/s) come first, labeled class by class.
    """
    return complete_multipartite(turan_sizes(m, s))


def turan_complement(m: int, s: int) -> Graph:
    """Disjoint union of s near-equal cliques: the complement of turan_graph."""
    return turan_graph(m, s).complement()


def t_star(n: int, r: int) -> Graph:
    """Complete r-partite graph with r-2 classes of size n/r, one of size
    n/r - 1 and one of size n/r + 1, labeled class by class in that order."""
    if r < 2:
        raise ParameterRangeError("need r >= 2")
    if n % r:
        raise ParameterRangeError("r must divide n")
    q = n // r
    if q - 1 < 0:
        raise ParameterRangeError("need n/r >= 1")
    return complete_multipartite([q] * (r - 2) + [q - 1, q + 1])


@dataclass(frozen=True)
class PackingCertificate:
    """A vertex partition into cliques, each block ascending."""

    blocks: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ColouringCertificate:
    """A vertex partition into independent classes, each class ascending."""

    classes: tuple[tuple[int, ...], ...]


def validate_packing(graph: Graph, cert: PackingCertificate, r: int) -> bool:
    """Check blocks partition the vertex set into r-cliques (solver-independent)."""
    seen: set[int] = set()
    for block in cert.blocks:
        if len(block) != r:
            return False
        for v in block:
            if v in seen:
                return False
            seen.add(v)
        for a in block:
            for b in block:
                if a < b and not graph.has_edge(a, b):
                    return False
    return seen == set(range(graph.n))


def validate_packing_rows(adjs: np.ndarray, blocks: np.ndarray, r: int) -> np.ndarray:
    """``validate_packing`` on every row of neighbour masks ``adjs``, with
    row i of ``blocks`` its n/r blocks' vertex masks, as a bool array: each
    block has r vertices, together they cover all n (so are disjoint), and
    no vertex misses another of its block."""
    n = adjs.shape[1]
    kind = np.min_scalar_type((1 << n) - 1)  # unsigned, n bits wide or more
    vertex = np.arange(n, dtype=kind)[:, None]
    blocks = np.ascontiguousarray(blocks.T, kind)  # (n/r, rows)
    ok = (np.bitwise_count(blocks) == r).all(axis=0) & (len(blocks) * r == n)
    ok &= np.bitwise_or.reduce(blocks, axis=0) == (1 << n) - 1
    # (n, rows): the block holding each vertex, and the vertices it misses
    mine = np.zeros((n, len(ok)), kind)
    for b in blocks:
        mine |= b * (b >> vertex & 1)
    missing = ~(np.ascontiguousarray(adjs.T, kind) | (1 << vertex))
    return ok & ~(mine & missing).any(axis=0)


def validate_colouring(graph: Graph, cert: ColouringCertificate, k: int) -> bool:
    """Check classes form an equitable proper k-colouring (solver-independent)."""
    if len(cert.classes) != k:
        return False
    seen: set[int] = set()
    sizes = []
    for cls in cert.classes:
        sizes.append(len(cls))
        for v in cls:
            if v in seen:
                return False
            seen.add(v)
        for a in cls:
            for b in cls:
                if a < b and graph.has_edge(a, b):
                    return False
    if seen != set(range(graph.n)):
        return False
    return max(sizes) - min(sizes) <= 1 if sizes else graph.n == 0
