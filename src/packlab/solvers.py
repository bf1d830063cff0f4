"""Exact decision procedures and certificate-producing solvers.

Every solver is deterministic: branch orders are fixed (lowest vertex index
first), node counts are reproducible across runs, and hitting the node cap
raises ``CapExceededError`` rather than ever reporting "no".  The default
node cap comes from the ``PACKLAB_NODE_CAP`` environment variable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _kernels as K
from .errors import CapExceededError, HypothesisError, ParameterRangeError
from .graph import (
    ColouringCertificate,
    Graph,
    PackingCertificate,
    degree_sequence,
    validate_packing,
)

DEFAULT_NODE_CAP = 20_000_000
HAMILTON_DEFAULT_N_CAP = 14


def resolve_node_cap(node_cap: int | None = None) -> int:
    if node_cap is None:
        env = os.environ.get("PACKLAB_NODE_CAP", "").strip()
        if env:
            try:
                node_cap = int(env)
            except ValueError as exc:
                raise ParameterRangeError(
                    f"PACKLAB_NODE_CAP must be an integer, got {env!r}"
                ) from exc
        else:
            node_cap = DEFAULT_NODE_CAP
    if node_cap < 1:
        raise ParameterRangeError("node cap must be positive")
    return node_cap


@dataclass(frozen=True)
class SolveOutcome:
    """Decision plus optional certificate and the deterministic node count."""

    decision: bool
    certificate: object | None
    nodes_explored: int


def perfect_kr_packing(graph: Graph, r: int, node_cap: int | None = None) -> SolveOutcome:
    """Exact perfect r-clique packing decision with certificate.

    Branches on the lowest-index uncovered vertex, enumerating candidate
    cliques in lexicographic order.  When r does not divide n the answer is
    "no" immediately with zero nodes.
    """
    if r < 1:
        raise ParameterRangeError("need r >= 1")
    cap = resolve_node_cap(node_cap)
    n = graph.n
    if n == 0:
        return SolveOutcome(True, PackingCertificate(()), 0)
    if n % r:
        return SolveOutcome(False, None, 0)
    adj = graph.adjacency_array()
    cand, chosen, comm = K.pack_work_arrays(n)
    status, nodes = K._pack_decide(adj, n, r, cap, cand, chosen, comm)
    if status == -1:
        raise CapExceededError(f"packing search exceeded the node cap of {cap}")
    if status == 0:
        return SolveOutcome(False, None, int(nodes))
    blocks = tuple(
        tuple(int(x) for x in chosen[b * r : (b + 1) * r]) for b in range(n // r)
    )
    return SolveOutcome(True, PackingCertificate(blocks), int(nodes))


def perfect_matching(graph: Graph, node_cap: int | None = None) -> SolveOutcome:
    """Exact perfect matching decision (the r = 2 packing case)."""
    return perfect_kr_packing(graph, 2, node_cap)


def equitable_colouring(
    graph: Graph,
    k: int,
    node_cap: int | None = None,
    method: str = "auto",
) -> SolveOutcome:
    """Exact equitable proper k-colouring decision with certificate.

    ``method="auto"`` reduces to a perfect clique packing of the complement
    when k divides n and otherwise runs the direct class-assignment search;
    ``"direct"`` and ``"complement-packing"`` force a route (the two searches
    are independent implementations, which the tests exploit).
    """
    if k < 1:
        raise ParameterRangeError("need k >= 1")
    if method not in ("auto", "direct", "complement-packing"):
        raise ParameterRangeError(f"unknown colouring method {method!r}")
    n = graph.n
    if n == 0:
        return SolveOutcome(True, ColouringCertificate(((),) * k), 0)
    if k >= n:
        classes = tuple((v,) for v in range(n)) + ((),) * (k - n)
        return SolveOutcome(True, ColouringCertificate(classes), 0)
    if method == "auto":
        method = "complement-packing" if n % k == 0 else "direct"
    if method == "complement-packing":
        if n % k:
            raise ParameterRangeError("the complement-packing route needs k | n")
        out = perfect_kr_packing(graph.complement(), n // k, node_cap)
        if not out.decision:
            return SolveOutcome(False, None, out.nodes_explored)
        assert isinstance(out.certificate, PackingCertificate)
        return SolveOutcome(
            True, ColouringCertificate(out.certificate.blocks), out.nodes_explored
        )
    cap = resolve_node_cap(node_cap)
    adj = graph.adjacency_array()
    candc = np.zeros(n, np.int64)
    chosen = np.zeros(n, np.int64)
    classmask = np.zeros(k, np.int64)
    classsize = np.zeros(k, np.int64)
    status, nodes = K._colour_decide(adj, n, k, cap, candc, chosen, classmask, classsize)
    if status == -1:
        raise CapExceededError(f"colouring search exceeded the node cap of {cap}")
    if status == 0:
        return SolveOutcome(False, None, int(nodes))
    classes: list[list[int]] = [[] for _ in range(k)]
    for v in range(n):
        classes[int(chosen[v])].append(v)
    return SolveOutcome(
        True, ColouringCertificate(tuple(tuple(c) for c in classes)), int(nodes)
    )


def hajnal_szemeredi_guarantee(graph: Graph, r: int) -> bool:
    """True when min degree >= (r-1)n/r, which guarantees a perfect r-clique
    packing for r | n.  Exact integer comparison."""
    if r < 1:
        raise ParameterRangeError("need r >= 1")
    if graph.n % r:
        raise ParameterRangeError("r must divide n")
    if graph.n == 0:
        return True
    return min(graph.degrees()) * r >= (r - 1) * graph.n


def _check_banded_condition(degs: Sequence[int], n: int, r: int) -> None:
    """Degree hypothesis of the greedy packing routine, re-checked per level:
    d_i >= (r-2)n/r + i for 1 <= i < n/r, and d_{n/r+1} >= (r-1)n/r."""
    q = n // r
    for i in range(1, q):
        if degs[i - 1] < (r - 2) * q + i:
            raise HypothesisError(
                f"degree condition fails at index {i}: d_{i} = {degs[i - 1]} < {(r - 2) * q + i}"
            )
    if degs[q] < (r - 1) * q:
        raise HypothesisError(
            f"degree condition fails at index {q + 1}: d_{q + 1} = {degs[q]} < {(r - 1) * q}"
        )


def krfree_greedy_packing(graph: Graph, r: int, node_cap: int | None = None) -> SolveOutcome:
    """Perfect r-clique packing under a banded degree condition plus the
    promise that no low-degree vertex lies in a clique on r+1 vertices.

    Each round re-checks the degree condition on the surviving graph.  If min
    degree reaches (r-1)n/r the remainder is delegated to the exact packer;
    otherwise a minimum-degree vertex is greedily extended to an r-clique
    through common neighbourhoods, taking the lowest-index candidate of degree
    >= (r-1)n/r at each interior step and any candidate at the last.  A failed
    extension, or a completed clique whose common neighbourhood is nonempty
    (the low-degree root then lies in a clique on r+1 vertices), raises
    ``HypothesisError``.
    """
    if r < 2:
        raise ParameterRangeError("need r >= 2")
    n = graph.n
    if n == 0:
        return SolveOutcome(True, PackingCertificate(()), 0)
    if n % r:
        raise ParameterRangeError("r must divide n")
    alive = (1 << n) - 1
    n_cur = n
    nodes = 0
    blocks: list[tuple[int, ...]] = []
    adj = [graph.neighbour_mask(v) for v in range(n)]
    while n_cur:
        live = [v for v in range(n) if (alive >> v) & 1]
        deg = {v: (adj[v] & alive).bit_count() for v in live}
        degs_sorted = sorted(deg.values())
        _check_banded_condition(degs_sorted, n_cur, r)
        q = n_cur // r
        if degs_sorted[0] >= (r - 1) * q:
            sub_index = {v: i for i, v in enumerate(live)}
            sub = Graph(
                n_cur,
                (
                    (sub_index[u], sub_index[v])
                    for u in live
                    for v in live
                    if u < v and graph.has_edge(u, v)
                ),
            )
            out = perfect_kr_packing(sub, r, node_cap)
            if not out.decision:  # impossible under the min-degree guarantee
                raise HypothesisError(
                    "delegated packing failed despite the min-degree guarantee"
                )
            assert isinstance(out.certificate, PackingCertificate)
            nodes += out.nodes_explored
            blocks.extend(
                tuple(live[i] for i in block) for block in out.certificate.blocks
            )
            break
        x1 = min((v for v in live if deg[v] == degs_sorted[0]))
        clique = [x1]
        common = adj[x1] & alive
        nodes += 1
        while len(clique) < r:
            interior = len(clique) < r - 1
            chosen = -1
            m = common
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                if interior and deg[v] * r < (r - 1) * n_cur:
                    continue
                chosen = v
                break
            if chosen < 0:
                raise HypothesisError(
                    "greedy clique extension found no qualifying common neighbour"
                )
            clique.append(chosen)
            common &= adj[chosen]
            nodes += 1
        if common & alive:
            raise HypothesisError(
                f"minimum-degree vertex {x1} lies in a clique on {r + 1} vertices"
            )
        blocks.append(tuple(sorted(clique)))
        for v in clique:
            alive &= ~(1 << v)
        n_cur -= r
    blocks.sort(key=lambda b: b[0])
    cert = PackingCertificate(tuple(blocks))
    if not validate_packing(graph, cert, r):  # defensive; the steps above force it
        raise HypothesisError("assembled blocks do not form a perfect packing")
    return SolveOutcome(True, cert, nodes)


def turan_partition(graph: Graph, r: int, node_cap: int | None = None) -> list[tuple[int, ...]]:
    """Partition into r independent classes of size exactly n/r.

    Requires the graph to contain no clique on r+1 vertices (verified by an
    exact search) and d_{n/r} >= (r-1)n/r.  Classes are extracted by repeatedly
    forming a clique of r-1 high-degree vertices, one pinned inside each class
    already built, and taking the lowest n/r vertices of their common
    neighbourhood, which the hypotheses force to be independent.
    """
    if r < 2:
        raise ParameterRangeError("need r >= 2")
    n = graph.n
    if n == 0 or n % r:
        raise ParameterRangeError("need r | n with n >= r")
    q = n // r
    cap = resolve_node_cap(node_cap)
    adjarr = graph.adjacency_array()
    work = max(r + 2, 2)
    status, _ = K._has_clique(adjarr, n, r + 1, cap, np.zeros(work, np.int64), np.zeros(work, np.int64))
    if status == -1:
        raise CapExceededError(f"clique search exceeded the node cap of {cap}")
    if status == 1:
        raise HypothesisError(f"graph contains a clique on {r + 1} vertices")
    degs = degree_sequence(graph)
    if degs[q - 1] * r < (r - 1) * n:
        raise HypothesisError(
            f"d_{q} = {degs[q - 1]} < (r-1)n/r; the partition is not guaranteed"
        )
    adj = [graph.neighbour_mask(v) for v in range(n)]
    high = 0
    for v in range(n):
        if adj[v].bit_count() * r >= (r - 1) * n:
            high |= 1 << v
    classes: list[int] = []  # class bitmasks
    for j in range(r):
        xs: list[int] = []
        common = (1 << n) - 1
        for cls in classes:
            pool = cls & high
            if not pool:
                raise HypothesisError("a built class contains no high-degree vertex")
            x = (pool & -pool).bit_length() - 1
            for y in xs:
                if not (adj[y] >> x) & 1:
                    raise HypothesisError("pinned high-degree vertices are not adjacent")
            xs.append(x)
            common &= adj[x]
        while len(xs) < r - 1:
            pool = common & high
            if not pool:
                raise HypothesisError("no high-degree vertex extends the pinned clique")
            x = (pool & -pool).bit_length() - 1
            xs.append(x)
            common &= adj[x]
        if common.bit_count() < q:
            raise HypothesisError("common neighbourhood smaller than n/r")
        cls = 0
        m = common
        for _ in range(q):
            b = m & -m
            cls |= b
            m -= b
        for prev in classes:
            if cls & prev:
                raise HypothesisError("extracted classes overlap")
        for v in range(n):
            if (cls >> v) & 1 and adj[v] & cls:
                raise HypothesisError("extracted class is not independent")
        classes.append(cls)
    covered = 0
    for cls in classes:
        covered |= cls
    if covered != (1 << n) - 1:
        raise HypothesisError("classes do not cover the vertex set")
    out: list[tuple[int, ...]] = []
    for cls in classes:
        members = []
        m = cls
        while m:
            b = m & -m
            members.append(b.bit_length() - 1)
            m -= b
        out.append(tuple(members))
    return out


def chvatal_hampath_condition(graph: Graph) -> bool:
    """Degree condition sufficient for a Hamilton path: with degrees ascending,
    for every 1 <= i <= n/2 either d_i >= i or d_{n-i+1} >= n-i."""
    n = graph.n
    if n < 2:
        raise ParameterRangeError("need n >= 2")
    d = degree_sequence(graph)
    for i in range(1, n // 2 + 1):
        if d[i - 1] < i and d[n - i] < n - i:
            return False
    return True


def hamilton_path_exact(graph: Graph, n_cap: int = HAMILTON_DEFAULT_N_CAP) -> SolveOutcome:
    """Exact Hamilton-path decision by dynamic programming over vertex subsets.

    The certificate is a vertex order.  ``n_cap`` bounds the subset table
    (memory 8 * 2^n bytes); exceeding it raises ``CapExceededError``.
    """
    n = graph.n
    if n > n_cap:
        raise CapExceededError(f"Hamilton-path search capped at n <= {n_cap}, got {n}")
    if n == 0:
        return SolveOutcome(True, (), 0)
    adj = graph.adjacency_array()
    dp = np.zeros(1 << n, np.int64)
    found, states = K._hampath_decide(adj, n, dp)
    if not found:
        return SolveOutcome(False, None, int(states))
    order = np.zeros(n, np.int64)
    K._hampath_extract(adj, n, dp, order)
    return SolveOutcome(True, tuple(int(v) for v in order), int(states))


def square_hamilton_obstructions(graph: Graph) -> tuple[int, ...]:
    """Vertices whose neighbourhood induces no path on four vertices.

    Such a vertex cannot be interior to the square of a Hamilton cycle, so a
    nonempty result certifies the graph has no such square.  Exact check.
    """
    n = graph.n
    adj = [graph.neighbour_mask(v) for v in range(n)]
    bad = []
    for x in range(n):
        inside = adj[x]
        if not _induced_p4(adj, inside):
            bad.append(x)
    return tuple(bad)


def _induced_p4(adj: list[int], inside: int) -> bool:
    # a-b-c-d with all four inside `inside`; scan middle edges (b, c), b < c
    m = inside
    while m:
        bbit = m & -m
        m -= bbit
        b = bbit.bit_length() - 1
        nb = adj[b] & inside
        mc = nb & ~((bbit << 1) - 1)
        while mc:
            cbit = mc & -mc
            mc -= cbit
            c = cbit.bit_length() - 1
            a_pool = (adj[b] & inside) & ~cbit & ~bbit
            d_pool = (adj[c] & inside) & ~cbit & ~bbit
            if not a_pool or not d_pool:
                continue
            if a_pool != d_pool or a_pool.bit_count() >= 2:
                return True
    return False
