"""Extremal graph families: witnesses that the edge and degree thresholds
are sharp.

Every builder lays vertices out class by class in a fixed documented order,
so the resulting graphs (and their graph6 encodings) are reproducible.
Builders assemble per-vertex neighbour masks directly, dense families
included, with no complement taken: a part's shared mask is repeated, and
``_less_self`` XORs each vertex's own bit out of it by ``map`` over one
table of single bits, so no Python loop runs per vertex.  That keeps full
parameter sweeps up to n = 120 cheap.  Each family records the closed-form
edge count it must hit; the audit in :mod:`packlab.verify` checks those
counts and re-confirms the blocking properties with the exact solvers on
small instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from math import comb
from operator import lshift, xor
from typing import Callable, Mapping

from .errors import ParameterRangeError
from .graph import Graph, t_star
from .thresholds import matching_blocker_edges, turan_complement_edges


def _block(start: int, size: int) -> int:
    return ((1 << size) - 1) << start


_BITS = [1]  # _BITS[v] == 1 << v, grown on demand to the largest n built


def _own_bits(start: int, stop: int) -> list[int]:
    global _BITS
    bits = _BITS
    if len(bits) < stop:  # rebinding a whole new table is safe under threads
        bits = _BITS = [1 << v for v in range(stop)]
    return bits[start:stop]


def _less_self(mask: int, start: int, stop: int) -> list[int]:
    """``mask`` less its own bit for each vertex start..stop-1; ``mask``
    must hold all of them."""
    return list(map(xor, repeat(mask, stop - start), _own_bits(start, stop)))


def build_matching_blocker(n: int, d: int) -> Graph:
    """Graph with min degree d, no perfect matching, and the extremal edge
    count for that property.

    Layout: vertices 0..d form an independent set A joined completely to
    B = {d+1, ..., 2d}; B together with C = {2d+1, ..., n-1} forms a clique.
    A has degree d, B degree n-1, C degree n-d-2.  A's d+1 vertices have all
    their neighbours inside the d-vertex set B, so no matching covers A.
    """
    if n < 2 or n % 2:
        raise ParameterRangeError("need n >= 2 even")
    if not 0 <= d <= n // 2 - 1:
        raise ParameterRangeError("need 0 <= d <= n/2 - 1")
    mask_a = _block(0, d + 1)
    mask_b = _block(d + 1, d)
    mask_bc = _block(d + 1, n - d - 1)
    return Graph._from_masks(
        [mask_b] * (d + 1)
        + _less_self(mask_a | mask_bc, d + 1, 2 * d + 1)
        + _less_self(mask_bc, 2 * d + 1, n)
    )


def build_clique_plus_isolates(n: int, r: int) -> Graph:
    """Clique on n/r + 1 vertices (0..n/r) plus isolated vertices: max degree
    n/r, yet one class of any balanced n/r-colouring would have to contain two
    clique vertices, so no equitable n/r-colouring exists."""
    if r < 3 or n < r or n % r:
        raise ParameterRangeError("need r >= 3 and r | n with n >= r")
    q = n // r
    return Graph._from_masks(_less_self(_block(0, q + 1), 0, q + 1) + [0] * (n - q - 1))


def build_star_plus_cliques(n: int, r: int, big_d: int) -> Graph:
    """Star with big_d leaves (centre 0, leaves 1..big_d) disjoint from a
    balanced union of r-2 cliques on the remaining n - big_d - 1 vertices.

    For big_d >= n/(r-1) the max degree is exactly big_d and the star centre
    plus leaves overload every balanced class, so no equitable
    (n/r)-colouring exists; big_d <= n - r keeps the clique part
    non-degenerate.
    """
    if r < 3 or n < 2 * r or n % r:
        raise ParameterRangeError("need r >= 3 and r | n with n >= 2r")
    if big_d * (r - 1) < n or big_d > n - r:
        raise ParameterRangeError("need n/(r-1) <= big_d <= n - r")
    masks = [_block(1, big_d)] + [1] * big_d
    # two runs of equal cliques: a of size q + 1, then the rest of size q
    q, a = divmod(n - big_d - 1, r - 2)
    start = big_d + 1
    for size, count in ((q + 1, a), (q, r - 2 - a)):
        stop = start + size * count
        parts = map(lshift, repeat(_block(0, size), count), range(start, stop, size))
        per_vertex = chain.from_iterable(map(repeat, parts, repeat(size, count)))
        masks += map(xor, per_vertex, _own_bits(start, stop))
        start = stop
    return Graph._from_masks(masks)


def build_packing_exception(n: int, r: int, variant: str, j: int | None = None) -> Graph:
    """The two families of min-degree exceptions to perfect r-clique packing:
    their complements are the listed sparse graphs.

    Variant "i" is the complement of a clique on n/r + 1 vertices plus
    isolated vertices.  Variant "ii" is the complement of a star with
    n - r - j + 1 leaves, j disjoint edges, and r - j - 2 isolated vertices
    (1 <= j <= r - 2, n >= r + j); the complement's layout is star centre 0,
    leaves, edge pairs, then isolates.
    """
    if r < 2 or n < r or n % r:
        raise ParameterRangeError("need r >= 2 and r | n with n >= r")
    if variant == "i":
        if j is not None:
            raise ParameterRangeError("variant 'i' takes no j")
        q = n // r
        full = (1 << n) - 1
        return Graph._from_masks([full ^ _block(0, q + 1)] * (q + 1) + _less_self(full, q + 1, n))
    if variant != "ii":
        raise ParameterRangeError(f"unknown variant {variant!r}")
    if j is None:
        raise ParameterRangeError("variant 'ii' needs j")
    if not 1 <= j <= r - 2:
        raise ParameterRangeError("need 1 <= j <= r - 2")
    if n < r + j:
        raise ParameterRangeError("need n >= r + j")
    leaves = n - r - j + 1
    full = (1 << n) - 1
    masks = [full ^ _block(0, leaves + 1)] + _less_self(full ^ 1, 1, leaves + 1)
    for u in range(leaves + 1, leaves + 1 + 2 * j, 2):
        masks += [full ^ (3 << u)] * 2
    return Graph._from_masks(masks + _less_self(full, leaves + 1 + 2 * j, n))


def build_extremal1(n: int, r: int, k: int) -> Graph:
    """Sharpness witness for the banded degree condition: satisfies it at
    every index except i = k, and has no perfect r-clique packing.

    Parts in vertex order: W0 (k vertices, independent), W1..W_{r-2} (n/r
    each, independent), X (2n/r - 2k + 1 vertices, clique), Y (k - 1
    vertices, clique).  All pairs of parts are completely joined except
    W0 with X.  Any perfect packing would need a Y vertex in each of the k
    blocks through W0, but |Y| = k - 1.
    """
    if r < 2 or n < r or n % r:
        raise ParameterRangeError("need r >= 2 and r | n with n >= r")
    q = n // r
    if not 1 <= k <= q - 1:
        raise ParameterRangeError("need 1 <= k <= n/r - 1")
    full = (1 << n) - 1
    mask_w0 = _block(0, k)
    x_start = k + (r - 2) * q
    y_start = x_start + 2 * q - 2 * k + 1
    masks = [full ^ mask_w0 ^ _block(x_start, y_start - x_start)] * k
    for start in range(k, x_start, q):
        masks += [full ^ _block(start, q)] * q
    masks += _less_self(full ^ mask_w0, x_start, y_start)
    return Graph._from_masks(masks + _less_self(full, y_start, n))


def build_extremal2(n: int, r: int, k: int) -> Graph:
    """Sharpness witness for the disjunctive degree condition: fails it at
    exactly i = k, and has no perfect r-clique packing.

    Parts in vertex order: A (k vertices, independent), B ((r-1)k - 1
    vertices, clique, joined to everything), C (n - rk + 1 vertices, clique).
    A's only neighbours lie in B, and k blocks through A would need k(r-1)
    distinct B vertices.
    """
    if r < 2 or n < r or n % r:
        raise ParameterRangeError("need r >= 2 and r | n with n >= r")
    if not 1 <= k <= n // r:
        raise ParameterRangeError("need 1 <= k <= n/r")
    a, b = k, (r - 1) * k - 1
    full = (1 << n) - 1
    mask_b = _block(a, b)
    mask_bc = _block(a, n - a)
    return Graph._from_masks(
        [mask_b] * a + _less_self(full, a, a + b) + _less_self(mask_bc, a + b, n)
    )


def build_square_blocker(n: int, c: int, k: int) -> Graph:
    """Graph meeting the degree band d_i >= n/3 + c + i (for all i <= n/3)
    whose square-of-Hamilton-cycle obstruction is vertex 0.

    Layout: vertex 0 is joined to all of V2 = {1, ..., n/3 + c + 1}; V2 is a
    disjoint union of k stars (balanced sizes, larger stars first, each laid
    out centre then leaves); the rest is a clique V3 completely joined to V2.
    V2 induces no path on four vertices, so vertex 0 cannot lie inside the
    square of a Hamilton cycle.  Requires k >= 3c + 2 and each star to have
    at least 2c + 3 vertices, which is what keeps the degree band intact.
    """
    if n < 3 or n % 3:
        raise ParameterRangeError("need n >= 3 divisible by 3")
    if c < 1 or k < 1:
        raise ParameterRangeError("need c >= 1 and k >= 1")
    m2 = n // 3 + c + 1
    if k < 3 * c + 2:
        raise ParameterRangeError(f"need at least 3c + 2 = {3 * c + 2} stars, got {k}")
    if m2 // k < 2 * c + 3:
        raise ParameterRangeError(
            f"need every star to have at least 2c + 3 = {2 * c + 3} vertices; "
            f"{k} stars over {m2} vertices leave one with only {m2 // k}"
        )
    if n - 1 - m2 < 1:
        raise ParameterRangeError("no vertices left for the clique part")
    mask_v2 = _block(1, m2)
    mask_v3 = _block(m2 + 1, n - 1 - m2)
    masks = [mask_v2]
    qs, ss = divmod(m2, k)
    offset = 1
    for t in range(k):
        size = qs + 1 if t < ss else qs
        leaves_mask = _block(offset + 1, size - 1)
        masks.append(1 | leaves_mask | mask_v3)
        masks.extend([1 | (1 << offset) | mask_v3] * (size - 1))
        offset += size
    return Graph._from_masks(masks + _less_self(mask_v2 | mask_v3, m2 + 1, n))


@dataclass(frozen=True)
class Family:
    """CLI-facing description of one construction family."""

    token: str
    params: tuple[str, ...]
    build: Callable[..., Graph]
    summary: str


FAMILIES: Mapping[str, Family] = {
    f.token: f
    for f in (
        Family(
            "H",
            ("n", "d"),
            build_matching_blocker,
            "extremal graph with no perfect matching",
        ),
        Family(
            "G1",
            ("n", "r"),
            build_clique_plus_isolates,
            "clique on n/r + 1 vertices plus isolated vertices",
        ),
        Family(
            "G2",
            ("n", "r", "D"),
            lambda n, r, D: build_star_plus_cliques(n, r, D),
            "star with D leaves plus balanced disjoint cliques",
        ),
        Family(
            "af_i",
            ("n", "r"),
            lambda n, r: build_packing_exception(n, r, "i"),
            "min-degree exception to perfect packing, variant i",
        ),
        Family(
            "af_ii",
            ("n", "r", "j"),
            lambda n, r, j: build_packing_exception(n, r, "ii", j),
            "min-degree exception to perfect packing, variant ii",
        ),
        Family(
            "extremal1",
            ("n", "r", "k"),
            build_extremal1,
            "sharpness witness for the banded degree condition",
        ),
        Family(
            "extremal2",
            ("n", "r", "k"),
            build_extremal2,
            "sharpness witness for the disjunctive degree condition",
        ),
        Family(
            "t_star",
            ("n", "r"),
            t_star,
            "near-balanced complete multipartite graph with no perfect packing",
        ),
        Family(
            "square_cx",
            ("n", "C", "K"),
            lambda n, C, K: build_square_blocker(n, C, K),
            "degree-banded graph with a square-of-Hamilton-cycle obstruction",
        ),
    )
}


def expected_edges(token: str, **params: int) -> int | None:
    """Closed-form edge count for a family instance, or None when the family
    has no independent closed form.  The audit derives none: its band check
    fixes the degree sum of extremal1 and extremal2; square_cx has neither."""
    if token == "H":
        return matching_blocker_edges(params["n"], params["d"])
    if token == "G1":
        return comb(params["n"] // params["r"] + 1, 2)
    if token == "G2":
        n, r, big_d = params["n"], params["r"], params["D"]
        return big_d + turan_complement_edges(n - big_d - 1, r - 2)
    if token == "af_i":
        n, r = params["n"], params["r"]
        return comb(n, 2) - comb(n // r + 1, 2)
    if token == "af_ii":
        n, r, j = params["n"], params["r"], params["j"]
        return comb(n, 2) - (n - r - j + 1) - j
    if token == "t_star":
        n, r = params["n"], params["r"]
        q = n // r
        sizes = [q] * (r - 2) + [q - 1, q + 1]
        return comb(n, 2) - sum(comb(s, 2) for s in sizes)
    return None


def expected_degree_bands(token: str, **params: int) -> list[tuple[int, int]] | None:
    """Expected degree multiset as (count, degree) bands in ascending degree
    order, or None for families whose bands depend on runtime balancing
    (square_cx centres vary with the star sizes)."""
    if token == "H":
        n, d = params["n"], params["d"]
        return [(d + 1, d), (n - 2 * d - 1, n - d - 2), (d, n - 1)]
    if token == "G1":
        n, r = params["n"], params["r"]
        q = n // r
        return [(n - q - 1, 0), (q + 1, q)]
    if token == "G2":
        n, r, big_d = params["n"], params["r"], params["D"]
        # the builder's runs: a cliques of size q + 1, then r - 2 - a of size q
        q, a = divmod(n - big_d - 1, r - 2)
        return _merged([(big_d, 1), ((q + 1) * a, q), (q * (r - 2 - a), q - 1), (1, big_d)])
    if token == "af_i":
        n, r = params["n"], params["r"]
        q = n // r
        return [(q + 1, n - 1 - q), (n - q - 1, n - 1)]
    if token == "af_ii":
        n, r, j = params["n"], params["r"], params["j"]
        # in the complement: the star centre, its leaves with the j edges' ends, the isolates
        return _merged([(1, r + j - 2), (n - r + j + 1, n - 2), (r - j - 2, n - 1)])
    if token == "extremal1":
        n, r, k = params["n"], params["r"], params["k"]
        q = n // r
        out = [(k, (r - 2) * q + k - 1)]
        if r > 2:
            out.append(((r - 2) * q, (r - 1) * q))
        out.append((2 * q - 2 * k + 1, n - k - 1))
        if k > 1:
            out.append((k - 1, n - 1))
        return out
    if token == "extremal2":
        n, r, k = params["n"], params["r"], params["k"]
        out = [(k, (r - 1) * k - 1), (n - r * k + 1, n - k - 1)]
        if (r - 1) * k - 1:
            out.append(((r - 1) * k - 1, n - 1))
        return out
    if token == "t_star":
        n, r = params["n"], params["r"]
        q = n // r
        return _merged([(size, n - size) for size in [q] * (r - 2) + [q - 1, q + 1]])
    return None


def _merged(bands: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """(count, degree) bands with equal degrees merged, in ascending degree
    order, empty bands left out."""
    merged: dict[int, int] = {}
    for cnt, deg in bands:
        merged[deg] = merged.get(deg, 0) + cnt
    return [(cnt, deg) for deg, cnt in sorted(merged.items()) if cnt]
