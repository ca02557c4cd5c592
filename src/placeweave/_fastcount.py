"""Exact closed-form census of connected induced 3- and 4-node subgraphs.

The induced count of every motif class follows by a fixed linear
inversion from counts of non-induced pattern copies, and those need only
degrees, per-edge and per-node triangle counts, pair codegrees and the
number of 4-cliques (ESCAPE: Pinar, Seshadhri & Vishal, WWW 2017; ORCA:
Hocevar & Demsar, Bioinformatics 2014); the two 3-node classes need only
the degrees and the triangle count. No subgraph is visited one by one, so
the tens of millions of 4-node subgraphs of a county-scale graph are
counted in well under a second.

Nodes are ranked by degree and every edge points from the lower to the
higher rank (Chiba & Nishizeki 1985); _orient is the only place that does
so, straight from a network's edge arrays, each edge held once. A node
then has at most sqrt(2m) out-neighbours, which bounds triangle listing,
the 4-clique search and the 4-cycle wedge listing by O(m sqrt m) however
heavy the hubs; their candidate arrays are processed in slices of bounded
length. full_census orients the graph and lists its triangles once and
derives every 3- and 4-node class from them.

codegrees gives codeg(i, j), the number of common neighbours, at every
edge, for metrics.local_clustering: either from a dense A @ A or from the
triangles on each edge, whichever _dense_pays picks.

Everything is numpy. All work runs in the calling thread; the counts are
exact integers and never depend on the thread count.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvariantError
from .ingest import group_starts
from .motifs import CLASS_INDEX, INDEX_CLASS, MotifClass

N_CLASS_SLOTS = len(INDEX_CLASS)  # nine motif classes plus OTHER

_SLICE = 1 << 22  # candidate entries handled at once
_EXACT_DEGREE = 1 << 20  # below it every per-node and per-edge term fits int64
_INT64_MAX = np.iinfo(np.int64).max


def census_counts(
    indptr: np.ndarray, indices: np.ndarray, k: int, threads: int = 1
) -> np.ndarray:
    """Count classes of connected induced k-subgraphs; returns int64[10].

    indptr and indices hold a simple undirected graph as symmetric CSR
    adjacency (the network.csr_adjacency layout). The size-k slots of
    full_census over its upper triangle; every other slot is 0. threads is
    kept because the README's criterion 9 calls census_counts with a thread
    count; it changes neither the counts nor the work.
    """
    if k not in (3, 4):
        raise ValueError(f"closed-form census supports k in (3, 4), got {k}")
    n = indptr.size - 1
    src = np.repeat(np.arange(n), np.diff(indptr))
    up = src < indices
    counts = full_census(n, src[up], indices[up])
    counts[[cls.size != k for cls in INDEX_CLASS]] = 0
    return counts


def full_census(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Count every 3- and 4-node class of connected induced subgraphs; returns int64[10].

    src and dst hold each edge of a simple undirected graph over nodes
    0..n-1 once, as a PlaceNetwork does. Slots follow CLASS_INDEX; the M2_1
    and OTHER slots are 0. One orientation and one triangle list serve
    every class.
    """
    counts = np.zeros(N_CLASS_SLOTS, dtype=np.int64)
    if n == 0:
        return counts
    uptr, tail, head, keys, deg, _ = _orient(n, src, dst)
    d = deg.astype(object) if deg.max() >= _EXACT_DEGREE else deg

    ab, bc, ac = _triangles(uptr, tail, head, keys, n)
    triangles = ab.size
    t_edge = np.bincount(np.concatenate((ab, bc, ac)), minlength=keys.size)
    t_node = np.bincount(np.concatenate((tail[ab], head[ab], head[bc])), minlength=n)
    clique = _four_cliques(uptr, tail, head, keys, n, ab, bc)
    diamond = _total(t_edge * (t_edge - 1) // 2)
    cycle = _four_cycles(uptr, tail, head, deg, n)
    tailed = _total(t_node * (d - 2))
    path = _total((d[tail] - 1) * (d[head] - 1)) - 3 * triangles
    star = _total(d * (d - 1) * (d - 2) // 6)
    # Non-induced copies of each pattern (rows) inside one induced
    # subgraph of each class (columns); the inversion below solves this
    # unit lower-triangular system top to bottom.
    #            K4  diamond  C4  tailed  path  star
    #   K4        1
    #   diamond   6     1
    #   C4        3     1      1
    #   tailed   12     4      0    1
    #   path     12     6      4    2      1
    #   star      4     2      0    1      0     1
    k4 = clique
    dia = diamond - 6 * k4
    c4 = cycle - dia - 3 * k4
    tt = tailed - 4 * dia - 12 * k4
    induced = {
        MotifClass.M3_1: _total(d * (d - 1) // 2) - 3 * triangles,
        MotifClass.M3_2: triangles,
        MotifClass.M4_1: k4,
        MotifClass.M4_2: dia,
        MotifClass.M4_3: c4,
        MotifClass.M4_4: tt,
        MotifClass.M4_5: path - 2 * tt - 4 * c4 - 6 * dia - 12 * k4,
        MotifClass.M4_6: star - tt - 2 * dia - 4 * k4,
    }
    for cls, count in induced.items():
        if count < 0:
            raise InvariantError(f"closed-form census gave {cls} = {count} < 0")
        counts[CLASS_INDEX[cls]] = count
    return counts


# Costs of the two codegree forms, measured on a 2-core x86-64 host (numpy
# 2.4.6, OpenBLAS), in-process, best of 3:
# - dense, per n**3: 0.030 ns on the README-world merged network (n = 500,
#   49,955 edges), 0.014 ns at n = 1,000 and 0.010-0.012 ns at n = 2,048;
# - triangles, per candidate (see _dense_pays): 79-139 ns on graphs with
#   0.4M-5.3M candidates, the 15,931-node county graph included; 300-660 ns
#   on sparse graphs with 1k-13k candidates, where the whole form takes
#   under 4 ms.
# The constants sit inside those ranges. With them the rule picks the faster
# form on each graph above, and on G(n, p) at n = 1,000, p = 0.05 (dense
# 14 ms, triangles 34 ms) and at n = 3,000, p = 0.02 (dense 302 ms,
# triangles 167 ms). The dense form holds A and A @ A as float32 (8 n**2
# bytes); every entry of A @ A is an integer at most n < 2**24, so the
# product is exact.
_DENSE_NS_PER_CUBE = 0.02
_TRIANGLE_NS_PER_CANDIDATE = 100
_DENSE_MAX_NODES = math.isqrt((64 << 20) // 8)  # A and A @ A within 64 MiB: n <= 2,896


def _dense_pays(n: int, candidates: int) -> bool:
    """Whether the dense form fits its memory cap and costs less than listing triangles.

    candidates is the number of pairs of consecutive oriented edges a -> b -> c
    that triangle listing checks, sum over edges a -> b of out(b).
    """
    dense_ns = n**3 * _DENSE_NS_PER_CUBE
    return n <= _DENSE_MAX_NODES and dense_ns <= candidates * _TRIANGLE_NS_PER_CANDIDATE


def codegrees(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """codeg(src[e], dst[e]), the common neighbours of each edge's ends, as int64.

    src and dst hold each edge once, as for full_census. codeg comes from
    A @ A over the n x n 0/1 adjacency when _dense_pays, else from the
    triangles on each edge; both are exact.
    """
    uptr, tail, head, keys, _, edge = _orient(n, src, dst)
    if _dense_pays(n, int(np.diff(uptr)[head].sum())):
        adj = np.zeros((n, n), dtype=np.float32)
        adj[src, dst] = adj[dst, src] = 1
        return (adj @ adj)[src, dst].astype(np.int64)
    codeg = np.empty(keys.size, dtype=np.int64)
    triangles = np.concatenate(_triangles(uptr, tail, head, keys, n))
    codeg[edge] = np.bincount(triangles, minlength=keys.size)
    return codeg


def _orient(n, src, dst):
    """Rank nodes by degree and point every edge from the lower to the higher rank.

    src and dst hold each edge once. Returns (uptr, tail, head, keys, deg,
    edge): over ranks, the oriented edges a -> b as sorted keys a * n + b,
    whose positions are the edge ids, with their tails and heads;
    uptr[a]:uptr[a + 1] the ids of a's out-edges; each rank's degree; and
    edge, each edge id's position in src and dst.
    """
    deg = np.bincount(src, minlength=n) + np.bincount(dst, minlength=n)
    order = np.argsort(deg, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    a, b = rank[src], rank[dst]
    keys = np.minimum(a, b) * n + np.maximum(a, b)
    edge = np.argsort(keys)
    keys = keys[edge]
    tail, head = keys // n, keys % n
    uptr = np.searchsorted(tail, np.arange(n + 1))
    return uptr, tail, head, keys, deg[order], edge


def _triangles(uptr, tail, head, keys, n):
    """Every triangle a < b < c once, as the edge ids of a->b, b->c, a->c."""
    out = np.diff(uptr)
    parts = [(np.empty(0, dtype=np.int64),) * 3]
    for lo, hi in _slices(out[head]):
        width = out[head[lo:hi]]
        ab = np.repeat(np.arange(lo, hi), width)
        bc = _ranges(uptr[head[lo:hi]], width)
        ac = _lookup(keys, tail[ab] * n + head[bc])
        hit = ac >= 0
        parts.append((ab[hit], bc[hit], ac[hit]))
    return tuple(np.concatenate(column) for column in zip(*parts))


def _four_cliques(uptr, tail, head, keys, n, ab, bc) -> int:
    """Extend each triangle a < b < c by the d > c adjacent to all three."""
    a, b, c = tail[ab], head[ab], head[bc]
    out = np.diff(uptr)
    total = 0
    for lo, hi in _slices(out[c]):
        width = out[c[lo:hi]]
        tri = np.repeat(np.arange(lo, hi), width)
        fourth = head[_ranges(uptr[c[lo:hi]], width)]
        near_a = _lookup(keys, a[tri] * n + fourth) >= 0
        tri, fourth = tri[near_a], fourth[near_a]
        total += int(np.count_nonzero(_lookup(keys, b[tri] * n + fourth) >= 0))
    return total


def _four_cycles(uptr, tail, head, deg, n) -> int:
    """Count each 4-cycle once, from its highest-ranked node v.

    With w the node opposite v, the cycle is a pair of wedges w - u - v with
    u -> v and w < v: sum C(c, 2) over pairs w < v, where c counts those
    wedges. The w of u lie below u (u's down list) or between u and v
    (u's up list up to the edge u -> v), so every listed wedge counts.
    """
    by_head = np.argsort(head, kind="stable")  # edge ids grouped by head
    dptr = np.searchsorted(head[by_head], np.arange(n + 1))
    below, indeg = tail[by_head], np.diff(dptr)  # row x of below lists the w -> x
    work = np.bincount(head, weights=deg[tail], minlength=n)
    total = 0
    for lo, hi in _slices(work):
        edge = by_head[dptr[lo] : dptr[hi]]  # the u -> v with lo <= v < hi
        u, offset = tail[edge], (head[edge] - lo) * n
        low, mid = indeg[u], edge - uptr[u]
        split = int(low.sum())
        keys = np.empty(split + int(mid.sum()), dtype=np.int64)
        keys[:split] = below[_ranges(dptr[u], low)]
        keys[:split] += np.repeat(offset, low)
        keys[split:] = head[_ranges(uptr[u], mid)]
        keys[split:] += np.repeat(offset, mid)
        keys.sort()  # one run per pair (v, w); its length is c
        c = np.diff(group_starts(keys), append=keys.size)
        total += _total(c * (c - 1) // 2)
    return total


def _slices(lengths):
    """Consecutive (lo, hi) ranges whose lengths sum to at most _SLICE each.

    A single item longer than _SLICE forms a range of its own.
    """
    ends = np.cumsum(lengths)
    lo = 0
    while lo < lengths.size:
        start = ends[lo - 1] if lo else 0
        hi = max(int(np.searchsorted(ends, start + _SLICE, side="right")), lo + 1)
        yield lo, hi
        lo = hi


def _ranges(starts, lengths):
    """Concatenation of arange(s, s + l) over the (start, length) pairs."""
    shift = starts - (np.cumsum(lengths) - lengths)
    return np.repeat(shift, lengths) + np.arange(int(lengths.sum()))


def _lookup(keys, wanted):
    """Position of each wanted key in the sorted keys, or -1 if absent."""
    pos = np.minimum(np.searchsorted(keys, wanted), keys.size - 1)
    return np.where(keys[pos] == wanted, pos, -1)


def _total(terms) -> int:
    """Exact sum of non-negative integer terms; never wraps past int64."""
    if terms.size and terms.dtype != object and int(terms.max()) > _INT64_MAX // terms.size:
        terms = terms.astype(object)
    return int(terms.sum())

