"""Exact closed-form census of connected induced 2-, 3- and 4-node subgraphs.

The induced count of every motif class follows from counts of non-induced
pattern copies by a solve of motifs.COPIES, the copy table derived from the
class shapes (ESCAPE: Pinar, Seshadhri & Vishal, WWW 2017; ORCA: Hocevar &
Demsar, Bioinformatics 2014). The copies need only the edge count, degrees,
per-edge triangle counts, 4-cycles and the number of 4-cliques. No
subgraph is visited one by one, so the tens of millions of 4-node
subgraphs of a county-scale graph are counted in well under a second.
Every count is an exact Python int, past int64 too, by one rule: node terms
C(d, 2) and C(d, 3) are Python ints, once per distinct degree; edge terms
stay int64 and every sum of them is ingest.exact_sum, exact for m < 2**31.
For n < 2**31 each edge term is below 2**63 (triangles t < 2**31, d_t + d_h - 4 < 2**32).

Nodes are ranked by degree and every edge points from the lower to the
higher rank (Chiba & Nishizeki 1985); _orient is the only place that does
so, straight from a network's edge arrays, each edge held once. A node
then has at most sqrt(2m) out-neighbours. _triangles finds each triangle
and 4-clique at its lowest-ranked node, among that node's out-neighbours:
O(m sqrt m) pair lookups however heavy the hubs, and ceil(k / 64) word
ANDs per triangle for the 4-cliques. The 4-cycle wedge listing is
O(m sqrt m) too. Candidate arrays are processed in slices of at most
_SLICE entries, or of about m at most for a node whose own pairs exceed it
(k <= sqrt(2m)). full_census orients the graph, runs _triangles once and
solves every class from its counts, the classes with most edges first.

codegrees gives codeg(i, j), the number of common neighbours, at every
edge, for metrics.local_clustering: on at most _DENSE_MAX_NODES nodes from
the ends' adjacency bit rows by _shared, the bit-row kernel that also
counts _triangles' 4-cliques, else from the triangles on each edge.

Everything is numpy, and every count is an integer operation: no BLAS
call is made, so no count depends on a thread count.
"""

from __future__ import annotations

import numpy as np

from .errors import InvariantError
from .ingest import exact_sum, group_starts
from .motifs import CLASS_INDEX, CLASS_ORDER, COPIES, INDEX_CLASS, MotifClass

_SLICE = 1 << 22  # candidate entries handled at once


def census_counts(
    indptr: np.ndarray, indices: np.ndarray, k: int, threads: int = 1
) -> np.ndarray:
    """Count classes of connected induced k-subgraphs; returns 10 ints as an object array.

    indptr and indices hold a simple undirected graph as symmetric CSR
    adjacency (the network.csr_adjacency layout). Slots follow CLASS_INDEX:
    the size-k classes of full_census over its upper triangle, exact Python
    ints past int64 too; every other slot is 0. threads is kept because the
    README's criterion 9 calls census_counts with a thread count; it changes
    neither the counts nor the work.
    """
    if k not in (3, 4):
        raise ValueError(f"closed-form census supports k in (3, 4), got {k}")
    n = indptr.size - 1
    src = np.repeat(np.arange(n), np.diff(indptr))
    up = src < indices
    counts = full_census(n, src[up], indices[up])
    return np.array([counts[c] if c.size == k else 0 for c in INDEX_CLASS], dtype=object)


def full_census(n: int, src: np.ndarray, dst: np.ndarray) -> dict[MotifClass, int]:
    """Count every 2-, 3- and 4-node class of connected induced subgraphs.

    src and dst hold each edge of a simple undirected graph over nodes
    0..n-1 once, as a PlaceNetwork does. Returns each class's count, an
    exact int for n, m < 2**31 by the module docstring's rule, in
    CLASS_ORDER. One orientation and one pass of _triangles, the triangles
    on each edge and the 4-clique count, give the non-induced copies of
    every class; the induced counts solve motifs.COPIES for them.
    """
    if n == 0:
        return dict.fromkeys(CLASS_ORDER, 0)
    uptr, tail, head, keys, deg, _ = _orient(n, src, dst)
    t_edge, clique = _triangles(uptr, head, keys, n)
    triangles = exact_sum(t_edge) // 3
    start = group_starts(deg)  # deg ascends: one run of nodes per distinct degree
    per_degree = list(zip(deg[start].tolist(), np.diff(start, append=n).tolist()))
    copies = {
        MotifClass.M2_1: keys.size,
        MotifClass.M3_1: sum(k * (d * (d - 1) // 2) for d, k in per_degree),
        MotifClass.M3_2: triangles,
        MotifClass.M4_1: clique,
        MotifClass.M4_2: exact_sum(t_edge * (t_edge - 1) // 2),
        MotifClass.M4_3: _four_cycles(uptr, tail, head, deg, n),
        # sum of t_v (d_v - 2) over nodes v; each triangle at v lies on two of v's edges
        MotifClass.M4_4: exact_sum(t_edge * (deg[tail] + deg[head] - 4)) // 2,
        MotifClass.M4_5: exact_sum((deg[tail] - 1) * (deg[head] - 1)) - 3 * triangles,
        MotifClass.M4_6: sum(k * (d * (d - 1) * (d - 2) // 6) for d, k in per_degree),
    }
    # A class's copies lie in itself and in classes with more edges, so going
    # from the most edges down, every count the solve reads is final or still 0.
    induced = dict.fromkeys(CLASS_ORDER, 0)
    for cls in sorted(CLASS_ORDER, key=lambda c: -c.edge_count):
        row = COPIES[CLASS_INDEX[cls]].tolist()
        induced[cls] = copies[cls] - sum(a * b for a, b in zip(row, induced.values()))
        if induced[cls] < 0:
            raise InvariantError(f"closed-form census gave {cls} = {induced[cls]} < 0")
    return induced


# codegrees' bitset form costs n * ceil(n / 64) uint64 words and m * ceil(n / 64)
# word ANDs and popcounts whatever the density: it wins on dense graphs and, up
# to this cap, loses little on sparse ones. In process on a 2-core x86-64 host
# (numpy 2.4.6), best of 5 in each of two runs, bitset against triangles:
# G(2,896, 0.0005) 0.5 vs 0.5 ms; G(1,000, 0.05) 1.7-1.8 vs 21-22 ms;
# G(2,896, 0.04) 29-30 vs 298-301 ms; past the cap, the 15,931-node county
# graph 122-128 vs 44-46 ms.
_DENSE_MAX_NODES = 2896


def codegrees(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """codeg(src[e], dst[e]), the common neighbours of each edge's ends, as int64.

    src and dst hold each edge once, as for full_census. On at most
    _DENSE_MAX_NODES nodes codeg is the popcount of the ends' adjacency bit
    rows ANDed, else the triangles on each edge; both are exact.
    """
    if n > _DENSE_MAX_NODES:
        uptr, _, head, keys, _, edge = _orient(n, src, dst)
        codeg = np.empty(keys.size, dtype=np.int64)
        codeg[edge] = _triangles(uptr, head, keys, n)[0]
        return codeg
    return _shared(np.concatenate((src, dst)), np.concatenate((dst, src)), n, n, src, dst)


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


def _triangles(uptr, head, keys, n):
    """Triangles on each edge id, and the number of 4-cliques.

    A triangle a < b < c is an edge b -> c between two of a's out-neighbours,
    a 4-clique a < b < c < d a triangle among them. Nodes go in one batch per
    out-degree k >= 2. Each hit b -> c among a node's k(k-1)/2 out-neighbour
    pairs is a triangle. With each out-neighbour's hits as a k-bit row, the
    hit b -> c closes _shared's popcount(row_b & row_c) 4-cliques, one per d above both.
    """
    out = np.diff(uptr)
    t_edge = np.zeros(keys.size, dtype=np.int64)
    cliques = 0
    present = np.flatnonzero(np.bincount(out))  # np.unique's first call imports numpy.ma
    for k in present[present >= 2].tolist():
        nodes = np.flatnonzero(out == k)
        i, j = np.triu_indices(k, 1)
        for lo, hi in _slices(np.full(nodes.size, i.size)):
            edges = uptr[nodes[lo:hi], None] + np.arange(k)  # heads ascend: b < c
            ab, ac = edges[:, i], edges[:, j]
            bc = _lookup(keys, head[ab] * n + head[ac])
            found = bc >= 0
            ids = np.concatenate((ab[found], bc[found], ac[found]))
            t_edge += np.bincount(ids, minlength=keys.size)
            if k >= 3:
                node, pair = np.divmod(np.flatnonzero(found), i.size)
                b, c = node * k + i[pair], node * k + j[pair]  # rows within the slice
                cliques += int(_shared(b, j[pair], (hi - lo) * k, k, b, c).sum())
    return t_edge, cliques


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
        total += exact_sum(c * (c - 1) // 2)
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


def _shared(rows, cols, n_rows, width, a, b):
    """Columns rows a[p] and b[p] share, of the n_rows x width 0/1 matrix with ones at (rows, cols).

    The matrix is ceil(width / 64) arrays of n_rows uint64 words, array w
    holding columns 64w to 64w + 63 of every row. The (row, col) pairs must
    be distinct: one np.add.at on the flat word index then sets each bit
    once, which equals OR-ing it in and runs faster than np.bitwise_or.at.
    Each pair's count, int64, is the sum over the words of the popcount of
    its two rows' words ANDed.
    """
    words = np.zeros((-(-width // 64), n_rows), dtype=np.uint64)
    bits = np.uint64(1) << (cols & 63).astype(np.uint64)
    np.add.at(words.reshape(-1), (cols >> 6) * n_rows + rows, bits)
    shared = np.zeros(a.size, dtype=np.int64)
    for word in words:
        shared += np.bitwise_count(word[a] & word[b])
    return shared

