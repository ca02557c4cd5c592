"""Independent reference implementations the tests check the library against.

Everything here is deliberately brute force: permutation isomorphism,
full subset scans, direct formula summation. None of it shares code with
the library paths under test.
"""

from __future__ import annotations

import itertools

from placeweave.motifs import MotifClass

# Reference edge sets over vertex positions 0..n-1.
REFERENCE_GRAPHS: dict[MotifClass, tuple[int, frozenset]] = {
    MotifClass.M2_1: (2, frozenset({(0, 1)})),
    MotifClass.M3_1: (3, frozenset({(0, 1), (1, 2)})),
    MotifClass.M3_2: (3, frozenset({(0, 1), (1, 2), (0, 2)})),
    MotifClass.M4_1: (4, frozenset({(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)})),
    MotifClass.M4_2: (4, frozenset({(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)})),
    MotifClass.M4_3: (4, frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})),
    MotifClass.M4_4: (4, frozenset({(0, 1), (0, 2), (1, 2), (0, 3)})),
    MotifClass.M4_5: (4, frozenset({(0, 1), (1, 2), (2, 3)})),
    MotifClass.M4_6: (4, frozenset({(0, 1), (0, 2), (0, 3)})),
}


def _normalize(edges) -> frozenset:
    return frozenset((min(a, b), max(a, b)) for a, b in edges)


def graphs_isomorphic(n: int, edges_a, edges_b) -> bool:
    """True when some vertex permutation maps one edge set onto the other."""
    ea, eb = _normalize(edges_a), _normalize(edges_b)
    if len(ea) != len(eb):
        return False
    for perm in itertools.permutations(range(n)):
        mapped = frozenset(
            (min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in ea
        )
        if mapped == eb:
            return True
    return False


def brute_force_classify(n: int, edges) -> MotifClass:
    """Classify by trying every reference graph under every permutation."""
    for cls, (size, ref_edges) in REFERENCE_GRAPHS.items():
        if size == n and graphs_isomorphic(n, edges, ref_edges):
            return cls
    return MotifClass.OTHER


def brute_force_enumerate(net, k: int) -> dict[MotifClass, int]:
    """Scan every C(n, k) vertex subset; count connected induced subgraphs.

    Classification of each subset reuses the library classifier, which the
    permutation oracle above validates exhaustively; the enumeration logic
    itself (subset scan + induced edges) stays independent.
    """
    from placeweave.motifs import classify_graph

    adj = net.adjacency
    counts: dict[MotifClass, int] = {}
    for subset in itertools.combinations(sorted(net.nodes), k):
        edges = [
            (a, b)
            for i, a in enumerate(subset)
            for b in subset[i + 1 :]
            if b in adj[a]
        ]
        cls = classify_graph(k, edges)
        if cls is not MotifClass.OTHER:
            counts[cls] = counts.get(cls, 0) + 1
    return counts


def brute_force_barrat(net, node: str) -> float:
    """Direct ordered-pair evaluation of the weighted clustering formula."""
    nbrs = net.adjacency[node]
    k = len(nbrs)
    if k < 2:
        return 0.0
    strength = sum(nbrs.values())
    acc = 0.0
    for j in nbrs:
        for h in nbrs:
            if j == h:
                continue
            if net.has_edge(j, h):
                acc += (nbrs[j] + nbrs[h]) / 2.0
    return acc / (strength * (k - 1))


def exact_barrat(net, node: str) -> float:
    """Weighted clustering with an exact integer numerator.

    Sums w_ij + w_ih over unordered connected neighbor pairs in Python ints
    and divides once, so the result is the correctly rounded quotient: the
    bits any exact evaluation of the formula must reproduce.
    """
    nbrs = net.adjacency[node]
    k = len(nbrs)
    if k < 2:
        return 0.0
    numerator = sum(
        nbrs[j] + nbrs[h]
        for j, h in itertools.combinations(sorted(nbrs), 2)
        if net.has_edge(j, h)
    )
    return numerator / (sum(nbrs.values()) * (k - 1))


def brute_force_unweighted_clustering(net, node: str) -> float:
    """Triangle count over possible neighbor pairs, ignoring weights."""
    nbrs = sorted(net.adjacency[node])
    k = len(nbrs)
    if k < 2:
        return 0.0
    triangles = sum(
        1
        for i, j in itertools.combinations(nbrs, 2)
        if net.has_edge(i, j)
    )
    return triangles / (k * (k - 1) / 2)


def attributed_isomorphic(cls: MotifClass, labels_a: tuple, labels_b: tuple) -> bool:
    """True when a label-preserving automorphism maps assignment a onto b.

    Labels are given by reference-graph position for the class.
    """
    n, ref_edges = REFERENCE_GRAPHS[cls]
    for perm in itertools.permutations(range(n)):
        mapped = frozenset(
            (min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in ref_edges
        )
        if mapped != ref_edges:
            continue
        if all(labels_b[perm[i]] == labels_a[i] for i in range(n)):
            return True
    return False
