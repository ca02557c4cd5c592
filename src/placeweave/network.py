"""Undirected integer-weighted place networks and their file format.

A PlaceNetwork is held as arrays: its sorted node ids, the int64 codes of
each edge's endpoints into them (smaller code first, edges sorted by the
code pair) and each edge's int64 weight. Because the node ids are sorted,
code order is string order, so the edge order is the order of the
(poi_a, poi_b) string pairs. Weights count visit flows.

Networks are built from a SequenceTable's integer stays: each step (or
co-visited pair) becomes a pair of POI codes, and one lexsort over the
pairs groups them into edges whose weights are the group sizes. Merging
concatenates the edge arrays of several networks and groups them the same
way. Names are attached only when a network is written.

The on-disk format is a CSV edge list (poi_a,poi_b,weight, poi_a < poi_b,
rows sorted) plus a JSON sidecar carrying the label, node count, build mode
and any isolated nodes.
"""

from __future__ import annotations

import datetime as dt
import json
from bisect import bisect_left
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .errors import SchemaError
from .ingest import SequenceTable, day_date

NETWORK_MODES = ("consecutive", "covisitation")


def edge_key(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a < b else (b, a)


def _empty() -> np.ndarray:
    return np.zeros(0, dtype=np.int64)


def _sum_edges(
    src: np.ndarray, dst: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort edges by (src, dst) with one lexsort and sum the weights of repeated pairs."""
    order = np.lexsort((dst, src))
    src, dst, total = src[order], dst[order], np.cumsum(weights[order])
    last = np.ones(len(src), dtype=bool)  # last entry of its pair
    last[:-1] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
    total = total[last]
    return src[last], dst[last], np.diff(total, prepend=0)


class PlaceNetwork:
    """Simple undirected graph over POI ids with positive integer weights.

    names holds the sorted node ids; src and dst the int64 endpoint codes
    of each edge (src < dst, edges sorted by (src, dst)); weights the int64
    weight of each edge. add_node and add_edge queue changes that are
    folded into the arrays on the next read.
    """

    def __init__(
        self,
        nodes: Iterable[str] = (),
        edges: Mapping[tuple[str, str], int] | None = None,
        label: str = "",
        mode: str | None = None,
    ):
        self.label = label
        self.mode = mode
        self._set([], _empty(), _empty(), _empty())
        self._queued_nodes: set[str] = set(nodes)
        self._queued_edges: list[tuple[str, str, int]] = []
        for (a, b), w in (edges or {}).items():
            self.add_edge(a, b, w)

    @classmethod
    def from_arrays(
        cls,
        names: list[str],
        src: np.ndarray,
        dst: np.ndarray,
        weights: np.ndarray,
        label: str = "",
        mode: str | None = None,
    ) -> PlaceNetwork:
        """A network over sorted distinct names; repeated edges (src < dst) add up."""
        net = cls(label=label, mode=mode)
        net._set(names, *_sum_edges(src, dst, weights))
        return net

    def _set(self, names: list[str], src: np.ndarray, dst: np.ndarray, weights: np.ndarray) -> None:
        self._names = names
        self._src = src.astype(np.int64, copy=False)
        self._dst = dst.astype(np.int64, copy=False)
        self._weights = weights.astype(np.int64, copy=False)

    # -- construction ---------------------------------------------------

    def add_node(self, node: str) -> None:
        self._queued_nodes.add(node)

    def add_edge(self, a: str, b: str, weight: int = 1) -> None:
        if a == b:
            raise ValueError(f"self-loop at {a!r}")
        self._queued_edges.append((a, b, weight))

    def _fold(self) -> None:
        """Merge queued nodes and edges into the arrays, summing repeated edges."""
        if not (self._queued_nodes or self._queued_edges):
            return
        queued = self._queued_edges
        names = sorted(
            self._queued_nodes.union(self._names, (v for a, b, _ in queued for v in (a, b)))
        )
        index = {v: i for i, v in enumerate(names)}
        old = np.array([index[v] for v in self._names], dtype=np.int64)
        a = np.fromiter((index[e[0]] for e in queued), dtype=np.int64, count=len(queued))
        b = np.fromiter((index[e[1]] for e in queued), dtype=np.int64, count=len(queued))
        w = np.fromiter((e[2] for e in queued), dtype=np.int64, count=len(queued))
        src = np.concatenate((old[self._src], np.minimum(a, b)))
        dst = np.concatenate((old[self._dst], np.maximum(a, b)))
        self._queued_nodes, self._queued_edges = set(), []
        self._set(names, *_sum_edges(src, dst, np.concatenate((self._weights, w))))

    # -- arrays -----------------------------------------------------------

    @property
    def names(self) -> list[str]:
        self._fold()
        return self._names

    @property
    def src(self) -> np.ndarray:
        self._fold()
        return self._src

    @property
    def dst(self) -> np.ndarray:
        self._fold()
        return self._dst

    @property
    def weights(self) -> np.ndarray:
        self._fold()
        return self._weights

    @property
    def n_nodes(self) -> int:
        return len(self.names)

    @property
    def n_edges(self) -> int:
        return len(self.src)

    @property
    def total_weight(self) -> int:
        return int(self.weights.sum())

    def index(self, node: str) -> int:
        """The code of node in names; KeyError for a node not in the network."""
        names = self.names
        i = bisect_left(names, node)
        if i == len(names) or names[i] != node:
            raise KeyError(f"unknown node {node!r}")
        return i

    def __eq__(self, other) -> bool:
        if not isinstance(other, PlaceNetwork):
            return NotImplemented
        return (
            self.names == other.names
            and np.array_equal(self.src, other.src)
            and np.array_equal(self.dst, other.dst)
            and np.array_equal(self.weights, other.weights)
        )

    def __repr__(self) -> str:
        return (
            f"PlaceNetwork(label={self.label!r}, nodes={self.n_nodes}, "
            f"edges={self.n_edges}, total_weight={self.total_weight})"
        )


def _covisitation_pairs(sequences: SequenceTable) -> tuple[np.ndarray, np.ndarray]:
    """POI codes (a, b), a < b, of every distinct POI pair of each sequence."""
    seq = np.repeat(np.arange(len(sequences)), np.diff(sequences.offsets))
    poi = sequences.stays.astype(np.int64)
    order = np.lexsort((poi, seq))
    seq, poi = seq[order], poi[order]
    distinct = np.ones(len(poi), dtype=bool)
    distinct[1:] = (seq[1:] != seq[:-1]) | (poi[1:] != poi[:-1])
    seq, poi = seq[distinct], poi[distinct]
    # each distinct POI pairs with every larger one of its sequence
    later = np.searchsorted(seq, seq, side="right") - np.arange(len(seq)) - 1
    first = np.repeat(np.arange(len(seq)), later)
    second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
    return poi[first], poi[second]


def build_network(
    sequences: SequenceTable,
    mode: str = "consecutive",
    label: str | None = None,
) -> PlaceNetwork:
    """Aggregate stay sequences into one weighted network.

    consecutive mode increments the edge of every successive stay pair by
    one per traversal; covisitation mode increments every unordered pair
    of distinct POIs seen in the same sequence by one per sequence. The
    nodes are the POIs the sequences visit.
    """
    if mode not in NETWORK_MODES:
        raise ValueError(f"mode must be one of {NETWORK_MODES}, got {mode!r}")
    short = np.flatnonzero(np.diff(sequences.offsets) < 2)
    if short.size:
        i = short[0]
        raise ValueError(
            f"sequence for {sequences.devices[sequences.device[i]]} on "
            f"{day_date(sequences.day[i])} has fewer than 2 stays"
        )
    stays = sequences.stays.astype(np.int64)
    if mode == "consecutive":
        step = np.ones(max(len(stays) - 1, 0), dtype=bool)
        step[sequences.offsets[1:-1] - 1] = False  # no step from one sequence into the next
        a, b = stays[:-1][step], stays[1:][step]
        repeat = np.flatnonzero(a == b)
        if repeat.size:
            raise ValueError(
                f"consecutive duplicate stay {sequences.pois[a[repeat[0]]]!r}; "
                "collapse sequences in ingest first"
            )
        a, b = np.minimum(a, b), np.maximum(a, b)
    else:
        a, b = _covisitation_pairs(sequences)
    visited = np.zeros(len(sequences.pois), dtype=bool)
    visited[stays] = True
    code = np.cumsum(visited) - 1  # POI code -> node code
    if label is None and len(sequences):
        label = _date_range_label(day_date(sequences.day.min()), day_date(sequences.day.max()))
    return PlaceNetwork.from_arrays(
        [sequences.pois[i] for i in np.flatnonzero(visited).tolist()],
        code[a],
        code[b],
        np.ones(len(a), dtype=np.int64),
        label=label or "",
        mode=mode,
    )


def _date_range_label(start: dt.date, end: dt.date) -> str:
    return start.isoformat() if start == end else f"{start.isoformat()}..{end.isoformat()}"


def _parse_label_range(label: str) -> tuple[dt.date, dt.date] | None:
    try:
        if ".." in label:
            a, b = label.split("..", 1)
            return dt.date.fromisoformat(a), dt.date.fromisoformat(b)
        d = dt.date.fromisoformat(label)
        return d, d
    except ValueError:
        return None


def merge_networks(nets: list[PlaceNetwork]) -> PlaceNetwork:
    """Node union and edge-weight sum; label covers the merged date range."""
    if not nets:
        raise ValueError("cannot merge an empty list of networks")
    names = sorted(set().union(*(net.names for net in nets)))
    index = {v: i for i, v in enumerate(names)}
    src, dst, weights = [_empty()], [_empty()], [_empty()]
    for net in nets:
        code = np.array([index[v] for v in net.names], dtype=np.int64)
        src.append(code[net.src])
        dst.append(code[net.dst])
        weights.append(net.weights)
    merged = PlaceNetwork.from_arrays(
        names, np.concatenate(src), np.concatenate(dst), np.concatenate(weights), mode=nets[0].mode
    )
    ranges = [_parse_label_range(net.label) for net in nets]
    if all(r is not None for r in ranges):
        merged.label = _date_range_label(
            min(r[0] for r in ranges), max(r[1] for r in ranges)
        )
    else:
        merged.label = "merged"
    return merged


# -- serialization ---------------------------------------------------------


def sidecar_path(path: str | Path) -> Path:
    path = Path(path)
    return path.with_name(path.stem + ".meta.json")


def write_network(net: PlaceNetwork, path: str | Path, extra_meta: dict | None = None) -> None:
    path = Path(path)
    names = net.names
    isolated = np.ones(len(names), dtype=bool)
    isolated[net.src] = False
    isolated[net.dst] = False
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("poi_a,poi_b,weight\n")
        fh.writelines(
            f"{names[a]},{names[b]},{w}\n"
            for a, b, w in zip(net.src.tolist(), net.dst.tolist(), net.weights.tolist())
        )
    meta = {
        "label": net.label,
        "mode": net.mode,
        "nodes": net.n_nodes,
        "edges": net.n_edges,
        "total_weight": net.total_weight,
        "isolated_nodes": [names[i] for i in np.flatnonzero(isolated).tolist()],
    }
    if extra_meta:
        meta.update(extra_meta)
    with open(sidecar_path(path), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_network(path: str | Path) -> PlaceNetwork:
    path = Path(path)
    net = PlaceNetwork()
    seen: set[tuple[str, str]] = set()
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "poi_a,poi_b,weight":
            raise SchemaError(f"bad network header {header!r} in {path}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise SchemaError(f"{path}:{lineno}: expected 3 fields")
            a, b, w_str = parts
            try:
                w = int(w_str)
            except ValueError:
                raise SchemaError(f"{path}:{lineno}: non-integer weight {w_str!r}") from None
            if w < 1:
                raise SchemaError(f"{path}:{lineno}: weight must be >= 1")
            if not a < b:
                raise SchemaError(f"{path}:{lineno}: rows must satisfy poi_a < poi_b")
            if (a, b) in seen:
                raise SchemaError(f"{path}:{lineno}: duplicate edge {a},{b}")
            seen.add((a, b))
            net.add_edge(a, b, w)
    meta_file = sidecar_path(path)
    if meta_file.exists():
        meta = json.loads(meta_file.read_text(encoding="utf-8"))
        net.label = meta.get("label", "")
        net.mode = meta.get("mode")
        for node in meta.get("isolated_nodes", []):
            net.add_node(node)
    return net


def weighted_csr(
    net: PlaceNetwork,
) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    """Index nodes in sorted order and return (nodes, indptr, indices, weights).

    Symmetric CSR adjacency: row i lists node i's neighbors as sorted int64
    positions in indices, and weights holds the int64 edge weight of each
    entry. Degrees are np.diff(indptr).
    """
    n = net.n_nodes
    src = np.concatenate((net.src, net.dst))
    dst = np.concatenate((net.dst, net.src))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    order = np.lexsort((dst, src))
    return list(net.names), indptr, dst[order], np.concatenate((net.weights, net.weights))[order]


def csr_adjacency(net: PlaceNetwork) -> tuple[list[str], np.ndarray, np.ndarray]:
    """(nodes, indptr, indices) of weighted_csr; the closed-form census's layout."""
    nodes, indptr, indices, _ = weighted_csr(net)
    return nodes, indptr, indices
