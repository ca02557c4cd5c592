"""Undirected integer-weighted place networks and their file format.

Edges are keyed by the lexicographically sorted POI pair; weights count
visit flows. The on-disk format is a CSV edge list (poi_a,poi_b,weight,
poi_a < poi_b, rows sorted) plus a JSON sidecar carrying the label, node
count, build mode and any isolated nodes.
"""

from __future__ import annotations

import datetime as dt
import json
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import SchemaError
from .ingest import StaySequence

NETWORK_MODES = ("consecutive", "covisitation")


def edge_key(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a < b else (b, a)


class PlaceNetwork:
    """Simple undirected graph over POI ids with positive integer weights."""

    def __init__(
        self,
        nodes: Iterable[str] = (),
        edges: dict[tuple[str, str], int] | None = None,
        label: str = "",
        mode: str | None = None,
    ):
        self.nodes: set[str] = set(nodes)
        self.edges: dict[tuple[str, str], int] = dict(edges or {})
        self.label = label
        self.mode = mode
        self.nodes.update(n for pair in self.edges for n in pair)
        self._adj: dict[str, dict[str, int]] | None = None

    # -- construction ---------------------------------------------------

    def add_edge(self, a: str, b: str, weight: int = 1) -> None:
        if a == b:
            raise ValueError(f"self-loop at {a!r}")
        key = edge_key(a, b)
        self.edges[key] = self.edges.get(key, 0) + weight
        self.nodes.add(a)
        self.nodes.add(b)
        self._adj = None

    # -- queries ----------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def total_weight(self) -> int:
        return sum(self.edges.values())

    @property
    def adjacency(self) -> dict[str, dict[str, int]]:
        """Neighbor -> weight maps; built lazily, cached until mutation."""
        if self._adj is None:
            adj: dict[str, dict[str, int]] = {n: {} for n in self.nodes}
            for (a, b), w in self.edges.items():
                adj[a][b] = w
                adj[b][a] = w
            self._adj = adj
        return self._adj

    def neighbors(self, node: str) -> dict[str, int]:
        if node not in self.nodes:
            raise KeyError(f"unknown node {node!r}")
        return self.adjacency[node]

    def weight(self, a: str, b: str) -> int:
        return self.edges.get(edge_key(a, b), 0)

    def has_edge(self, a: str, b: str) -> bool:
        return edge_key(a, b) in self.edges

    def __eq__(self, other) -> bool:
        if not isinstance(other, PlaceNetwork):
            return NotImplemented
        return self.nodes == other.nodes and self.edges == other.edges

    def __repr__(self) -> str:
        return (
            f"PlaceNetwork(label={self.label!r}, nodes={self.n_nodes}, "
            f"edges={self.n_edges}, total_weight={self.total_weight})"
        )


def build_network(
    sequences: list[StaySequence],
    mode: str = "consecutive",
    label: str | None = None,
) -> PlaceNetwork:
    """Aggregate stay sequences into one weighted network.

    consecutive mode increments the edge of every successive stay pair by
    one per traversal; covisitation mode increments every unordered pair
    of distinct POIs seen in the same sequence by one per sequence.
    """
    if mode not in NETWORK_MODES:
        raise ValueError(f"mode must be one of {NETWORK_MODES}, got {mode!r}")
    net = PlaceNetwork(mode=mode)
    dates: list[dt.date] = []
    for seq in sequences:
        if len(seq.stays) < 2:
            raise ValueError(
                f"sequence for {seq.device_id} on {seq.local_date} has fewer than 2 stays"
            )
        dates.append(seq.local_date)
        if mode == "consecutive":
            for a, b in zip(seq.stays, seq.stays[1:]):
                if a == b:
                    raise ValueError(
                        f"consecutive duplicate stay {a!r}; collapse sequences in ingest first"
                    )
                net.add_edge(a, b)
        else:
            distinct = sorted(set(seq.stays))
            for i, a in enumerate(distinct):
                for b in distinct[i + 1 :]:
                    net.add_edge(a, b)
            net.nodes.update(distinct)
    if label is None and dates:
        label = _date_range_label(min(dates), max(dates))
    net.label = label or ""
    return net


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
    merged = PlaceNetwork(mode=nets[0].mode)
    for net in nets:
        merged.nodes.update(net.nodes)
        for key, w in net.edges.items():
            merged.edges[key] = merged.edges.get(key, 0) + w
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
    isolated = sorted(net.nodes - {n for pair in net.edges for n in pair})
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("poi_a,poi_b,weight\n")
        for (a, b), w in sorted(net.edges.items()):
            fh.write(f"{a},{b},{w}\n")
    meta = {
        "label": net.label,
        "mode": net.mode,
        "nodes": net.n_nodes,
        "edges": net.n_edges,
        "total_weight": net.total_weight,
        "isolated_nodes": isolated,
    }
    if extra_meta:
        meta.update(extra_meta)
    with open(sidecar_path(path), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_network(path: str | Path) -> PlaceNetwork:
    path = Path(path)
    net = PlaceNetwork()
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
            if (a, b) in net.edges:
                raise SchemaError(f"{path}:{lineno}: duplicate edge {a},{b}")
            net.edges[(a, b)] = w
            net.nodes.add(a)
            net.nodes.add(b)
    meta_file = sidecar_path(path)
    if meta_file.exists():
        meta = json.loads(meta_file.read_text(encoding="utf-8"))
        net.label = meta.get("label", "")
        net.mode = meta.get("mode")
        net.nodes.update(meta.get("isolated_nodes", []))
    return net


def weighted_csr(
    net: PlaceNetwork,
) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    """Index nodes in sorted order and return (nodes, indptr, indices, weights).

    Symmetric CSR adjacency: row i lists node i's neighbors as sorted int64
    positions in indices, and weights holds the int64 edge weight of each
    entry. Degrees are np.diff(indptr).
    """
    nodes = sorted(net.nodes)
    index = {node: i for i, node in enumerate(nodes)}
    m = len(net.edges)
    ends = np.fromiter(
        (index[v] for edge in net.edges for v in edge), dtype=np.int64, count=2 * m
    ).reshape(m, 2)
    w = np.fromiter(net.edges.values(), dtype=np.int64, count=m)
    src = np.concatenate((ends[:, 0], ends[:, 1]))
    dst = np.concatenate((ends[:, 1], ends[:, 0]))
    indptr = np.zeros(len(nodes) + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=len(nodes)), out=indptr[1:])
    order = np.lexsort((dst, src))
    return nodes, indptr, dst[order], np.concatenate((w, w))[order]


def csr_adjacency(net: PlaceNetwork) -> tuple[list[str], np.ndarray, np.ndarray]:
    """(nodes, indptr, indices) of weighted_csr; the census engines' layout."""
    nodes, indptr, indices, _ = weighted_csr(net)
    return nodes, indptr, indices
