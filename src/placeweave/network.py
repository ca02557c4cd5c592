"""Undirected integer-weighted place networks and their file format.

A PlaceNetwork is held as arrays: its sorted node ids, the int64 codes of
each edge's endpoints into them (smaller code first, edges sorted by the
code pair) and each edge's int64 weight. Because the node ids are sorted,
code order is string order, so the edge order is the order of the
(poi_a, poi_b) string pairs. Weights count visit flows.

Every network is built by PlaceNetwork.from_arrays, which sorts edges by
the one int64 key src * n + dst and sums the weights of repeated pairs.
poi_pairs turns a SequenceTable's steps, or its co-visited POIs, into
pairs of POI codes of weight one, each tagged with its sequence;
pair_network builds the network of any subset of them, so the daily
networks and the whole-period network share one derivation. A network
file is read into arrays first. Names are attached only when a network
is written. The census and the clustering read the edge arrays as they
are; csr_adjacency builds the symmetric CSR layout for callers of
_fastcount.census_counts.

The on-disk format is a CSV edge list (poi_a,poi_b,weight, poi_a < poi_b,
rows sorted, fields unquoted) plus a JSON sidecar carrying the label, node
count, build mode and any isolated nodes.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import NETWORK_MODES, read_json
from .errors import SchemaError
from .ingest import (
    INT64,
    CsvRows,
    SequenceTable,
    _intern,
    day_date,
    group_starts,
    int_tokens,
    token_rows,
    write_json,
    write_tokens,
)

NETWORK_COLUMNS = ("poi_a", "poi_b", "weight")


def edge_key(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a < b else (b, a)


def _empty() -> np.ndarray:
    return np.zeros(0, dtype=np.int64)


def _sum_edges(
    n: int, src: np.ndarray, dst: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort edges over n nodes by the int64 key src * n + dst and sum each key's weights.

    Codes below n <= 2**31 keep the key below 2**62; equal keys may sort in
    any order, since their integer sum does not depend on it."""
    key = src * n + dst
    order = np.argsort(key)
    start = group_starts(key[order])
    first = order[start]
    return src[first], dst[first], np.add.reduceat(weights[order], start)


@dataclass(eq=False)
class PlaceNetwork:
    """Simple undirected graph over POI ids with positive integer weights.

    names holds the sorted node ids; src and dst the int64 endpoint codes
    of each edge (src < dst, edges sorted by (src, dst)); weights the int64
    weight of each edge. from_arrays builds a network from unsorted edges.
    """

    names: list[str] = field(default_factory=list)
    src: np.ndarray = field(default_factory=_empty)
    dst: np.ndarray = field(default_factory=_empty)
    weights: np.ndarray = field(default_factory=_empty)
    label: str = ""
    mode: str | None = None

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
        """A network over sorted distinct names; repeated int64 edges (src < dst) add up."""
        columns = (np.asarray(column, dtype=np.int64) for column in (src, dst, weights))
        return cls(names, *_sum_edges(len(names), *columns), label=label, mode=mode)

    def add_edge(self, a: str, b: str, weight: int = 1) -> None:
        """Add weight to the edge (a, b) and its nodes, rebuilding the arrays at once.

        No library path calls it; perfbench/test_perfbench.py builds its
        one-edge network with it.
        """
        if a == b:
            raise ValueError(f"self-loop at {a!r}")
        names = sorted(set(self.names).union((a, b)))
        index = {v: i for i, v in enumerate(names)}
        code = np.array([index[v] for v in self.names], dtype=np.int64)
        lo, hi = sorted((index[a], index[b]))
        net = PlaceNetwork.from_arrays(
            names,
            np.append(code[self.src], lo),
            np.append(code[self.dst], hi),
            np.append(self.weights, weight),
        )
        self.names, self.src, self.dst, self.weights = net.names, net.src, net.dst, net.weights

    @property
    def n_nodes(self) -> int:
        return len(self.names)

    @property
    def n_edges(self) -> int:
        return len(self.src)

    @property
    def total_weight(self) -> int:
        return int(self.weights.sum())

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


def poi_pairs(
    sequences: SequenceTable, mode: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sequence, a, b) of every weight-one pair of POI codes a < b.

    consecutive mode gives one pair per step, so one per traversal;
    covisitation mode one per unordered pair of distinct POIs a sequence
    visits. SequenceTable.steps checks the walk rules.
    """
    if mode not in NETWORK_MODES:
        raise ValueError(f"mode must be one of {NETWORK_MODES}, got {mode!r}")
    seq, position = sequences.steps()
    stays = sequences.stays.astype(np.int64)
    if mode == "consecutive":
        a, b = stays[position], stays[position + 1]
        return seq[position], np.minimum(a, b), np.maximum(a, b)
    n_pois = max(len(sequences.pois), 1)
    # np.unique with no index output uses a hash table: 0.66 s against 0.012 s
    # for this sort on 878,895 keys (numpy 2.4, 2-core host)
    key = np.sort(seq * n_pois + stays)
    key = key[group_starts(key)]  # each (sequence, POI) once
    seq, poi = key // n_pois, key % n_pois
    # each distinct POI pairs with every larger one of its sequence
    later = np.searchsorted(seq, seq, side="right") - np.arange(len(seq)) - 1
    first = np.repeat(np.arange(len(seq)), later)
    second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
    return seq[first], poi[first], poi[second]


def pair_network(
    pois: list[str], a: np.ndarray, b: np.ndarray, mode: str, label: str
) -> PlaceNetwork:
    """The network of weight-one pairs (a, b) of codes into the POI names pois.

    Its nodes are the POIs the pairs touch: under the walk rules every stay
    of a sequence is in one of its pairs.
    """
    touched = np.zeros(len(pois), dtype=bool)
    touched[a] = True
    touched[b] = True
    code = np.cumsum(touched) - 1  # POI code -> node code
    names = [pois[i] for i in np.flatnonzero(touched).tolist()]
    ones = np.ones(len(a), dtype=np.int64)
    return PlaceNetwork.from_arrays(names, code[a], code[b], ones, label=label, mode=mode)


def date_range_label(first: int, last: int) -> str:
    """The ISO date of day first, or 'first..last' when the days differ."""
    start = day_date(first).isoformat()
    return start if first == last else f"{start}..{day_date(last).isoformat()}"


# -- serialization ---------------------------------------------------------


def sidecar_path(path: str | Path) -> Path:
    path = Path(path)
    return path.with_name(path.stem + ".meta.json")


def write_network(net: PlaceNetwork, path: str | Path, extra_meta: dict | None = None) -> None:
    """Write the edge list, one poi_a,poi_b,weight line per edge in table order,
    and its sidecar (extra_meta added to it).

    The lines are tokens over one vocabulary (ingest.write_tokens): 'name,'
    for each node, used for both ends, and 'weight\n' for each distinct weight.
    """
    path = Path(path)
    names = net.names
    isolated = np.ones(len(names), dtype=bool)
    isolated[net.src] = False
    isolated[net.dst] = False
    weights, weight = int_tokens(net.weights, "\n")
    rows = token_rows((net.src, net.dst, weight), (0, 0, len(names)))
    write_tokens(path, NETWORK_COLUMNS, [name + "," for name in names] + weights, rows)
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
    write_json(meta, sidecar_path(path))


# The sidecar fields the readers use: what each must be, and its check
_SIDECAR_FIELDS = {
    "label": ("a string", lambda v: isinstance(v, str)),
    "mode": ("a string or null", lambda v: v is None or isinstance(v, str)),
    "isolated_nodes": ("a list of strings",
                       lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v)),
    "total_weight": ("an integer", lambda v: type(v) is int),  # a bool is no integer
}


def read_sidecar(path: str | Path) -> dict:
    """The sidecar of the network file path, or {} when it has none.

    Each field of _SIDECAR_FIELDS may be absent, but one that is present
    must have its type, and a consecutive-mode sidecar must hold
    total_weight, which the flow check of the motifs stage reads. A bad or
    missing field raises SchemaError naming the sidecar and the key.
    """
    meta_file = sidecar_path(path)
    if not meta_file.exists():
        return {}
    meta = read_json(meta_file, "network sidecar")
    problems = [
        f"bad {key} (must be {kind}, got {meta[key]!r})"
        for key, (kind, check) in _SIDECAR_FIELDS.items()
        if key in meta and not check(meta[key])
    ]
    if meta.get("mode") == "consecutive" and "total_weight" not in meta:
        problems.append("missing total_weight")
    if problems:
        raise SchemaError(f"network sidecar {meta_file}: {'; '.join(problems)}")
    return meta


def read_network(path: str | Path) -> PlaceNetwork:
    """The network of an edge-list file, read as write_network writes it, and its sidecar.

    Each weight, and total_weight * (nodes - 1), must fit in int64: that
    product bounds every int64 sum metrics.local_clustering takes.
    """
    edges: dict[tuple[str, str], int] = {}
    with CsvRows(path, NETWORK_COLUMNS, "network", exact=True, quoting=csv.QUOTE_NONE) as rows:
        for line, (a, b, w) in rows:
            try:
                w = int(w)
            except ValueError:
                raise rows.error(line, f"non-integer weight {w!r}") from None
            if w < 1:
                raise rows.error(line, "weight must be >= 1")
            if w > INT64.max:
                raise rows.error(line, f"weight {w} exceeds 2**63 - 1")
            if not a < b:
                raise rows.error(line, "rows must satisfy poi_a < poi_b")
            if (a, b) in edges:
                raise rows.error(line, f"duplicate edge {a},{b}")
            edges[a, b] = w
    meta = read_sidecar(path)
    names, codes = _intern([v for edge in edges for v in edge] + meta.get("isolated_nodes", []))
    total = sum(edges.values())
    if total * (len(names) - 1) > INT64.max:
        raise SchemaError(
            f"network {path}: total weight {total} times {len(names) - 1} (nodes - 1) "
            "exceeds 2**63 - 1"
        )
    ends = codes[: 2 * len(edges)].reshape(-1, 2)
    return PlaceNetwork.from_arrays(
        names, ends[:, 0], ends[:, 1], list(edges.values()),
        label=meta.get("label", ""), mode=meta.get("mode"),
    )


def csr_adjacency(net: PlaceNetwork) -> tuple[list[str], np.ndarray, np.ndarray]:
    """(nodes, indptr, indices): symmetric CSR adjacency over the sorted nodes.

    Row i lists node i's neighbors as sorted int64 codes in indices; degrees
    are np.diff(indptr). It is the layout of _fastcount.census_counts.
    """
    n = net.n_nodes
    src = np.concatenate((net.src, net.dst))
    dst = np.concatenate((net.dst, net.src))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return list(net.names), indptr, dst[np.argsort(src * n + dst)]
