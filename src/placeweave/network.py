"""Undirected integer-weighted place networks and their file format.

A PlaceNetwork is held as arrays: its sorted node ids, the int64 codes of
each edge's endpoints into them (smaller code first, edges sorted by the
code pair) and each edge's int64 weight. Because the node ids are sorted,
code order is string order, so the edge order is the order of the
(poi_a, poi_b) string pairs. Weights count visit flows.

day_networks builds every daily network and the whole-period one from a
SequenceTable with one sort of (day, edge) keys, each network straight
from its sorted distinct edges. PlaceNetwork.from_arrays builds one from
unsorted edges (a network file, a reference network), sorting them by
the int64 key src * n + dst and summing repeated pairs. The census and
the clustering read the edge arrays as they are; csr_adjacency builds the
symmetric CSR layout for callers of _fastcount.census_counts.

The on-disk format is a CSV edge list (poi_a,poi_b,weight, poi_a < poi_b,
rows sorted, fields unquoted) plus a JSON sidecar carrying the label, node
count, build mode and any isolated nodes. read_network reads the edge list
in np.loadtxt blocks (ingest.CsvRows.blocks) and checks its rules over whole
arrays; a file that fails either is read again row by row, which words the
error. Both paths intern ids as ingest's readers do, keeping their spaces.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from .config import NETWORK_MODES, read_json
from .errors import SchemaError
from .ingest import (
    INT64,
    CodeIndex,
    CsvRows,
    SequenceTable,
    _block_codes,
    _intern,
    _sorted_codes,
    day_date,
    exact_sum,
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
        names, code = _intern([*self.names, a, b])
        lo, hi = sorted(code[-2:].tolist())
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


def day_networks(sequences: SequenceTable, mode: str) -> tuple[Iterator[PlaceNetwork], PlaceNetwork]:
    """The network of each local date, built as it is iterated, and the merged network.

    A pair of POI codes a < b is a walk step (consecutive mode) or two distinct
    POIs of a sequence (covisitation); SequenceTable.steps checks the walk rules.
    One sort of day * n_edges + edge (the pair's day and edge a * n_pois + b as
    indices among the distinct ones) gives the daily edges and weights in order;
    node codes keep POI order, so no network re-sorts its edges. Per-pair arrays
    are freed once used: at 1M device-days that keeps tens of MB off the heap.
    """
    if mode not in NETWORK_MODES:
        raise ValueError(f"mode must be one of {NETWORK_MODES}, got {mode!r}")
    n_pois = max(len(sequences.pois), 1)

    def network(edge: np.ndarray, weights: np.ndarray, label: str) -> PlaceNetwork:
        a, b = divmod(edges[edge], n_pois)
        touched = np.zeros(n_pois, dtype=bool)
        touched[a] = touched[b] = True
        code = np.cumsum(touched) - 1  # POI code -> node code
        names = [sequences.pois[i] for i in np.flatnonzero(touched).tolist()]
        return PlaceNetwork(names, code[a], code[b], weights, label=label, mode=mode)

    seq, position = sequences.steps()
    stays = sequences.stays.astype(np.int64)
    if mode == "consecutive":
        a, b = stays[position], stays[position + 1]
        seq, a, b = seq[position], np.minimum(a, b), np.maximum(a, b)
    else:
        # np.unique with no index output uses a hash table: 0.66 s against 0.012 s
        # for this sort on 878,895 keys (numpy 2.4, 2-core host)
        key = np.sort(seq * n_pois + stays)
        seq, poi = divmod(key[group_starts(key)], n_pois)  # each (sequence, POI) once
        # each distinct POI pairs with every larger one of its sequence
        later = np.searchsorted(seq, seq, side="right") - np.arange(len(seq)) - 1
        first = np.repeat(np.arange(len(seq)), later)
        second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
        seq, a, b = seq[first], poi[first], poi[second]
        del key, poi, later, first, second
    del position, stays
    days, day = np.unique(sequences.day, return_inverse=True)
    edges, edge = np.unique(a * n_pois + b, return_inverse=True)
    del a, b
    merged = network(np.arange(len(edges)), np.bincount(edge), date_range_label(days[0], days[-1]))
    # Local dates lie in 0001..9999 (ingest.local_days), so a day index is below
    # 2**22, and an edge index below the pair count: the key fits in int64 for
    # any pair array below 2**41 entries.
    key = np.sort(day[seq] * len(edges) + edge)
    del seq, day, edge
    start = group_starts(key)
    day, day_edge = divmod(key[start], len(edges))
    weights = np.diff(start, append=len(key))
    bounds = np.searchsorted(day, np.arange(len(days) + 1)).tolist()
    daily = (
        network(day_edge[lo:hi], weights[lo:hi], date_range_label(d, d))
        for d, lo, hi in zip(days.tolist(), bounds, bounds[1:])
    )
    return daily, merged


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


def _checked_edges(rows: CsvRows) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The sorted distinct endpoint ids, each row's (poi_a, poi_b) codes into
    them and its int64 weight, read row by row; the first bad row raises RowError."""
    edges: dict[tuple[str, str], int] = {}
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
    names, codes = _intern([v for edge in edges for v in edge])
    return names, codes.reshape(-1, 2), np.array(list(edges.values()), dtype=np.int64)


def _bulk_edges(rows: CsvRows) -> tuple[list[str], np.ndarray, np.ndarray] | None:
    """What _checked_edges returns, read in CsvRows.blocks, or None when a block
    is irregular or a row breaks a rule: a weight below 1, poi_a >= poi_b or a
    repeated pair.

    Both endpoint columns are interned through one CodeIndex across the
    blocks; the ids are sorted once at the end, so code order is id order.
    """
    index = CodeIndex()
    ends, weights = [], []
    for block in rows.blocks((object, object, np.int64)):
        if block is None:
            return None
        a, b = (_block_codes(index, block[column].tolist()) for column in NETWORK_COLUMNS[:2])
        ends.append(np.stack((a, b), axis=1))
        weights.append(block["weight"].copy())
        del block  # the next block's strings replace this one's
    ids = list(index)  # in code order
    del index
    names, ends = _sorted_codes(ids, ends)
    weight = np.concatenate(weights)
    if (weight < 1).any() or (ends[:, 0] >= ends[:, 1]).any():
        return None
    key = ends[:, 0].astype(np.int64) * len(names) + ends[:, 1]
    # a file write_network wrote is in key order, and needs no sort to show its pairs distinct
    if not (key[1:] > key[:-1]).all() and len(group_starts(np.sort(key))) < len(key):
        return None
    return names, ends, weight


def read_network(path: str | Path) -> PlaceNetwork:
    """The network of an edge-list file, read as write_network writes it, and its sidecar.

    The file is read in np.loadtxt blocks; a file the blocks cannot read, or
    with a row that breaks a rule, is read again row by row, so the first bad
    row raises RowError naming the file and line. Each weight, and
    total_weight * (nodes - 1), must fit in int64: that product bounds every
    int64 sum metrics.local_clustering takes.
    """
    with CsvRows(path, NETWORK_COLUMNS, "network", exact=True, quoting=csv.QUOTE_NONE) as rows:
        edges = _bulk_edges(rows)
        names, ends, weights = _checked_edges(rows) if edges is None else edges
    meta = read_sidecar(path)
    if meta.get("isolated_nodes"):
        names, remap = _intern(names + meta["isolated_nodes"])
        ends = remap[ends]  # the codes of names lead remap
    total = exact_sum(weights)
    if total * (len(names) - 1) > INT64.max:
        raise SchemaError(
            f"network {path}: total weight {total} times {len(names) - 1} (nodes - 1) "
            "exceeds 2**63 - 1"
        )
    return PlaceNetwork.from_arrays(
        names, ends[:, 0], ends[:, 1], weights,
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
