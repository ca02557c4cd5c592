"""Independent reference implementations the tests check the library against.

Everything here is deliberately direct: permutation isomorphism, full
subset scans, the ESU subgraph walk, direct formula summation, over dicts
built from a network's names, src, dst and weights arrays; float64
matrix products over its dense adjacency; the great-circle formula in
scalar Python floats; and synthetic traffic drawn
from one default_rng([seed, i]) per device-day. None of it shares code
with the library paths under test.

The table builders at the top are not oracles: they let tests state a
network, sequences, stops or a POI catalog as plain tuples and build the
table through the library's own constructors (PlaceNetwork.from_arrays,
the SequenceTable fields, parse_stops, load_poi_catalog), and walks reads
a SequenceTable back as tuples. build_network, after them, is an oracle: a
dict count of each walk's steps, or of the pairs of its distinct POIs,
labelled with the table's date range. The helpers after it are not:
node_code finds a node in a network's sorted names; degree counts a
node's entries in the edge arrays; and local_clustering_weighted reads one
node's value from the library's local_clustering. local_date is the
datetime reading of a stop's local date that ingest.local_days computes
in bulk. census_classes indexes a census document's rows by class. intern
is the readers' id interning done directly: a sort of the distinct ids and
a dict of each one's position.
"""

from __future__ import annotations

import csv
import datetime as dt
import functools
import io
import itertools
import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from placeweave.errors import RowError
from placeweave.ingest import EPOCH, SequenceTable, load_poi_catalog, parse_stops
from placeweave.metrics import DegreeHistogram, PowerLawFit, fit_power_law, local_clustering
from placeweave.motifs import MotifClass, classify_graph
from placeweave.network import PlaceNetwork
from placeweave.stats import EARTH_RADIUS_KM
from placeweave.synth import CLASS_WALKS, DeviceDayPlan


# -- tables built through the library's constructors ---------------------------


class Walk(NamedTuple):
    """One sequence as walks gives it (and equal to that tuple)."""

    device_id: str
    local_date: dt.date
    stays: tuple


class Stop(NamedTuple):
    """One stop as stop_rows gives it (and equal to that tuple)."""

    device_id: str
    poi_id: str
    start_time: int
    dwell: int


def network(edges: Mapping, nodes: Iterable[str] = (), label="", mode=None) -> PlaceNetwork:
    """PlaceNetwork.from_arrays over {(a, b): weight} (ends in either order) plus nodes."""
    names = sorted({*nodes, *(v for edge in edges for v in edge)})
    code = {v: i for i, v in enumerate(names)}
    ends = np.array([sorted((code[a], code[b])) for a, b in edges], dtype=np.int64).reshape(-1, 2)
    weights = np.array(list(edges.values()), dtype=np.int64)
    return PlaceNetwork.from_arrays(names, ends[:, 0], ends[:, 1], weights, label=label, mode=mode)


def sequence_table(walks: Iterable) -> SequenceTable:
    """The SequenceTable of (device_id, local_date, stays) walks, in their order."""
    walks = list(walks)
    devices = sorted({device for device, _, _ in walks})
    pois = sorted({poi for _, _, stays in walks for poi in stays})
    device_code = {v: i for i, v in enumerate(devices)}
    poi_code = {v: i for i, v in enumerate(pois)}
    offsets = np.zeros(len(walks) + 1, dtype=np.int64)
    np.cumsum([len(stays) for _, _, stays in walks], out=offsets[1:])
    return SequenceTable(
        devices,
        pois,
        np.array([device_code[device] for device, _, _ in walks], dtype=np.int32),
        np.array([(day - EPOCH).days for _, day, _ in walks], dtype=np.int64),
        offsets,
        np.array([poi_code[poi] for _, _, stays in walks for poi in stays], dtype=np.int32),
    )


def walks(table: SequenceTable) -> list[Walk]:
    """(device_id, local_date, stays) per sequence of a SequenceTable; one date object per day."""
    days = table.day.tolist()
    dates = {d: EPOCH + dt.timedelta(days=d) for d in set(days)}
    names = np.array(table.pois, dtype=object)[table.stays].tolist()
    bounds = table.offsets.tolist()
    return [
        Walk(table.devices[device], dates[day], tuple(names[bounds[i] : bounds[i + 1]]))
        for i, (device, day) in enumerate(zip(table.device.tolist(), days))
    ]


def stop_table(stops: Iterable):
    """The StopTable parse_stops reads from these (device_id, poi_id, start_time, dwell) rows."""
    return parse_stops(io.StringIO(stops_csv_text(stops)))


def stop_rows(table) -> list[tuple]:
    """(device_id, poi_id, start_time, dwell) of each stop of a StopTable, in order."""
    columns = (table.device, table.poi, table.start_time, table.dwell)
    return [
        (table.devices[d], table.pois[p], t, w)
        for d, p, t, w in zip(*(column.tolist() for column in columns))
    ]


def stops_csv_text(stops: Iterable) -> str:
    """stops.csv holding these (device_id, poi_id, start_time, dwell) rows, in order."""
    rows = [f"{device},{poi},{start},{dwell}\n" for device, poi, start, dwell in stops]
    return "device_id,poi_id,start_time,dwell\n" + "".join(rows)


def catalog(rows: Iterable):
    """The PoiCatalog load_poi_catalog reads from these (poi_id, name, lat, lon, naics) rows."""
    lines = [f"{poi},{name},{lat!r},{lon!r},{naics}\n" for poi, name, lat, lon, naics in rows]
    return load_poi_catalog(io.StringIO("poi_id,name,lat,lon,naics\n" + "".join(lines)))


# -- whole-table networks, one node's degree and clustering, local dates ---------


def build_network(
    sequences: SequenceTable, mode: str = "consecutive", label: str | None = None
) -> PlaceNetwork:
    """Each walk's steps, or pairs of its distinct POIs, counted in a dict;
    the label defaults to the date range."""
    edges: Counter = Counter()
    for walk in walks(sequences):
        if mode == "consecutive":
            edges.update(tuple(sorted(step)) for step in zip(walk.stays, walk.stays[1:]))
        else:
            edges.update(itertools.combinations(sorted(set(walk.stays)), 2))
    if label is None and len(sequences):
        first, last = (EPOCH + dt.timedelta(days=int(f(sequences.day))) for f in (min, max))
        label = first.isoformat() if first == last else f"{first.isoformat()}..{last.isoformat()}"
    return network(edges, label=label or "", mode=mode)


def node_code(net: PlaceNetwork, node: str) -> int:
    """The code of node in net.names; KeyError for a node not in the network."""
    names = net.names
    i = bisect_left(names, node)
    if i == len(names) or names[i] != node:
        raise KeyError(f"unknown node {node!r}")
    return i


def degree(net: PlaceNetwork, node: str) -> int:
    """Number of distinct neighbors; weights play no role."""
    code = node_code(net, node)
    return int(np.count_nonzero(net.src == code) + np.count_nonzero(net.dst == code))


def local_clustering_weighted(net: PlaceNetwork, node: str) -> float:
    """Barrat weighted clustering of one node; 0 when degree < 2."""
    return float(local_clustering(net)[node_code(net, node)])


def local_date(start_time: int, utc_offset: float) -> dt.date:
    """The date of start_time (UTC epoch seconds) in the timezone utc_offset hours from UTC."""
    tz = dt.timezone(dt.timedelta(hours=utc_offset))
    return dt.datetime.fromtimestamp(start_time, tz).date()


def intern(values: list[str]) -> tuple[list[str], np.ndarray]:
    """Sorted distinct values and the int32 code of each value."""
    names = sorted(dict.fromkeys(values))
    index = {v: i for i, v in enumerate(names)}
    codes = np.fromiter(map(index.__getitem__, values), dtype=np.int32, count=len(values))
    return names, codes


def census_classes(doc: dict) -> dict[MotifClass, dict]:
    """The class rows of a census document (census.json), by class."""
    return {MotifClass(row["class"]): row for row in doc["classes"]}


# -- CSV files read and formatted one row at a time --------------------------------
# The stops parse with csv.reader and the row formatters the file writers had
# before they became token writers; the writers must give these bytes.


def csv_stop_rows(text: str, where: str = "stops file") -> list[Stop]:
    """The stops of a stops file's text as parse_stops gives them, read with
    csv.reader one row at a time.

    Ids are stripped of surrounding whitespace and a repeated column's last
    field wins. A row that is not blank and has fewer fields than the header,
    an empty id, a device id holding a line break, a field int() rejects, a
    negative dwell or a value outside int64 raises RowError(where, line),
    line being the row's first physical line.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, [])
    last = {name: i for i, name in enumerate(header)}
    index = [last[c] for c in ("device_id", "poi_id", "start_time", "dwell")]
    stops = []
    while True:
        line = reader.line_num + 1  # the record's first line
        row = next(reader, None)
        if row is None:
            return stops
        if not row:
            continue
        if len(row) < len(header):
            raise RowError(where, line, "wrong number of fields")
        device, poi, start, dwell = (row[i] for i in index)
        device, poi = device.strip(), poi.strip()
        if not device or "\r" in device or "\n" in device or not poi:
            raise RowError(where, line, "bad id")
        try:
            start, dwell = int(start), int(dwell)
        except ValueError:
            raise RowError(where, line, "non-integer field") from None
        if dwell < 0 or not -(2**63) <= start < 2**63 or dwell >= 2**63:
            raise RowError(where, line, "integer field out of range")
        stops.append(Stop(device, poi, start, dwell))


def format_sequences(sequences) -> str:
    """sequences.csv of a SequenceTable: csv.writer rows of device, date and '|'-joined stays."""
    out = io.StringIO(newline="")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("device_id", "local_date", "stays"))
    writer.writerows(
        (device, day.isoformat(), "|".join(stays)) for device, day, stays in walks(sequences)
    )
    return out.getvalue()


def format_network(net) -> str:
    """A network's edge-list file: one 'poi_a,poi_b,weight' line per edge in table order."""
    names = net.names
    rows = zip(net.src.tolist(), net.dst.tolist(), net.weights.tolist())
    return "poi_a,poi_b,weight\n" + "".join(f"{names[a]},{names[b]},{w}\n" for a, b, w in rows)


def format_instances(rows) -> str:
    """instances.csv of an InstanceRows, a day at a time: its table rows, then its OTHER rows."""
    from placeweave.motifs import INDEX_CLASS

    lines = ["local_date,motif_class,nodes,edges,device_count\n"]
    table = rows.table
    columns = [c.tolist() for c in (table.cls, table.nodes, table.mask, table.count)]
    for day in sorted(set(rows.day.tolist()) | {row[0] for row in rows.other}):
        date = (EPOCH + dt.timedelta(days=day)).isoformat()
        for d, cls, nodes, mask, count in zip(rows.day.tolist(), *columns):
            if d == day:
                names = [rows.pois[v] for v in nodes if v >= 0]
                pairs = [SLOT_PAIRS[bit] for bit in range(6) if mask >> bit & 1]
                edges = ";".join(f"{names[a]}|{names[b]}" for a, b in pairs)
                lines.append(f"{date},{INDEX_CLASS[cls]},{'|'.join(names)},{edges},{count}\n")
        for d, names, pairs, count in rows.other:
            if d == day:
                edges = ";".join(f"{a}|{b}" for a, b in pairs)
                lines.append(f"{date},OTHER,{'|'.join(names)},{edges},{count}\n")
    return "".join(lines)


def format_stops(stops) -> str:
    """stops.csv of a StopTable: one 'device_id,poi_id,start_time,dwell' line per stop."""
    return stops_csv_text(stop_rows(stops))


# -- dict views of a network ---------------------------------------------------


def edge_weights(net) -> dict:
    """{(poi_a, poi_b): weight} of every edge, poi_a < poi_b, from the network's arrays."""
    names = net.names
    return {
        (names[a], names[b]): w
        for a, b, w in zip(net.src.tolist(), net.dst.tolist(), net.weights.tolist())
    }


def adjacency(net) -> dict:
    """Neighbor -> weight map of every node, isolated nodes included."""
    adj: dict = {v: {} for v in net.names}
    for (a, b), w in edge_weights(net).items():
        adj[a][b] = w
        adj[b][a] = w
    return adj


def _parse_label_range(label: str) -> tuple[dt.date, dt.date] | None:
    """(first, last) date of a "DATE" or "DATE..DATE" label, or None."""
    try:
        if ".." in label:
            a, b = label.split("..", 1)
            return dt.date.fromisoformat(a), dt.date.fromisoformat(b)
        d = dt.date.fromisoformat(label)
        return d, d
    except ValueError:
        return None


def merge_networks(nets: list) -> PlaceNetwork:
    """Node union and edge-weight sum; label covers the merged date range, else "merged"."""
    if not nets:
        raise ValueError("cannot merge an empty list of networks")
    weights: Counter = Counter()
    for net in nets:
        weights.update(edge_weights(net))
    ranges = [_parse_label_range(net.label) for net in nets]
    if all(r is not None for r in ranges):
        first, last = min(r[0] for r in ranges), max(r[1] for r in ranges)
        label = first.isoformat() if first == last else f"{first.isoformat()}..{last.isoformat()}"
    else:
        label = "merged"
    nodes = set().union(*(net.names for net in nets))
    return network(weights, nodes=nodes, label=label, mode=nets[0].mode)


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


def copy_table() -> Counter:
    """(p, f) -> how many subsets of reference graph f's edges some
    permutation of f's vertices maps onto the edges of reference graph p."""
    table: Counter = Counter()
    for f, (n, f_edges) in REFERENCE_GRAPHS.items():
        for r in range(1, len(f_edges) + 1):
            for sub in itertools.combinations(sorted(f_edges), r):
                for p, (size, p_edges) in REFERENCE_GRAPHS.items():
                    if size == n and graphs_isomorphic(n, sub, p_edges):
                        table[p, f] += 1
    return table


def brute_force_enumerate(net, k: int) -> dict[MotifClass, int]:
    """Scan every C(n, k) vertex subset; count connected induced subgraphs.

    Classification of each subset reuses the library classifier, which the
    permutation oracle above validates exhaustively; the enumeration logic
    itself (subset scan + induced edges) stays independent.
    """
    adj = adjacency(net)
    counts: dict[MotifClass, int] = {}
    for subset in itertools.combinations(net.names, k):
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


def product_four_cliques(net) -> int:
    """The 4-cliques as sum((B @ B) * B) in float64, over each node's later neighbours.

    Nodes are ranked by (degree, index) and B is the upper-triangular 0/1
    adjacency among a node's higher-ranked neighbours, so each 4-clique
    a < b < c < d is a triangle b, c, d counted once, at a. Every sum is an
    integer far below 2**53, so the float64 count is exact.
    """
    n = net.n_nodes
    adj = np.zeros((n, n))
    adj[net.src, net.dst] = adj[net.dst, net.src] = 1
    rank = np.lexsort((np.arange(n), adj.sum(axis=1)))
    adj = adj[np.ix_(rank, rank)]
    total = 0
    for a in range(n):
        later = np.flatnonzero(adj[a, a + 1 :]) + a + 1
        b = np.triu(adj[np.ix_(later, later)], 1)
        total += int(((b @ b) * b).sum())
    return total


def shared_columns(rows, cols, n_rows, width, a, b) -> np.ndarray:
    """Columns rows a[p] and b[p] share, of the n_rows x width 0/1 matrix
    with ones at (rows, cols): the dense matrix's row products, summed."""
    ones = np.zeros((n_rows, width), dtype=np.int64)
    ones[rows, cols] = 1
    return (ones[a] * ones[b]).sum(axis=1, dtype=np.int64)


# -- ESU: the second enumeration oracle ------------------------------------------


@dataclass(frozen=True)
class MotifInstance:
    """One occurrence: a vertex set with its (induced or traversed) edges.

    Canonical form, fixed by instance_from_edges: nodes sorted and
    distinct, edges a sorted tuple of distinct sorted pairs.
    """

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    motif_class: MotifClass


def instance_from_edges(nodes: Iterable[str], edges: Iterable[tuple[str, str]]) -> MotifInstance:
    nodes = tuple(sorted(set(nodes)))
    edges = tuple(sorted({(min(a, b), max(a, b)) for a, b in edges}))
    if 2 <= len(nodes) <= 4:
        cls = classify_graph(len(nodes), edges)
    else:
        cls = MotifClass.OTHER
    return MotifInstance(nodes, edges, cls)


def iter_connected_subsets(adj: Mapping, k: int) -> Iterator[tuple]:
    """Yield every connected k-subset of the graph exactly once (ESU).

    Nodes must be mutually comparable; subsets come out rooted at their
    minimum vertex via the exclusive-neighborhood rule, in deterministic
    order.
    """
    if k < 1:
        raise ValueError("k must be positive")
    for v in sorted(adj):
        if k == 1:
            yield (v,)
            continue
        ext = sorted(u for u in adj[v] if u > v)
        yield from _esu_extend(adj, (v,), ext, v, k)


def _esu_extend(adj: Mapping, sub: tuple, ext: list, root, k: int) -> Iterator[tuple]:
    if len(sub) + 1 == k:
        for w in ext:
            yield sub + (w,)
        return
    hood = set(sub)
    for u in sub:
        hood.update(adj[u])
    for i, w in enumerate(ext):
        grown = ext[i + 1 :] + sorted(
            u for u in adj[w] if u > root and u not in hood
        )
        yield from _esu_extend(adj, sub + (w,), grown, root, k)


def iter_induced_instances(net, k: int) -> Iterator[MotifInstance]:
    """Stream the node-induced connected k-subgraphs of a network."""
    if k not in (2, 3, 4):
        raise ValueError(f"k must be 2, 3 or 4, got {k}")
    adj = adjacency(net)
    for sub in iter_connected_subsets(adj, k):
        edges = [
            (a, b)
            for i, a in enumerate(sub)
            for b in sub[i + 1 :]
            if b in adj[a]
        ]
        yield instance_from_edges(sub, edges)


def esu_enumerate(net, k: int) -> dict[MotifClass, int]:
    """Per-class counts of the ESU stream: enumerate_induced's contract, one subgraph at a time."""
    return dict(Counter(inst.motif_class for inst in iter_induced_instances(net, k)))


def brute_force_barrat(net, node: str) -> float:
    """Direct ordered-pair evaluation of the weighted clustering formula."""
    adj = adjacency(net)
    nbrs = adj[node]
    k = len(nbrs)
    if k < 2:
        return 0.0
    strength = sum(nbrs.values())
    acc = 0.0
    for j in nbrs:
        for h in nbrs:
            if j == h:
                continue
            if h in adj[j]:
                acc += (nbrs[j] + nbrs[h]) / 2.0
    return acc / (strength * (k - 1))


def exact_barrat(net, node: str) -> float:
    """Weighted clustering with an exact integer numerator.

    Sums w_ij + w_ih over unordered connected neighbor pairs in Python ints
    and divides once, so the result is the correctly rounded quotient: the
    bits any exact evaluation of the formula must reproduce.
    """
    adj = adjacency(net)
    nbrs = adj[node]
    k = len(nbrs)
    if k < 2:
        return 0.0
    numerator = sum(
        nbrs[j] + nbrs[h]
        for j, h in itertools.combinations(sorted(nbrs), 2)
        if h in adj[j]
    )
    return numerator / (sum(nbrs.values()) * (k - 1))


def scipy_local_clustering(net) -> tuple[list[str], np.ndarray]:
    """Barrat clustering of every node from scipy's sparse product: the reference bits.

    The numerator is the row sum of W o (A @ A), an exact int64, divided
    once by s_i * (k_i - 1); nodes of degree < 2 get 0.
    """
    import scipy.sparse as sp

    n = net.n_nodes
    ends = (np.concatenate((net.src, net.dst)), np.concatenate((net.dst, net.src)))
    weights = np.concatenate((net.weights, net.weights)).astype(np.int64)
    adj = sp.csr_matrix((np.ones_like(weights), ends), shape=(n, n))
    wts = sp.csr_matrix((weights, ends), shape=(n, n))
    deg = np.diff(adj.indptr)
    numerator = (adj @ adj).multiply(wts).sum(axis=1).A1
    denominator = wts.sum(axis=1).A1 * (deg - 1)
    local = np.zeros(n)
    np.divide(numerator, denominator, out=local, where=deg >= 2)
    return list(net.names), local


def brute_force_unweighted_clustering(net, node: str) -> float:
    """Triangle count over possible neighbor pairs, ignoring weights."""
    adj = adjacency(net)
    nbrs = sorted(adj[node])
    k = len(nbrs)
    if k < 2:
        return 0.0
    triangles = sum(
        1
        for i, j in itertools.combinations(nbrs, 2)
        if j in adj[i]
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


# -- the great-circle distance of two points, in Python floats --------------------


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle km between two degree coordinates, one scalar call at a time.

    The bit reference for stats' array kernel, with its range checks and
    messages: the haversine's asin form within a quarter circle, Vincenty's
    atan2 form beyond it, where asin of a value near 1 loses digits.
    """
    for lat in (lat1, lat2):
        if not (math.isfinite(lat) and -90.0 <= lat <= 90.0):
            raise ValueError(f"latitude {lat} out of range [-90, 90]")
    for lon in (lon1, lon2):
        if not (math.isfinite(lon) and -180.0 <= lon <= 180.0):
            raise ValueError(f"longitude {lon} out of range [-180, 180]")
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    cos1, cos2 = math.cos(phi1), math.cos(phi2)
    dlam = math.radians(lon2 - lon1)
    a = math.sin((phi2 - phi1) / 2.0) ** 2 + cos1 * cos2 * math.sin(dlam / 2.0) ** 2
    if a <= 0.5:
        return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(a)))
    y = math.hypot(
        cos2 * math.sin(dlam), cos1 * math.sin(phi2) - math.sin(phi1) * cos2 * math.cos(dlam)
    )
    x = math.sin(phi1) * math.sin(phi2) + cos1 * cos2 * math.cos(dlam)
    return EARTH_RADIUS_KM * math.atan2(y, x)


# -- the per-instance dict path -------------------------------------------------
#
# One MotifInstance object, dict entry and scalar distance or key per
# instance: the form the instance table had before it became columnar. Sums
# run left to right in instance order, so these reproduce the library's
# floats bit for bit. They share with the library only classify_graph
# (through instance_from_edges; checked against the permutation oracle)
# and to_sector; distances come from haversine_km above. A POI's
# coordinates and sector are looked up by name in a dict of the catalog's
# id, coordinate and NAICS columns, never through its sector column.


@functools.lru_cache(maxsize=4)
def poi_by_name(catalog) -> dict:
    """poi_id -> (lat, lon, naics) of each POI in a PoiCatalog."""
    columns = (catalog.lat.tolist(), catalog.lon.tolist(), catalog.naics)
    return dict(zip(catalog.poi_ids, zip(*columns)))


@dataclass
class InstanceRecord:
    device_count: int = 0
    weekday_count: int = 0
    weekend_count: int = 0


def instance_order(inst) -> tuple:
    return (inst.motif_class.value, inst.nodes, inst.edges)


def trajectory_instance(stays):
    """Graph traced by one walk: its distinct stays and deduplicated steps."""
    return instance_from_edges(stays, zip(stays, stays[1:]))


def read_instance_rows(path) -> list:
    """(local_date, MotifInstance, device_count) rows of an instances.csv, as written."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        assert next(fh) == "local_date,motif_class,nodes,edges,device_count\n"
        for line in fh:
            day, cls, nodes, edges, count = line.rstrip("\n").split(",")
            inst = MotifInstance(
                tuple(nodes.split("|")),
                tuple(tuple(pair.split("|")) for pair in edges.split(";")),
                MotifClass(cls),
            )
            rows.append((dt.date.fromisoformat(day), inst, int(count)))
    return rows


def aggregate_instances(rows) -> dict:
    """Per-instance device, weekday and weekend counts, in first-row order."""
    agg: dict = {}
    for day, inst, count in rows:
        rec = agg.setdefault(inst, InstanceRecord())
        rec.device_count += count
        if day.weekday() >= 5:
            rec.weekend_count += count
        else:
            rec.weekday_count += count
    return agg


def motif_avg_distance(instance, catalog) -> float:
    """Sum of edge great-circle lengths divided by the edge count."""
    from placeweave.errors import MissingPoiError

    if not instance.edges:
        raise ValueError("instance has no edges")
    pois = poi_by_name(catalog)
    total = 0.0
    for a, b in instance.edges:
        ra, rb = pois.get(a), pois.get(b)
        if ra is None or rb is None:
            missing = a if ra is None else b
            raise MissingPoiError(f"poi_id {missing!r} has no coordinates in the catalog")
        total += haversine_km(ra[0], ra[1], rb[0], rb[1])
    return total / len(instance.edges)


def instance_distances(instances, catalog) -> dict:
    return {
        inst: motif_avg_distance(inst, catalog)
        for inst in instances
        if inst.motif_class is not MotifClass.OTHER
    }


def class_avg_distance(instances, distances, weighting="devices", key_fn=None) -> dict:
    """key -> (total_km, weekday_km, weekend_km), each None without weight.

    devices weighting counts an instance once per covering device-day,
    instances weighting once per instance (day-type splits by presence on
    that day type); key_fn regroups instances, the class by default.
    """
    if weighting not in ("devices", "instances"):
        raise ValueError(f"unknown weighting {weighting!r}")
    sums: dict = {}
    for inst in sorted(instances, key=instance_order):
        if inst.motif_class is MotifClass.OTHER:
            continue
        rec = instances[inst]
        key = inst.motif_class if key_fn is None else key_fn(inst)
        km = distances[inst]
        if weighting == "devices":
            weights = (rec.device_count, rec.weekday_count, rec.weekend_count)
        else:
            weights = (1, min(rec.weekday_count, 1), min(rec.weekend_count, 1))
        acc = sums.setdefault(key, [0.0, 0, 0.0, 0, 0.0, 0])
        for slot, w in enumerate(weights):
            acc[2 * slot] += km * w
            acc[2 * slot + 1] += w
    return {
        key: tuple(acc[i] / acc[i + 1] if acc[i + 1] else None for i in (0, 2, 4))
        for key, acc in sums.items()
    }


def _degrees(instance) -> dict:
    deg = {v: 0 for v in instance.nodes}
    for a, b in instance.edges:
        deg[a] += 1
        deg[b] += 1
    return deg


def _adjacency(instance) -> dict:
    adj: dict = {v: set() for v in instance.nodes}
    for a, b in instance.edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def _cycle_order(instance) -> list:
    adj = _adjacency(instance)
    order = [instance.nodes[0]]
    prev = None
    while len(order) < len(instance.nodes):
        nxt = min(u for u in adj[order[-1]] if u != prev)
        prev = order[-1]
        order.append(nxt)
    return order


def _path_order(instance) -> list:
    adj = _adjacency(instance)
    deg = _degrees(instance)
    order = [min(v for v in instance.nodes if deg[v] == 1)]
    prev = None
    while len(order) < len(instance.nodes):
        nxt = next(u for u in adj[order[-1]] if u != prev)
        prev = order[-1]
        order.append(nxt)
    return order


def canonical_key(instance, catalog):
    """Automorphism-invariant sector-label sequence of one instance.

    Chains run end to end (minimum of the sequence and its reverse), stars
    and tailed shapes order by role (tail, hub, then interchangeable
    positions sorted), cycles take the minimum over all rotations and
    reflections, and fully symmetric shapes sort all labels.
    """
    from placeweave.attributes import AttributedMotifKey, to_sector
    from placeweave.errors import MissingPoiError

    pois = poi_by_name(catalog)
    label = {}
    for node in instance.nodes:
        if node not in pois:
            raise MissingPoiError(f"poi_id {node!r} is not in the catalog")
        label[node] = to_sector(pois[node][2]).id
    cls = instance.motif_class
    deg = _degrees(instance)
    if cls in (MotifClass.M2_1, MotifClass.M3_2, MotifClass.M4_1):
        labels = tuple(sorted(label[v] for v in instance.nodes))
    elif cls is MotifClass.M3_1:
        center = next(v for v in instance.nodes if deg[v] == 2)
        ends = sorted(label[v] for v in instance.nodes if deg[v] == 1)
        labels = (ends[0], label[center], ends[1])
    elif cls is MotifClass.M4_2:
        hubs = sorted(label[v] for v in instance.nodes if deg[v] == 3)
        sides = sorted(label[v] for v in instance.nodes if deg[v] == 2)
        labels = (*hubs, *sides)
    elif cls is MotifClass.M4_3:
        seq = [label[v] for v in _cycle_order(instance)]
        labels = min(
            tuple(direction[shift:] + direction[:shift])
            for direction in (seq, seq[::-1])
            for shift in range(4)
        )
    elif cls is MotifClass.M4_4:
        tail = next(v for v in instance.nodes if deg[v] == 1)
        hub = next(v for v in instance.nodes if deg[v] == 3)
        mids = sorted(label[v] for v in instance.nodes if deg[v] == 2)
        labels = (label[tail], label[hub], *mids)
    elif cls is MotifClass.M4_5:
        seq = [label[v] for v in _path_order(instance)]
        labels = min(tuple(seq), tuple(seq[::-1]))
    elif cls is MotifClass.M4_6:
        hub = next(v for v in instance.nodes if deg[v] == 3)
        leaves = sorted(label[v] for v in instance.nodes if deg[v] == 1)
        labels = (label[hub], *leaves)
    else:
        raise ValueError(f"cannot canonicalize class {cls}")
    return AttributedMotifKey(cls, labels)


def gathered_key_codes(cls, mask, labels):
    """attributes.key_codes by gathering each instance's labels under its mask's
    24 KEY_PERMS rows: the minimum of their base-32 codes, above the class."""
    from placeweave.attributes import KEY_PERMS

    at = np.take_along_axis(labels[:, None, :], KEY_PERMS[mask], axis=2)
    code = np.zeros(at.shape[:2], dtype=np.int64)
    for position in range(4):
        code = code << 5 | at[..., position]
    return cls.astype(np.int64) << 20 | code.min(axis=1)


def attributed_census(instances, keys, top_k=10) -> dict:
    """class -> [(key, device_count, share)], share descending, labels breaking ties."""
    per_class: dict = {}
    for inst, rec in instances.items():
        if inst.motif_class is MotifClass.OTHER:
            continue
        bucket = per_class.setdefault(inst.motif_class, {})
        bucket[keys[inst]] = bucket.get(keys[inst], 0) + rec.device_count
    result = {}
    for cls, bucket in per_class.items():
        total = sum(bucket.values())
        ranked = sorted(bucket.items(), key=lambda item: (-item[1], item[0].labels))
        result[cls] = [(key, count, count / total) for key, count in ranked[:top_k]]
    return result


# -- reading the columnar instance table back as objects ---------------------

# The documented bit order of an instance's edge mask over its node slots.
SLOT_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def decode_instance(pois, cls: int, nodes, mask: int):
    """The MotifInstance of one table entry (class index, node codes, edge mask)."""
    from placeweave.motifs import INDEX_CLASS

    names = tuple(pois[v] for v in nodes if v >= 0)
    edges = tuple(
        (names[a], names[b]) for bit, (a, b) in enumerate(SLOT_PAIRS) if mask >> bit & 1
    )
    return MotifInstance(names, edges, INDEX_CLASS[cls])


def table_rows(rows) -> list:
    """(local_date, MotifInstance, device_count) of every row, OTHER rows included."""
    epoch = dt.date(1970, 1, 1)
    out = [
        (epoch + dt.timedelta(days=day), decode_instance(rows.pois, cls, nodes, mask), count)
        for day, cls, nodes, mask, count in zip(
            rows.day.tolist(), rows.table.cls.tolist(), rows.table.nodes.tolist(),
            rows.table.mask.tolist(), rows.table.count.tolist(),
        )
    ]
    out += [
        (epoch + dt.timedelta(days=day), MotifInstance(nodes, edges, MotifClass.OTHER), count)
        for day, nodes, edges, count in rows.other
    ]
    return out


def table_instances(rows) -> dict:
    """The table's per-instance tally as MotifInstance -> InstanceRecord."""
    inst = rows.instances
    return {
        decode_instance(rows.pois, c, n, m): InstanceRecord(d, d - we, we)
        for c, n, m, d, we in zip(
            inst.cls.tolist(), inst.nodes.tolist(), inst.mask.tolist(), inst.count.tolist(),
            inst.weekend.tolist(),
        )
    }


def covering_walk(edges) -> list:
    """A walk stepping along every given edge and no other: each edge out and back, depth first."""
    adj: dict = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    walk = [min(adj)]
    used: set = set()

    def visit(u):
        for v in sorted(adj[u]):
            if frozenset((u, v)) not in used:
                used.add(frozenset((u, v)))
                walk.append(v)
                visit(v)
                walk.append(u)

    visit(walk[0])
    return walk


# -- synthetic traffic, one generator per device-day -------------------------------
# The generator's byte oracle: every device-day builds default_rng([seed, i])
# and draws with numpy's own choice calls, one object per device-day.


def _candidate_indices(lats, lons, anchor: int, radius_km: float):
    phi = np.radians(lats)
    dphi = np.radians(lats - lats[anchor]) / 2.0
    dlam = np.radians(lons - lons[anchor]) / 2.0
    a = np.sin(dphi) ** 2 + np.cos(phi[anchor]) * np.cos(phi) * np.sin(dlam) ** 2
    d = 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(a)))
    return np.flatnonzero(d <= radius_km / 2.0)


def traffic_plan(catalog, spec, indices=None) -> list[DeviceDayPlan]:
    """The classes, POI sets, walks and dwell times of the given device-days (default all)."""
    spec.validate()
    classes = sorted(spec.class_mix, key=lambda c: c.value)
    probs = np.array([spec.class_mix[c] for c in classes], dtype=float)
    probs = probs / probs.sum()
    poi_ids = catalog.poi_ids
    n_pois = len(poi_ids)
    lats, lons = catalog.lat, catalog.lon
    start, end = spec.date_range
    n_days = (end - start).days + 1
    lo, hi = spec.dwell_range
    width = max(7, len(str(spec.n_device_days - 1)))
    plans = []
    for i in range(spec.n_device_days) if indices is None else indices:
        rng = np.random.default_rng([spec.seed, i])
        cls = classes[int(rng.choice(len(classes), p=probs))]
        day = start + dt.timedelta(days=int(rng.integers(n_days)))
        if spec.max_sample_km is None:
            idxs = rng.choice(n_pois, size=cls.size, replace=False)
        else:
            anchor = int(rng.integers(n_pois))
            candidates = _candidate_indices(lats, lons, anchor, spec.max_sample_km)
            idxs = candidates[rng.choice(candidates.size, size=cls.size, replace=False)]
        pois = [poi_ids[int(j)] for j in idxs]
        walk = tuple(pois[pos] for pos in CLASS_WALKS[cls])
        dwells = tuple(int(d) for d in rng.integers(lo, hi + 1, size=len(walk)))
        plans.append(DeviceDayPlan(f"d{i:0{width}d}", day, cls, walk, dwells))
    return plans


def plan_stops(plan: DeviceDayPlan) -> list[Stop]:
    """One stop per walk step, 15 minutes apart from 08:00 UTC on the plan's date."""
    base = int(
        dt.datetime(
            plan.local_date.year, plan.local_date.month, plan.local_date.day, 8,
            tzinfo=dt.timezone.utc,
        ).timestamp()
    )
    return [
        Stop(plan.device_id, poi, base + k * 900, dwell)
        for k, (poi, dwell) in enumerate(zip(plan.walk, plan.dwells))
    ]


def fit_power_law_scanned(hist: DegreeHistogram) -> PowerLawFit:
    """fit_power_law at the xmin, among the positive degrees of the support but
    the largest, whose fit has the smallest KS distance; ties go to the smaller xmin."""
    candidates = [k for k in hist.support() if k >= 1][:-1]
    fits = [fit_power_law(hist, xmin=k) for k in candidates]  # min keeps the first of a tie
    return min(fits, key=lambda fit: fit.ks_distance)
