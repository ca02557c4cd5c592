"""Classification and exact counting of 2- to 4-node motifs.

Connected graphs on at most four vertices are fully determined up to
isomorphism by (size, sorted degree sequence), which keeps classification
a table lookup. Enumeration counts every connected node-induced
k-subgraph of a network exactly once, in closed form (_fastcount):
induced counts follow from degrees, triangles, codegrees and 4-cliques
without visiting any subgraph.

Trajectory classification is the second counting mode: each device-day's
stay walk induces a small graph whose identity is (node set, edge set);
per class, visit flows equal covering device-days times the class edge
count by construction. The instance table is integer columns: a walk's
node slots are its at most four POI codes, sorted; its steps set bits of
a 6-bit edge mask over the slot pairs, and a (node count, mask) lookup
table built from classify_graph names its class. One lexsort by (day,
class, node codes, edge rank) orders and tallies the rows, which is the
order instances.csv is written in; a second one, without the day, sums
each instance's device-day and weekend counts. Walks over five or
more POIs (class OTHER) keep a small row form of names that is only
written and counted.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, fields, replace
from typing import Iterable

import numpy as np

from .errors import InvariantError
from .ingest import SequenceTable
from .network import PlaceNetwork, csr_adjacency, edge_key


class MotifClass(enum.Enum):
    M2_1 = "M2_1"  # edge
    M3_1 = "M3_1"  # 3-chain
    M3_2 = "M3_2"  # triangle
    M4_1 = "M4_1"  # 4-clique
    M4_2 = "M4_2"  # chordal 4-cycle
    M4_3 = "M4_3"  # 4-cycle
    M4_4 = "M4_4"  # tailed triangle
    M4_5 = "M4_5"  # 4-chain
    M4_6 = "M4_6"  # 3-star
    OTHER = "OTHER"

    @property
    def size(self) -> int:
        return _CLASS_SIZE[self]

    @property
    def edge_count(self) -> int:
        return _CLASS_EDGES[self]

    def __str__(self) -> str:
        return self.value


_CLASS_SIZE = {
    MotifClass.M2_1: 2,
    MotifClass.M3_1: 3,
    MotifClass.M3_2: 3,
    MotifClass.M4_1: 4,
    MotifClass.M4_2: 4,
    MotifClass.M4_3: 4,
    MotifClass.M4_4: 4,
    MotifClass.M4_5: 4,
    MotifClass.M4_6: 4,
    MotifClass.OTHER: 0,
}

_CLASS_EDGES = {
    MotifClass.M2_1: 1,
    MotifClass.M3_1: 2,
    MotifClass.M3_2: 3,
    MotifClass.M4_1: 6,
    MotifClass.M4_2: 5,
    MotifClass.M4_3: 4,
    MotifClass.M4_4: 4,
    MotifClass.M4_5: 3,
    MotifClass.M4_6: 3,
    MotifClass.OTHER: 0,
}

# The nine classes in report order.
CLASS_ORDER: tuple[MotifClass, ...] = (
    MotifClass.M2_1,
    MotifClass.M3_1,
    MotifClass.M3_2,
    MotifClass.M4_1,
    MotifClass.M4_2,
    MotifClass.M4_3,
    MotifClass.M4_4,
    MotifClass.M4_5,
    MotifClass.M4_6,
)

# Fixed indices for the count arrays of the censuses.
CLASS_INDEX: dict[MotifClass, int] = {c: i for i, c in enumerate(CLASS_ORDER)}
CLASS_INDEX[MotifClass.OTHER] = len(CLASS_ORDER)
INDEX_CLASS: tuple[MotifClass, ...] = CLASS_ORDER + (MotifClass.OTHER,)

_DEGSEQ_CLASS: dict[tuple[int, tuple[int, ...]], MotifClass] = {
    (2, (1, 1)): MotifClass.M2_1,
    (3, (1, 1, 2)): MotifClass.M3_1,
    (3, (2, 2, 2)): MotifClass.M3_2,
    (4, (3, 3, 3, 3)): MotifClass.M4_1,
    (4, (2, 2, 3, 3)): MotifClass.M4_2,
    (4, (2, 2, 2, 2)): MotifClass.M4_3,
    (4, (1, 2, 2, 3)): MotifClass.M4_4,
    (4, (1, 1, 2, 2)): MotifClass.M4_5,
    (4, (1, 1, 1, 3)): MotifClass.M4_6,
}


def classify_graph(n: int, edges: Iterable[tuple]) -> MotifClass:
    """Classify a simple undirected graph on n labeled vertices (2 <= n <= 4).

    Vertices are inferred from the edge set; unreferenced vertices count as
    isolated. Disconnected graphs map to OTHER.
    """
    if n not in (2, 3, 4):
        raise ValueError(f"motif size must be 2, 3 or 4, got {n}")
    adj: dict = {}
    for a, b in edges:
        if a == b:
            raise ValueError(f"self-loop at {a!r}: motif graphs are simple")
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    if len(adj) > n:
        raise ValueError(f"edge set references {len(adj)} vertices but n={n}")
    if len(adj) < n:
        return MotifClass.OTHER  # isolated vertex present
    if not _connected(adj):
        return MotifClass.OTHER
    degseq = tuple(sorted(len(nbrs) for nbrs in adj.values()))
    return _DEGSEQ_CLASS[(n, degseq)]


def _connected(adj: dict) -> bool:
    start = next(iter(adj))
    seen = {start}
    stack = [start]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(adj)


# -- enumeration -------------------------------------------------------------


def enumerate_induced(net: PlaceNetwork, k: int, threads: int = 1) -> dict[MotifClass, int]:
    """Count connected node-induced k-subgraphs per motif class.

    k = 2 is the edge count. For k = 3 and 4 the counts follow in closed form
    from degrees, triangles, codegrees and 4-cliques (_fastcount; numpy and
    scipy, one thread, counts independent of threads).
    """
    if k not in (2, 3, 4):
        raise ValueError(f"k must be 2, 3 or 4, got {k}")
    if k == 2:
        return {MotifClass.M2_1: net.n_edges} if net.n_edges else {}
    from ._fastcount import census_counts

    _, indptr, indices = csr_adjacency(net)
    raw = census_counts(indptr, indices, k, threads=threads)
    result = {INDEX_CLASS[i]: int(c) for i, c in enumerate(raw) if c}
    if result.pop(MotifClass.OTHER, 0):
        raise InvariantError("enumeration emitted a disconnected subset")
    return result


def enumeration_census(
    net: PlaceNetwork, ks: tuple[int, ...] = (2, 3, 4), threads: int = 1
) -> "MotifCensus":
    """Whole-network census over the requested subgraph sizes."""
    classes = {c: ClassStats() for c in CLASS_ORDER}
    total = 0
    for k in ks:
        for cls, count in enumerate_induced(net, k, threads=threads).items():
            classes[cls].motif_count += count
            total += count
    return MotifCensus(
        classes=classes,
        total_motifs=total,
        total_devices=None,
        total_flows=None,
        mode="enumerate",
        device_unit=None,
    )


# -- trajectory census -------------------------------------------------------

# Node slots of an instance are its at most four POI codes, sorted. Bit i of
# an edge mask is the slot pair PAIRS[i]; the pairs are in lexicographic
# order, so a mask's edges in bit order are its edges sorted.
PAIRS: tuple[tuple[int, int], ...] = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
PAIR_BIT = np.zeros((4, 4), dtype=np.uint8)
for _bit, (_a, _b) in enumerate(PAIRS):
    PAIR_BIT[_a, _b] = PAIR_BIT[_b, _a] = 1 << _bit


def mask_edges(mask: int) -> tuple[tuple[int, int], ...]:
    """The slot pairs of an edge mask, sorted."""
    return tuple(pair for bit, pair in enumerate(PAIRS) if mask >> bit & 1)


def _mask_class(n: int, mask: int) -> int:
    try:
        return CLASS_INDEX[classify_graph(n, mask_edges(mask))]
    except ValueError:  # n outside 2..4, or the mask touches more than n slots
        return -1


# classify_graph of every (node count, edge mask) as a CLASS_INDEX; -1 where
# it raises.
MASK_CLASS = np.array([[_mask_class(n, m) for m in range(64)] for n in range(5)], dtype=np.int8)
# Position of each mask's sorted edge tuple among all 64: sorting instances of
# one class and node set by it sorts them by their edges.
EDGE_RANK = np.empty(64, dtype=np.uint8)
EDGE_RANK[sorted(range(64), key=mask_edges)] = np.arange(64)
OTHER = CLASS_INDEX[MotifClass.OTHER]

# One OTHER instance-day: (day, sorted node names, sorted edge name pairs, device_count).
OtherRow = tuple[int, tuple[str, ...], tuple[tuple[str, str], ...], int]


@dataclass
class ClassStats:
    motif_count: int = 0
    device_count: int | None = None
    flow_count: int | None = None
    percentage: float | None = None
    avg_distance_km: float | None = None


@dataclass
class MotifCensus:
    """Per-class aggregates plus the global totals they are measured against."""

    classes: dict[MotifClass, ClassStats]
    total_motifs: int
    total_devices: int | None
    total_flows: int | None
    mode: str
    device_unit: str | None = "device-days"


def group_starts(*columns: np.ndarray) -> np.ndarray:
    """Indices of the rows whose columns differ from the row before (row 0 included)."""
    new = np.zeros(len(columns[0]), dtype=bool)
    new[:1] = True
    for column in columns:
        diff = column[1:] != column[:-1]
        new[1:] |= diff.any(axis=1) if diff.ndim > 1 else diff
    return np.flatnonzero(new)


def _instance_order(cls: np.ndarray, nodes: np.ndarray, mask: np.ndarray, *major) -> np.ndarray:
    """The lexsort of rows by the major keys, then class, node codes and edges."""
    return np.lexsort((EDGE_RANK[mask], *nodes.T[::-1], cls, *major[::-1]))


@dataclass(eq=False)
class Instances:
    """Motif instances as columns, one entry per instance.

    Instance i is class INDEX_CLASS[cls[i]] on the POI codes nodes[i] (its
    sorted node slots, -1 beyond the class size) with the slot pairs of
    mask[i] as edges. count[i] device-days cover it, weekend[i] of them on a
    Saturday or Sunday.
    """

    cls: np.ndarray
    nodes: np.ndarray
    mask: np.ndarray
    count: np.ndarray
    weekend: np.ndarray

    def __len__(self) -> int:
        return len(self.cls)

    def take(self, rows) -> Instances:
        return Instances(*(getattr(self, f.name)[rows] for f in fields(self)))

    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per instance and slot pair in bit order: whether it is an edge, and its two POI codes."""
        has = (self.mask[:, None] >> np.arange(len(PAIRS)) & 1).astype(bool)
        return has, self.nodes[:, [a for a, _ in PAIRS]], self.nodes[:, [b for _, b in PAIRS]]


@dataclass(eq=False)
class InstanceRows:
    """The motif-instance table: one row per distinct instance seen on a day.

    Row i is the instance table[i], counted on day[i] (days after
    1970-01-01) only; its codes index the names pois, and code order is name
    order. Rows are sorted by (day, class, node codes, edges), the order
    instances.csv is written in. instances holds the distinct instances in
    that order without the day, counts summed over days, and of_row[i] is the
    index of row i's instance there. Class OTHER instances (every walk over
    five or more POIs) are kept apart as OtherRow tuples in `other`, sorted
    the same way: they are only written and counted.
    """

    pois: list[str]
    day: np.ndarray
    table: Instances
    instances: Instances
    of_row: np.ndarray
    other: list[OtherRow]

    def __len__(self) -> int:
        return len(self.day) + len(self.other)

    @classmethod
    def tally(
        cls, pois, day, classes, nodes, mask, count, other: Iterable[OtherRow]
    ) -> InstanceRows:
        """The table of unsorted rows; rows of one instance on one day are summed."""
        order = _instance_order(classes, nodes, mask, day)
        day, classes, nodes, mask = day[order], classes[order], nodes[order], mask[order]
        start = group_starts(day, classes, nodes, mask)
        count, day = np.add.reduceat(count[order], start), day[start]
        weekend = np.where((day + 3) % 7 >= 5, count, 0)  # day 0 was a Thursday
        table = Instances(classes[start], nodes[start], mask[start], count, weekend)
        order = _instance_order(table.cls, table.nodes, table.mask)
        start = group_starts(table.cls[order], table.nodes[order], table.mask[order])
        of_row = np.empty(len(order), dtype=np.int64)
        of_row[order] = np.repeat(np.arange(len(start)), np.diff(np.append(start, len(order))))
        instances = table.take(order[start])
        instances.count, instances.weekend = (
            np.add.reduceat(column[order], start) for column in (table.count, table.weekend)
        )
        others: Counter = Counter()
        for d, n, e, c in other:
            others[d, n, e] += c
        return cls(pois, day, table, instances, of_row, sorted((*k, c) for k, c in others.items()))

    def days(self) -> list[int]:
        """Every day with a row, OTHER rows included, in increasing order."""
        return sorted(set(self.day.tolist()) | {row[0] for row in self.other})


@dataclass
class TrajectoryCensus:
    """The instance rows of a set of device-day walks and the walks' totals.

    total_flows counts every step of every walk, repeats included, matching
    the total weight of the consecutive-mode network built from the same
    sequences; the rows cannot recover it, since they keep only distinct
    edges.
    """

    rows: InstanceRows
    total_device_days: int
    total_flows: int

    def census(self) -> MotifCensus:
        inst = self.rows.instances
        classes = {}
        for i, cls in enumerate(CLASS_ORDER):
            devices = int(inst.count[inst.cls == i].sum())
            classes[cls] = ClassStats(
                int((inst.cls == i).sum()), devices, devices * cls.edge_count
            )
        others = {(nodes, edges) for _, nodes, edges, _ in self.rows.other}
        return MotifCensus(
            classes=classes,
            total_motifs=len(inst) + len(others),
            total_devices=self.total_device_days,
            total_flows=self.total_flows,
            mode="trajectory",
        )


def classify_trajectories(sequences: SequenceTable) -> TrajectoryCensus:
    """Classify every device-day walk into the instance table.

    A walk's node slots are its distinct POI codes, sorted; its steps set the
    bits of an edge mask over those slots, and MASK_CLASS names its class.
    Walks over five or more distinct POIs are class OTHER.
    """
    n_walks, n_pois, offsets = len(sequences), max(len(sequences.pois), 1), sequences.offsets
    walk = np.repeat(np.arange(n_walks), np.diff(offsets))
    distinct, stay_distinct = np.unique(walk * n_pois + sequences.stays, return_inverse=True)
    distinct_walk = distinct // n_pois
    first = np.searchsorted(distinct_walk, np.arange(n_walks))
    n_nodes = np.diff(np.append(first, len(distinct)))
    slot = np.arange(len(distinct)) - first[distinct_walk]
    step = walk[:-1] == walk[1:]  # two stays of one walk
    if (stay_distinct[:-1] == stay_distinct[1:])[step].any():
        raise ValueError("a walk repeats a stay consecutively; collapse sequences in ingest first")
    stay_slot = np.minimum(slot[stay_distinct], 3)  # OTHER walks use no slot
    steps = PAIR_BIT[stay_slot[:-1], stay_slot[1:]][step]
    mask = np.bitwise_or.reduceat(steps, offsets[:-1] - np.arange(n_walks))
    small = n_nodes <= 4
    nodes = np.full((n_walks, 4), -1, dtype=np.int32)
    kept = small[distinct_walk]
    nodes[distinct_walk[kept], slot[kept]] = distinct[kept] % n_pois
    other = []
    for i in np.flatnonzero(~small).tolist():
        stays = [sequences.pois[p] for p in sequences.stays[offsets[i] : offsets[i + 1]].tolist()]
        edges = tuple(sorted({edge_key(a, b) for a, b in zip(stays, stays[1:])}))
        other.append((int(sequences.day[i]), tuple(sorted(set(stays))), edges, 1))
    mask = mask[small]
    rows = InstanceRows.tally(
        sequences.pois, sequences.day[small], MASK_CLASS[n_nodes[small], mask], nodes[small],
        mask, np.ones(len(mask), dtype=np.int64), other,
    )
    return TrajectoryCensus(rows, n_walks, len(sequences.stays) - n_walks)


def census_percentages(census: MotifCensus) -> MotifCensus:
    """Fill each class's share of the global motif count, in percent."""
    if census.total_motifs == 0:
        raise ValueError("census has no motifs; percentages undefined")
    classes = {
        cls: replace(stats, percentage=100.0 * stats.motif_count / census.total_motifs)
        for cls, stats in census.classes.items()
    }
    return replace(census, classes=classes)
