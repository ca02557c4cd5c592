"""Classification and exact counting of 2- to 4-node motifs.

CLASS_SHAPES writes each of the nine classes once, as edges between its
key positions. Placing those positions on node slots in every order gives
every connected graph on up to four slots with its class (EMBEDDINGS), so
classification maps a graph's vertices to slots and looks its edge mask
up. Subsets of each shape that classify as a class of its size give
COPIES, the copy table. Enumeration counts every connected node-induced
k-subgraph of a network exactly once, in closed form (_fastcount): a
solve of COPIES turns non-induced copy counts from degrees, triangles,
codegrees and 4-cliques into induced counts without visiting any
subgraph, and each count stays an exact Python int, past int64 too.

Trajectory classification is the second counting mode: each device-day's
stay walk induces a small graph whose identity is (node set, edge set);
per class, visit flows equal covering device-days times the class edge
count by construction. The instance table is integer columns: a walk's
node slots are its at most four POI codes, sorted; its steps set bits of
a 6-bit edge mask over the slot pairs, and a (node count, mask) lookup
table built from classify_graph names its class. One sort by (class,
node codes, edge rank, day), packed into one int64 key where the ranges
fit (ingest.lexorder), tallies the rows: its runs are the
instance-day rows and the distinct instances, and a stable sort by day
puts the rows in the order instances.csv is written in. Walks over five
or more POIs (class OTHER) keep a small row form of names that is only
written and counted.

Either census ends as census.json's document, built by census_document,
the one place a census row is built: enumeration_census gives each class's
count, TrajectoryCensus.document each class's instances and device-days.
census.csv, and the census part of report.json, hold that document.
"""

from __future__ import annotations

import enum
import itertools
from collections import Counter
from dataclasses import dataclass, fields
from typing import Iterable

import numpy as np

from .ingest import SequenceTable, group_starts, is_weekend, lexorder
from .network import PlaceNetwork, edge_key
from .network import csr_adjacency  # noqa: F401  re-exported: the CSR input of census_counts


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
        return len(set().union(*CLASS_SHAPES.get(self, ())))

    @property
    def edge_count(self) -> int:
        return len(CLASS_SHAPES.get(self, ()))

    def __str__(self) -> str:
        return self.value


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

# Node slots of an instance are its at most four POI codes, sorted. Bit i of
# an edge mask is the slot pair PAIRS[i]; the pairs are in lexicographic
# order, so a mask's edges in bit order are its edges sorted.
PAIRS: tuple[tuple[int, int], ...] = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
PAIR_BIT = np.zeros((4, 4), dtype=np.uint8)
for _bit, (_a, _b) in enumerate(PAIRS):
    PAIR_BIT[_a, _b] = PAIR_BIT[_b, _a] = 1 << _bit

# Each class's shape as edges between its key positions: chains run end to
# end, stars and tailed shapes order by role (tail, hub, then the
# interchangeable positions), cycles run around, and the fully symmetric
# shapes take any order. The positions fix the order of attributed keys.
CLASS_SHAPES: dict[MotifClass, tuple[tuple[int, int], ...]] = {
    MotifClass.M2_1: ((0, 1),),
    MotifClass.M3_1: ((0, 1), (1, 2)),  # end, center, end
    MotifClass.M3_2: ((0, 1), (0, 2), (1, 2)),
    MotifClass.M4_1: PAIRS,
    MotifClass.M4_2: ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3)),  # hub, hub, side, side
    MotifClass.M4_3: ((0, 1), (0, 3), (1, 2), (2, 3)),  # around the cycle
    MotifClass.M4_4: ((0, 1), (1, 2), (1, 3), (2, 3)),  # tail, hub, mid, mid
    MotifClass.M4_5: ((0, 1), (1, 2), (2, 3)),  # end to end
    MotifClass.M4_6: ((0, 1), (0, 2), (0, 3)),  # hub, leaf, leaf, leaf
}


def _embeddings() -> dict[int, tuple[MotifClass, list[tuple[int, ...]]]]:
    table: dict = {}
    for cls, shape in CLASS_SHAPES.items():
        n = cls.size
        for perm in itertools.permutations(range(n)):
            mask = sum(int(PAIR_BIT[perm[a], perm[b]]) for a, b in shape)
            table.setdefault(mask, (cls, []))[1].append(perm + tuple(range(n, 4)))
    return table


# Every connected graph on the slots below its size, as an edge mask: its
# class and each map from key position to slot (padded with the unused
# slots) that carries the class shape onto it.
EMBEDDINGS = _embeddings()


def classify_graph(n: int, edges: Iterable[tuple]) -> MotifClass:
    """Classify a simple undirected graph on n labeled vertices (2 <= n <= 4).

    Vertices are inferred from the edge set; unreferenced vertices count as
    isolated. Disconnected graphs map to OTHER.
    """
    if n not in (2, 3, 4):
        raise ValueError(f"motif size must be 2, 3 or 4, got {n}")
    edges = list(edges)
    slot: dict = {}
    for a, b in edges:
        if a == b:
            raise ValueError(f"self-loop at {a!r}: motif graphs are simple")
        slot.setdefault(a, len(slot))
        slot.setdefault(b, len(slot))
    if len(slot) > n:
        raise ValueError(f"edge set references {len(slot)} vertices but n={n}")
    if len(slot) < n:
        return MotifClass.OTHER  # isolated vertex present
    mask = sum({int(PAIR_BIT[slot[a], slot[b]]) for a, b in edges})
    return EMBEDDINGS.get(mask, (MotifClass.OTHER,))[0]


# -- enumeration -------------------------------------------------------------


def enumerate_induced(net: PlaceNetwork, k: int) -> dict[MotifClass, int]:
    """Count connected node-induced k-subgraphs per motif class.

    The nonzero size-k classes of enumeration_census, each an exact int.
    """
    if k not in (2, 3, 4):
        raise ValueError(f"k must be 2, 3 or 4, got {k}")
    return {c: count for c, count in enumeration_census(net).items() if c.size == k and count}


def enumeration_census(net: PlaceNetwork) -> dict[MotifClass, int]:
    """Whole-network count of each 2-, 3- and 4-node class, in CLASS_ORDER.

    Every class comes from one closed-form census (_fastcount.full_census)
    of the network's edge arrays, as an exact Python int.
    """
    from ._fastcount import full_census

    return full_census(net.n_nodes, net.src, net.dst)


# -- trajectory census -------------------------------------------------------


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
OTHER = CLASS_INDEX[MotifClass.OTHER]


def _copies() -> np.ndarray:
    copies = np.zeros((len(CLASS_ORDER),) * 2, dtype=np.int64)
    for cls, shape in CLASS_SHAPES.items():
        full = sum(int(PAIR_BIT[a, b]) for a, b in shape)
        for sub in range(64):
            part = MASK_CLASS[cls.size, sub]
            if sub & full == sub and part != OTHER:
                copies[part, CLASS_INDEX[cls]] += 1
    return copies


# COPIES[p, f]: the non-induced copies of class p in one induced subgraph of
# class f, by CLASS_INDEX: the subsets of f's shape that MASK_CLASS names p on
# f's node count, so each spans f's nodes and is connected.
COPIES = _copies()
# Position of each mask's sorted edge tuple among all 64: sorting instances of
# one class and node set by it sorts them by their edges.
EDGE_RANK = np.empty(64, dtype=np.uint8)
EDGE_RANK[sorted(range(64), key=mask_edges)] = np.arange(64)

# One OTHER instance-day: (day, sorted node names, sorted edge name pairs, device_count).
OtherRow = tuple[int, tuple[str, ...], tuple[tuple[str, str], ...], int]


def census_document(
    mode: str, motifs: dict[MotifClass, int], total_motifs: int, devices: dict | None = None,
    total_devices: int | None = None, total_flows: int | None = None, distances: dict | None = None,
) -> dict:
    """census.json's document: a row per class in CLASS_ORDER, and the totals.

    motifs holds each class's motif count and total_motifs the count every
    percentage is a share of. A trajectory census also gives each class's
    covering device-days (devices), whose flows are device-days times the
    class edge count, and may give a stats.class_avg_distance table whose
    rows' total_km is each class's avg_distance_km.
    """
    if total_motifs == 0:
        raise ValueError("census has no motifs; percentages undefined")
    rows = []
    for cls in CLASS_ORDER:
        device_count = None if devices is None else devices[cls]
        km = distances.get(cls) if distances else None
        rows.append({
            "class": cls.value,
            "motif_count": motifs[cls],
            "device_count": device_count,
            "flow_count": None if devices is None else device_count * cls.edge_count,
            "percentage": 100.0 * motifs[cls] / total_motifs,
            "avg_distance_km": None if km is None else km["total_km"],
        })
    totals = {"motif_count": total_motifs, "device_count": total_devices, "flow_count": total_flows}
    return {
        "mode": mode,
        "device_unit": None if devices is None else "device-days",
        "totals": totals,
        "classes": rows,
    }


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
        order = lexorder((day, EDGE_RANK[mask], *nodes.T[::-1], classes))
        day, classes, nodes, mask = day[order], classes[order], nodes[order], mask[order]
        start = group_starts(classes, nodes, mask, day)  # each instance-day, instances in order
        count, day = np.add.reduceat(count[order], start), day[start]
        weekend = np.where(is_weekend(day), count, 0)
        rows = Instances(classes[start], nodes[start], mask[start], count, weekend)
        first = group_starts(rows.cls, rows.nodes, rows.mask)  # each instance's first day
        sums = (np.add.reduceat(column, first) for column in (rows.count, rows.weekend))
        instances = Instances(rows.cls[first], rows.nodes[first], rows.mask[first], *sums)
        run = np.repeat(np.arange(len(first)), np.diff(first, append=len(start)))
        by_day = np.argsort(day, kind="stable")  # keeps the instance order within a day
        table, day, of_row = rows.take(by_day), day[by_day], run[by_day]
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

    def document(self, distances: dict | None = None) -> dict:
        """census.json's document; distances, a stats.class_avg_distance table,
        gives avg_distance_km."""
        inst = self.rows.instances
        motifs, devices = {}, {}
        for i, cls in enumerate(CLASS_ORDER):
            of_class = inst.cls == i
            motifs[cls] = int(of_class.sum())
            devices[cls] = int(inst.count[of_class].sum())
        others = {(nodes, edges) for _, nodes, edges, _ in self.rows.other}
        return census_document(
            "trajectory", motifs, len(inst) + len(others), devices, self.total_device_days,
            self.total_flows, distances,
        )


def classify_trajectories(sequences: SequenceTable) -> TrajectoryCensus:
    """Classify every device-day walk into the instance table.

    A walk's node slots are its distinct POI codes, sorted; its steps
    (SequenceTable.steps, which checks the walk rules) set the bits of an
    edge mask over those slots, and MASK_CLASS names its class. Walks over
    five or more distinct POIs are class OTHER.
    """
    n_walks, n_pois, offsets = len(sequences), max(len(sequences.pois), 1), sequences.offsets
    walk, position = sequences.steps()
    distinct, stay_distinct = np.unique(walk * n_pois + sequences.stays, return_inverse=True)
    distinct_walk = distinct // n_pois
    first = np.searchsorted(distinct_walk, np.arange(n_walks))
    n_nodes = np.diff(np.append(first, len(distinct)))
    slot = np.arange(len(distinct)) - first[distinct_walk]
    stay_slot = np.minimum(slot[stay_distinct], 3)  # OTHER walks use no slot
    steps = PAIR_BIT[stay_slot[position], stay_slot[position + 1]]
    # walk i's steps start at offsets[i] - i: each walk has one step fewer than stays
    mask = np.bitwise_or.reduceat(steps, offsets[:-1] - np.arange(n_walks))
    small = n_nodes <= 4
    nodes = np.full((n_walks, 4), -1, dtype=np.int32)
    kept = small[distinct_walk]
    nodes[distinct_walk[kept], slot[kept]] = distinct[kept] % n_pois
    # the per-stay temporaries are done: free them before the tally's own
    del walk, position, distinct, stay_distinct, distinct_walk, slot, stay_slot, steps, kept
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

