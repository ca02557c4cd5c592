"""Classification and exact enumeration of 2- to 4-node motifs.

Connected graphs on at most four vertices are fully determined up to
isomorphism by (size, sorted degree sequence), which keeps classification
a table lookup. Enumeration counts every connected node-induced
k-subgraph exactly once. The default engine does it in closed form
(_fastcount): induced counts follow from degrees, triangles, codegrees and
4-cliques without visiting any subgraph. Pure-Python ESU walks them one by
one, each rooted at its minimum vertex via the exclusive-neighborhood
rule; it is the streaming path and the reference the closed form is
tested against.

Trajectory classification is the second counting mode: each device-day's
stay walk induces a small graph whose identity is (node set, edge set);
per class, visit flows equal covering device-days times the class edge
count by construction. Its one table is rows of (local_date, instance,
device_count), one row per instance seen on a day; instances.csv stores
exactly these rows, and aggregate_instances is the one place that turns
them into per-instance device, weekday and weekend counts.
"""

from __future__ import annotations

import datetime as dt
import enum
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Iterator, Mapping

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

# Fixed indices for the count arrays of the census engines.
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
    edges = tuple(sorted({edge_key(a, b) for a, b in edges}))
    if 2 <= len(nodes) <= 4:
        cls = classify_graph(len(nodes), edges)
    else:
        cls = MotifClass.OTHER
    return MotifInstance(nodes, edges, cls)


def instance_order(inst: MotifInstance) -> tuple:
    """The canonical sort key of instances: class, then nodes, then edges."""
    return (inst.motif_class.value, inst.nodes, inst.edges)


def trajectory_instance(stays: tuple[str, ...]) -> MotifInstance:
    """Graph traced by one device-day's stays: distinct stays, deduplicated steps."""
    return instance_from_edges(stays, zip(stays, stays[1:]))


# -- enumeration -------------------------------------------------------------


def iter_connected_subsets(adj: Mapping, k: int) -> Iterator[tuple]:
    """Yield every connected k-subset of the graph exactly once (ESU).

    Nodes must be mutually comparable; subsets come out rooted at their
    minimum vertex, in deterministic order.
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


def iter_induced_instances(net: PlaceNetwork, k: int) -> Iterator[MotifInstance]:
    """Stream the node-induced connected k-subgraphs of a network."""
    if k not in (2, 3, 4):
        raise ValueError(f"k must be 2, 3 or 4, got {k}")
    adj = net.adjacency
    for sub in iter_connected_subsets(adj, k):
        edges = [
            (a, b)
            for i, a in enumerate(sub)
            for b in sub[i + 1 :]
            if b in adj[a]
        ]
        yield instance_from_edges(sub, edges)


def enumerate_induced(
    net: PlaceNetwork, k: int, threads: int = 1, engine: str = "closed"
) -> dict[MotifClass, int]:
    """Count connected node-induced k-subgraphs per motif class.

    Engines for k = 3 and 4 (k = 2 is the edge count under both):
    "closed", the default, derives the counts in closed form from degrees,
    triangles, codegrees and 4-cliques (_fastcount; numpy and scipy, one
    thread, counts independent of threads); "python" walks the pure ESU
    generator, the reference the closed form is tested against.
    """
    if k not in (2, 3, 4):
        raise ValueError(f"k must be 2, 3 or 4, got {k}")
    if engine not in ("closed", "python"):
        raise ValueError(f"unknown engine {engine!r}")
    if k == 2:
        return {MotifClass.M2_1: net.n_edges} if net.n_edges else {}
    if engine == "python":
        counts = Counter(inst.motif_class for inst in iter_induced_instances(net, k))
        return dict(counts)
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


@dataclass
class InstanceRecord:
    device_count: int = 0
    weekday_count: int = 0
    weekend_count: int = 0


def is_weekend(day: dt.date) -> bool:
    return day.weekday() >= 5


InstanceRow = tuple[dt.date, MotifInstance, int]


def aggregate_instances(rows: Iterable[InstanceRow]) -> dict[MotifInstance, InstanceRecord]:
    """Sum (local_date, instance, device_count) rows per instance.

    The only tally of device, weekday and weekend counts; instances come
    out in order of their first row.
    """
    agg: dict[MotifInstance, InstanceRecord] = {}
    for day, inst, count in rows:
        rec = agg.get(inst)
        if rec is None:
            rec = agg[inst] = InstanceRecord()
        rec.device_count += count
        if is_weekend(day):
            rec.weekend_count += count
        else:
            rec.weekday_count += count
    return agg


@dataclass
class TrajectoryCensus:
    """The instance table of a set of device-day walks.

    rows holds one (local_date, instance, device_count) per distinct
    instance seen on a day, every walk over more than four POIs included
    (class OTHER, which contributes to the global totals only); instances
    is their per-instance tally. total_flows counts every step of every
    walk, repeats included, matching the total weight of the
    consecutive-mode network built from the same sequences; the rows
    cannot recover it, since they keep only distinct edges.
    """

    rows: list[InstanceRow] = field(default_factory=list)
    total_device_days: int = 0
    total_flows: int = 0

    @cached_property
    def instances(self) -> dict[MotifInstance, InstanceRecord]:
        return aggregate_instances(self.rows)

    @property
    def total_instances(self) -> int:
        return len(self.instances)

    def census(self) -> MotifCensus:
        classes = {c: ClassStats(motif_count=0, device_count=0, flow_count=0) for c in CLASS_ORDER}
        for inst, rec in self.instances.items():
            cls = inst.motif_class
            if cls is MotifClass.OTHER:
                continue
            stats = classes[cls]
            stats.motif_count += 1
            stats.device_count += rec.device_count
        for cls, stats in classes.items():
            stats.flow_count = stats.device_count * cls.edge_count
        return MotifCensus(
            classes=classes,
            total_motifs=self.total_instances,
            total_devices=self.total_device_days,
            total_flows=self.total_flows,
            mode="trajectory",
        )


def classify_trajectories(sequences: SequenceTable) -> TrajectoryCensus:
    """Classify every device-day walk into the (local_date, instance) table."""
    tally: Counter[tuple[dt.date, MotifInstance]] = Counter()
    for _, day, stays in sequences.walks():
        tally[day, trajectory_instance(stays)] += 1
    flows = len(sequences.stays) - len(sequences)
    return TrajectoryCensus(
        rows=[(day, inst, count) for (day, inst), count in tally.items()],
        total_device_days=sum(tally.values()),
        total_flows=flows,
    )


def census_percentages(census: MotifCensus) -> MotifCensus:
    """Fill each class's share of the global motif count, in percent."""
    if census.total_motifs == 0:
        raise ValueError("census has no motifs; percentages undefined")
    classes = {
        cls: replace(stats, percentage=100.0 * stats.motif_count / census.total_motifs)
        for cls, stats in census.classes.items()
    }
    return replace(census, classes=classes)
