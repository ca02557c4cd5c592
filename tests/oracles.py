"""Independent reference implementations the tests check the library against.

Everything here is deliberately brute force: permutation isomorphism,
full subset scans, direct formula summation. None of it shares code with
the library paths under test.
"""

from __future__ import annotations

import datetime as dt
import itertools
from dataclasses import dataclass

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


# -- the per-instance dict path -------------------------------------------------
#
# One MotifInstance object, dict entry and scalar distance or key per
# instance: the form the instance table had before it became columnar. Sums
# run left to right in instance order, so these reproduce the library's
# floats bit for bit. They share with the library only the scalar
# haversine_km, to_sector and instance_from_edges (the ESU engine's
# canonical form, itself checked against the permutation oracle).


@dataclass
class InstanceRecord:
    device_count: int = 0
    weekday_count: int = 0
    weekend_count: int = 0


def instance_order(inst) -> tuple:
    return (inst.motif_class.value, inst.nodes, inst.edges)


def trajectory_instance(stays):
    """Graph traced by one walk: its distinct stays and deduplicated steps."""
    from placeweave.motifs import instance_from_edges

    return instance_from_edges(stays, zip(stays, stays[1:]))


def read_instance_rows(path) -> list:
    """(local_date, MotifInstance, device_count) rows of an instances.csv, as written."""
    from placeweave.motifs import MotifInstance

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
    from placeweave.stats import haversine_km

    if not instance.edges:
        raise ValueError("instance has no edges")
    total = 0.0
    for a, b in instance.edges:
        ra, rb = catalog.get(a), catalog.get(b)
        if ra is None or rb is None:
            missing = a if ra is None else b
            raise MissingPoiError(f"poi_id {missing!r} has no coordinates in the catalog")
        total += haversine_km(ra.lat, ra.lon, rb.lat, rb.lon)
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

    label = {}
    for node in instance.nodes:
        rec = catalog.get(node)
        if rec is None:
            raise MissingPoiError(f"poi_id {node!r} is not in the catalog")
        label[node] = to_sector(rec.naics).id
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
    from placeweave.motifs import INDEX_CLASS, MotifInstance

    names = tuple(pois[v] for v in nodes if v >= 0)
    edges = tuple(
        (names[a], names[b]) for bit, (a, b) in enumerate(SLOT_PAIRS) if mask >> bit & 1
    )
    return MotifInstance(names, edges, INDEX_CLASS[cls])


def table_rows(rows) -> list:
    """(local_date, MotifInstance, device_count) of every row, OTHER rows included."""
    from placeweave.motifs import MotifInstance

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
