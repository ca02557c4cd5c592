"""NAICS sector mapping, category visit shares, and attributed motif keys.

An attributed motif carries a sector label on every node; two labeled
occurrences are the same lifestyle exactly when some vertex bijection
preserves both edges and labels. Each class therefore gets a fixed
position convention and its label sequence is reduced to the
lexicographic minimum over the class's automorphism group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import MissingPoiError, UnknownSectorError
from .ingest import PoiCatalog
from .motifs import InstanceRecord, MotifClass, MotifInstance


@dataclass(frozen=True)
class SectorCategory:
    id: int
    prefixes: frozenset[str]
    label: str


SECTORS: tuple[SectorCategory, ...] = (
    SectorCategory(1, frozenset({"11"}), "Agriculture, Forestry, Fishing and Hunting"),
    SectorCategory(2, frozenset({"21"}), "Mining"),
    SectorCategory(3, frozenset({"22"}), "Utilities"),
    SectorCategory(4, frozenset({"23"}), "Construction"),
    SectorCategory(5, frozenset({"31", "32", "33"}), "Manufacturing"),
    SectorCategory(6, frozenset({"42"}), "Wholesale Trade"),
    SectorCategory(7, frozenset({"44", "45"}), "Retail Trade"),
    SectorCategory(8, frozenset({"48", "49"}), "Transportation and Warehousing"),
    SectorCategory(9, frozenset({"51"}), "Information"),
    SectorCategory(10, frozenset({"52"}), "Finance and Insurance"),
    SectorCategory(11, frozenset({"53"}), "Real Estate Rental and Leasing"),
    SectorCategory(12, frozenset({"54"}), "Professional, Scientific, and Technical Services"),
    SectorCategory(13, frozenset({"55"}), "Management of Companies and Enterprises"),
    SectorCategory(
        14,
        frozenset({"56"}),
        "Administrative and Support and Waste Management and Remediation Services",
    ),
    SectorCategory(15, frozenset({"61"}), "Educational Services"),
    SectorCategory(16, frozenset({"62"}), "Health Care and Social Assistance"),
    SectorCategory(17, frozenset({"71"}), "Arts, Entertainment, and Recreation"),
    SectorCategory(18, frozenset({"72"}), "Accommodation and Food Services"),
    SectorCategory(19, frozenset({"81"}), "Other Services (except Public Administration)"),
    SectorCategory(20, frozenset({"92"}), "Public Administration"),
)

_PREFIX_SECTOR: dict[str, SectorCategory] = {
    prefix: sector for sector in SECTORS for prefix in sector.prefixes
}
_ID_SECTOR: dict[int, SectorCategory] = {s.id: s for s in SECTORS}


def to_sector(naics: str) -> SectorCategory:
    """Sector category owning the first two digits of a NAICS code."""
    if len(naics) < 2:
        raise UnknownSectorError(f"NAICS code {naics!r} is shorter than 2 digits")
    sector = _PREFIX_SECTOR.get(naics[:2])
    if sector is None:
        raise UnknownSectorError(f"NAICS prefix {naics[:2]!r} maps to no sector category")
    return sector


def sector_by_id(sector_id: int) -> SectorCategory:
    try:
        return _ID_SECTOR[sector_id]
    except KeyError:
        raise UnknownSectorError(f"no sector category with id {sector_id}") from None


def category_frequency(
    endpoints: Mapping[str, int],
    catalog: PoiCatalog,
    digits: int = 2,
    names: Mapping[str, str] | None = None,
) -> tuple[list[tuple[str, float]], int]:
    """Rank visit-flow endpoints by category share.

    endpoints maps each POI id to the number of flow endpoints at it.
    digits=2 buckets by sector label, digits=4 by the leading four NAICS
    digits (resolved through `names` when provided, else the digit string
    itself). Returns the ranked (label, share) list, shares summing to 1,
    plus the number of endpoints whose POI id was absent from the catalog.
    """
    if digits not in (2, 4):
        raise ValueError(f"digits must be 2 or 4, got {digits}")
    counts: dict[str, int] = {}
    unresolved = 0
    total = 0
    for poi_id, count in endpoints.items():
        rec = catalog.get(poi_id)
        if rec is None:
            unresolved += count
            continue
        if digits == 2:
            label = to_sector(rec.naics).label
        else:
            code = rec.naics[:4]
            label = names.get(code, code) if names else code
        counts[label] = counts.get(label, 0) + count
        total += count
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return [(label, count / total) for label, count in ranked], unresolved


@dataclass(frozen=True)
class AttributedMotifKey:
    """Motif class plus canonical sector labels, one per position."""

    motif_class: MotifClass
    labels: tuple[int, ...]

    def same_category(self) -> bool:
        return len(set(self.labels)) == 1


def _degrees(instance: MotifInstance) -> dict[str, int]:
    deg = {v: 0 for v in instance.nodes}
    for a, b in instance.edges:
        deg[a] += 1
        deg[b] += 1
    return deg


def _adjacency(instance: MotifInstance) -> dict[str, set[str]]:
    adj: dict[str, set[str]] = {v: set() for v in instance.nodes}
    for a, b in instance.edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def _cycle_order(instance: MotifInstance) -> list[str]:
    adj = _adjacency(instance)
    start = instance.nodes[0]
    order = [start]
    prev = None
    while len(order) < len(instance.nodes):
        nxt = min(u for u in adj[order[-1]] if u != prev)
        prev = order[-1]
        order.append(nxt)
    return order


def _path_order(instance: MotifInstance) -> list[str]:
    adj = _adjacency(instance)
    deg = _degrees(instance)
    start = min(v for v in instance.nodes if deg[v] == 1)
    order = [start]
    prev = None
    while len(order) < len(instance.nodes):
        nxt = next(u for u in adj[order[-1]] if u != prev)
        prev = order[-1]
        order.append(nxt)
    return order


def canonical_key(instance: MotifInstance, catalog: PoiCatalog) -> AttributedMotifKey:
    """Automorphism-invariant label sequence of an attributed instance.

    Position conventions per class: chains run end to end (minimum of the
    sequence and its reverse), stars and tailed shapes order by role
    (tail, hub, then interchangeable positions sorted), cycles take the
    minimum over all rotations and reflections, and fully symmetric
    shapes sort all labels.
    """
    label: dict[str, int] = {}
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
        variants = []
        for direction in (seq, seq[::-1]):
            for shift in range(4):
                variants.append(tuple(direction[shift:] + direction[:shift]))
        labels = min(variants)
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


def canonical_keys(
    instances: Iterable[MotifInstance], catalog: PoiCatalog
) -> dict[MotifInstance, AttributedMotifKey]:
    """canonical_key of every non-OTHER instance, for attributed_census and tables."""
    return {
        inst: canonical_key(inst, catalog)
        for inst in instances
        if inst.motif_class is not MotifClass.OTHER
    }


@dataclass(frozen=True)
class AttributedEntry:
    key: AttributedMotifKey
    device_count: int
    share: float
    same_category: bool


def attributed_census(
    instances: Mapping[MotifInstance, InstanceRecord],
    keys: Mapping[MotifInstance, AttributedMotifKey],
    top_k: int | None = 10,
) -> dict[MotifClass, list[AttributedEntry]]:
    """Rank attributed motifs by frequency within each class.

    keys holds the canonical_keys of the instances. Shares are device
    counts over the class total; ordering is share descending with label
    sequence as the deterministic tie-break. OTHER instances are skipped.
    top_k=None keeps every key.
    """
    if not instances:
        raise ValueError("no instances to attribute")
    per_class: dict[MotifClass, dict[AttributedMotifKey, int]] = {}
    for inst, rec in instances.items():
        if inst.motif_class is MotifClass.OTHER:
            continue
        key = keys[inst]
        bucket = per_class.setdefault(inst.motif_class, {})
        bucket[key] = bucket.get(key, 0) + rec.device_count
    result: dict[MotifClass, list[AttributedEntry]] = {}
    for cls, bucket in per_class.items():
        total = sum(bucket.values())
        ranked = sorted(bucket.items(), key=lambda item: (-item[1], item[0].labels))
        if top_k is not None:
            ranked = ranked[:top_k]
        result[cls] = [
            AttributedEntry(key, count, count / total, key.same_category())
            for key, count in ranked
        ]
    return result
