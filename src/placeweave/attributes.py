"""NAICS sector mapping, category visit shares, and attributed motif keys.

An attributed motif carries a sector label on every node; two labeled
occurrences are the same lifestyle exactly when some vertex bijection
preserves both edges and labels. The key positions of each class are
those of its shape in motifs.CLASS_SHAPES, and its label sequence is
reduced to the lexicographic minimum over the class's automorphism group.
For every connected edge mask of the instance table, KEY_PERMS stores the
slot permutations that carry the class shape onto it; an instance's key is
the minimum of its sector-id rows under them, packed with its class into
one integer. key_codes packs every instance's labels under all 24 slot
orders with column shifts and ors, masks the orders its edge mask's
KEY_PERMS rows lack, and takes the minimum, so no per-instance permutation
rows are gathered. The attributed census and the endpoint tally are grouped
integer sums over those keys and over the instance edges; the census comes
out as the rows of attributed_census.csv.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import MissingPoiError, UnknownSectorError
from .ingest import PoiCatalog, group_starts
from .motifs import EMBEDDINGS, INDEX_CLASS, InstanceRows, MotifClass


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
    tally: np.ndarray, catalog: PoiCatalog, digits: int = 2
) -> list[tuple[str, float]]:
    """Rank categories by their share of visit-flow endpoints.

    tally holds the number of flow endpoints at each catalog row (see
    endpoint_counts). digits=2 buckets by sector label, digits=4 by the
    leading four NAICS digits. Returns the ranked (label, share) list,
    shares summing to 1.
    """
    if digits not in (2, 4):
        raise ValueError(f"digits must be 2 or 4, got {digits}")
    rows = np.flatnonzero(tally).tolist()
    if digits == 2:
        labels = [_ID_SECTOR[s].label for s in catalog.sector[rows].tolist()]
    else:
        labels = [catalog.naics[i][:4] for i in rows]
    counts: Counter[str] = Counter()
    for label, count in zip(labels, tally[rows].tolist()):
        counts[label] += count
    total = sum(counts.values())
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return [(label, count / total) for label, count in ranked]


@dataclass(frozen=True)
class AttributedMotifKey:
    """Motif class plus canonical sector labels, one per position."""

    motif_class: MotifClass
    labels: tuple[int, ...]

    def same_category(self) -> bool:
        return len(set(self.labels)) == 1

    @property
    def label_field(self) -> str:
        """The labels field of the attributed files: the sector ids '|'-joined."""
        return "|".join(map(str, self.labels))


_LABEL_BITS = 5  # sector ids run 1..20

# KEY_PERMS[mask]: the maps from key position to slot that carry the class
# shape onto each connected mask (its automorphisms, read through the key
# positions), repeated to 24 rows; the identity for every other mask.
KEY_PERMS = np.array(
    [(EMBEDDINGS.get(mask, (None, [(0, 1, 2, 3)]))[1] * 24)[:24] for mask in range(64)],
    dtype=np.int8,
)
# Every map from key position to slot, and _ALLOWED[mask, j]: whether
# _SLOT_ORDERS[j] is one of the mask's KEY_PERMS rows, each map read as a
# base-4 number.
_SLOT_ORDERS = list(itertools.permutations(range(4)))
_BASE4 = np.array([64, 16, 4, 1])
_ALLOWED = ((KEY_PERMS @ _BASE4)[:, :, None] == np.array(_SLOT_ORDERS) @ _BASE4).any(axis=1)


def key_codes(cls: np.ndarray, mask: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """The attributed key of each connected instance, as one integer.

    labels holds each instance's sector id per node slot (0 beyond its
    size). The key is the class index above the lexicographic minimum,
    over the mask's KEY_PERMS, of the labels in key-position order, read as
    base-32 digits (first position highest): keys sort by class, then by
    label sequence. Each instance's code is built under all 24 slot orders
    from shifted label columns; those its mask does not allow read as the
    int32 maximum, and the minimum is taken.
    """
    slots = labels.T.astype(np.int32)
    shifted = [[slots[slot] << _LABEL_BITS * (3 - position) for slot in range(4)]
               for position in range(4)]
    code = np.empty((len(_SLOT_ORDERS), len(labels)), dtype=np.int32)
    for row, (a, b, c, d) in zip(code, _SLOT_ORDERS):
        np.bitwise_or(shifted[0][a], shifted[1][b], out=row)
        row |= shifted[2][c]
        row |= shifted[3][d]
    np.putmask(code, ~_ALLOWED.T[:, mask], np.iinfo(np.int32).max)
    return cls.astype(np.int64) << 4 * _LABEL_BITS | code.min(axis=0)


def canonical_keys(rows: InstanceRows, catalog: PoiCatalog) -> np.ndarray:
    """key_codes of each of rows.instances under the catalog's sectors."""
    inst = rows.instances
    used = np.flatnonzero(np.bincount(inst.nodes[inst.nodes >= 0], minlength=len(rows.pois)))
    at = catalog.codes(rows.pois)[used]
    if (at < 0).any():
        raise MissingPoiError(f"poi_id {rows.pois[used[at < 0][0]]!r} is not in the catalog")
    sector = np.zeros(len(rows.pois) + 1, dtype=np.int8)  # the last entry labels slot code -1
    sector[used] = catalog.sector[at]
    return key_codes(inst.cls, inst.mask, sector[inst.nodes])


def attributed_key(key: int) -> AttributedMotifKey:
    """The class and label sequence of a key_codes integer."""
    cls = INDEX_CLASS[key >> 4 * _LABEL_BITS]
    return AttributedMotifKey(
        cls, tuple(key >> _LABEL_BITS * (3 - k) & 31 for k in range(cls.size))
    )


def endpoint_counts(rows: InstanceRows, catalog: PoiCatalog) -> tuple[np.ndarray, int]:
    """Flow endpoints at each catalog row, and the number at POIs absent
    from the catalog. Each edge of an instance is one flow per covering
    device-day, so both its ends count its device_count."""
    inst = rows.instances
    has, a, b = inst.edges()
    weight = np.broadcast_to(inst.count[:, None], has.shape)[has]
    other = [(end, count) for _, _, edges, count in rows.other for edge in edges for end in edge]
    ends = catalog.codes(rows.pois)[np.concatenate([a[has], b[has]])]
    at = np.concatenate([ends, catalog.codes([end for end, _ in other])])
    weight = np.concatenate([weight, weight, np.array([c for _, c in other], dtype=np.int64)])
    known = at >= 0
    tally = np.zeros(len(catalog), dtype=np.int64)
    np.add.at(tally, at[known], weight[known])
    return tally, int(weight[~known].sum())


def attributed_census(rows: InstanceRows, keys: np.ndarray, top_k: int = 10) -> list[dict]:
    """The rows of attributed_census.csv: each class's most frequent attributed motifs.

    keys holds the canonical_keys of rows.instances; device counts are
    summed per key as integers. A row, keyed by the file's columns, gives a
    key's class, labels and sector label names ('|' and ' + '-joined), its
    device count, its share of the class total, and whether its labels are
    all one sector ("yes" or "no"). Rows come in CLASS_ORDER, then by share
    descending with the label sequence as the deterministic tie-break; each
    class keeps its top_k keys. OTHER instances are skipped.
    """
    if not len(rows):
        raise ValueError("no instances to attribute")
    order = np.argsort(keys, kind="stable")
    start = group_starts(keys[order])
    counts = np.add.reduceat(rows.instances.count[order], start)
    per_class: dict[MotifClass, list[tuple[AttributedMotifKey, int]]] = {}
    for key, count in zip(keys[order[start]].tolist(), counts.tolist()):
        key = attributed_key(key)
        per_class.setdefault(key.motif_class, []).append((key, count))
    ranked = []
    for cls, bucket in per_class.items():  # in CLASS_ORDER, as keys sort by class first
        total = sum(count for _, count in bucket)
        for key, count in sorted(bucket, key=lambda item: (-item[1], item[0].labels))[:top_k]:
            ranked.append({
                "class": cls.value,
                "labels": key.label_field,
                "label_names": " + ".join(sector_by_id(i).label for i in key.labels),
                "device_count": count,
                "share": count / total,
                "same_category": "yes" if key.same_category() else "no",
            })
    return ranked
