"""Motif distances, weekday/weekend aggregates, temporal series, reports.

A motif's spatial extent is the mean great-circle length of its edges.
One array kernel, _great_circle_lengths, computes every such length, with
the bits of the scalar formula (haversine_km is its one-edge call). Over
the instance table it runs once per distinct instance edge; each
instance's edge lengths are gathered into columns in sorted edge order
and added left to right.
Every class table (per day, whole period, per attributed key) sums
km * weight per group with np.cumsum in instance order, so its floats
equal a left-to-right scalar loop over the instances. A table maps each
key to the row that report.json and the distance CSVs hold: the average
km under each of SPLITS, None where the split has no weight.

Percentage-change series follow a weekly pattern: weekday points chain
against the previous weekday, weekend points against the previous
weekend, so the two rhythms stay separated.
"""

from __future__ import annotations

import datetime as dt
import math
from collections import Counter
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .config import WEIGHTING_MODES
from .errors import InvariantError, MissingPoiError
from .ingest import EARTH_RADIUS_KM, PoiCatalog, day_date, group_starts, is_weekend
from .motifs import CLASS_ORDER, INDEX_CLASS, Instances, InstanceRows, MotifClass


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in kilometers between two degree coordinates."""
    lat, lon = np.array([lat1, lat2], dtype=np.float64), np.array([lon1, lon2], dtype=np.float64)
    _check_coordinates(lat, lon)
    phi = np.radians(lat)
    return _great_circle_lengths(phi, _libm(math.cos, phi), lon, np.array([[0, 1]])).item()


def _check_coordinates(lat: np.ndarray, lon: np.ndarray) -> None:
    """Raise ValueError for the first latitude outside [-90, 90], NaN and +-inf
    included, else for the first longitude outside [-180, 180]."""
    for name, values, bound in (("latitude", lat, 90.0), ("longitude", lon, 180.0)):
        bad = values[~(np.abs(values) <= bound)]  # NaN fails the test too
        if bad.size:
            raise ValueError(f"{name} {bad[0]} out of range [-{bound:g}, {bound:g}]")


# The day-type splits of a distance row: every instance, weekday ones, weekend ones.
SPLITS = ("total_km", "weekday_km", "weekend_km")


def _libm(fn, *args: np.ndarray) -> np.ndarray:
    """fn, a function of math's scalar calls, applied to each tuple of argument values."""
    values = [arg.tolist() for arg in args]
    return np.fromiter(map(fn, *values), dtype=np.float64, count=len(values[0]))


def _great_circle_lengths(
    phi: np.ndarray, cos_phi: np.ndarray, lon: np.ndarray, ends: np.ndarray
) -> np.ndarray:
    """Great-circle km of each row (u, v) of ends, point u first.

    A point is its checked latitude in radians, that latitude's cosine and
    its longitude in degrees. Within a quarter circle this is the
    haversine's asin form; beyond it, where asin of a value near 1 loses
    digits, Vincenty's atan2 form. numpy does the IEEE operations (+, -, *,
    /, sqrt, minimum, and radians: a multiply by math.radians' pi / 180),
    which round as Python's do. The transcendental steps run in math's libm
    calls: numpy's sin and arcsin may differ from libm in the last bit,
    x ** 2 is libm's pow, not x * x, and math.hypot is Python's own. So each
    length has the bits of the scalar formula in Python floats.
    """
    u, v = ends.T
    dlam = np.radians(lon[v] - lon[u])
    half = np.concatenate([(phi[v] - phi[u]) / 2.0, dlam / 2.0]).tolist()
    sin2 = np.fromiter(map(math.pow, map(math.sin, half), repeat(2.0)), np.float64, len(half))
    sin2_dphi, sin2_dlam = np.split(sin2, 2)
    cos_uv = cos_phi[u] * cos_phi[v]
    a = sin2_dphi + cos_uv * sin2_dlam
    near = a <= 0.5
    km = np.empty(len(a))
    km[near] = 2.0 * EARTH_RADIUS_KM * _libm(math.asin, np.minimum(1.0, np.sqrt(a[near])))
    far = ~near
    u, v, dl = u[far], v[far], dlam[far]
    sin_u, sin_v, sin_dl = np.split(_libm(math.sin, np.concatenate([phi[u], phi[v], dl])), 3)
    cos_dl = _libm(math.cos, dl)
    y = _libm(math.hypot, cos_phi[v] * sin_dl, cos_phi[u] * sin_v - sin_u * cos_phi[v] * cos_dl)
    x = sin_u * sin_v + cos_uv[far] * cos_dl
    km[far] = EARTH_RADIUS_KM * _libm(math.atan2, y, x)
    return km


def instance_distances(rows: InstanceRows, catalog: PoiCatalog) -> np.ndarray:
    """The motif distance of each of rows.instances: its mean edge length in km.

    The great-circle kernel (_great_circle_lengths) runs once per distinct
    instance edge; each POI's radians and cosine are computed, and the
    coordinates of the POIs in use checked, once. Each instance's edge
    lengths are added left to right in sorted edge order, then divided by
    its edge count, as a scalar loop over its edges would.
    """
    has, a, b = rows.instances.edges()
    n = len(rows.pois)
    edges, which = np.unique(a[has].astype(np.int64) * n + b[has], return_inverse=True)
    ends = np.stack([edges // n, edges % n], axis=1)
    at = catalog.codes(rows.pois)[ends]
    if (at < 0).any():
        missing = rows.pois[ends[at < 0].min()]
        raise MissingPoiError(f"poi_id {missing!r} has no coordinates in the catalog")
    _check_coordinates(catalog.lat[at], catalog.lon[at])
    phi = np.radians(catalog.lat)
    lengths = _great_circle_lengths(phi, _libm(math.cos, phi), catalog.lon, at)
    ids = np.full(has.shape, len(lengths))  # the 0.0 appended below: no edge
    ids[has] = which
    km = np.append(lengths, 0.0)[ids]
    total = km[:, 0].copy()
    for column in range(1, km.shape[1]):
        total += km[:, column]
    return total / has.sum(axis=1)


def class_avg_distance(
    instances: Instances,
    km: np.ndarray,
    weighting: str = "devices",
    groups: np.ndarray | None = None,
) -> dict:
    """Average motif distance per class and day type: key -> {split: km} over SPLITS.

    km holds the motif distance of each instance (see instance_distances).
    With devices weighting each instance counts once per covering
    device-day; instances weighting counts each distinct instance once
    (day-type splits then use presence on that day type). groups, one
    integer per instance, replaces the class as the grouping key and as the
    table's key. The instances are taken in their order, and each group's
    must be contiguous: each weighted sum is a np.cumsum, which adds left to
    right (np.sum adds pairwise, so its last bits would depend on the count).
    """
    if weighting not in WEIGHTING_MODES:
        raise ValueError(f"weighting must be one of {WEIGHTING_MODES}")
    weekday = instances.count - instances.weekend
    weights = np.stack([instances.count, weekday, instances.weekend], axis=1)
    if weighting == "instances":
        weights = np.minimum(weights, 1)
    keys = instances.cls if groups is None else groups
    start = group_starts(keys)
    weighted = km[:, None] * weights
    table = {}
    for key, lo, hi, totals in zip(
        keys[start].tolist(),
        start.tolist(),
        np.append(start[1:], len(keys)).tolist(),
        np.add.reduceat(weights, start).tolist(),
    ):
        sums = np.cumsum(weighted[lo:hi], axis=0)[-1].tolist()
        table[INDEX_CLASS[key] if groups is None else key] = {
            split: km_sum / w if w else None for split, km_sum, w in zip(SPLITS, sums, totals)
        }
    return table


# -- temporal series ---------------------------------------------------------


@dataclass(frozen=True)
class SeriesPoint:
    date: dt.date
    value: float | None
    day_type: str  # "weekday" | "weekend"


DailySeries = list  # list[SeriesPoint], dates strictly increasing


def daily_census_series(
    rows: InstanceRows, km: np.ndarray, weighting: str
) -> tuple[dict[MotifClass, DailySeries], dict[MotifClass, DailySeries]]:
    """Per-class daily series of motif counts and of average distances.

    km is the motif distance of each of rows.instances; each day's table
    counts that day's rows as class_avg_distance counts instances under
    weighting. Count series carry a point for every day with a row (zero
    when the class is absent); distance series only carry days where a
    distance exists, so calendar gaps are preserved rather than filled.
    """
    days = rows.days()
    if len(days) < 2:
        raise ValueError("need at least 2 days of instances")
    day_class = rows.day * len(INDEX_CLASS) + rows.table.cls  # rows sort by day, then class
    table = class_avg_distance(rows.table, km[rows.of_row], weighting, groups=day_class)
    per_day = Counter(day_class.tolist())
    counts: dict[MotifClass, DailySeries] = {c: [] for c in CLASS_ORDER}
    dists: dict[MotifClass, DailySeries] = {c: [] for c in CLASS_ORDER}
    for day in days:
        date, kind = day_date(day), "weekend" if is_weekend(day) else "weekday"
        for i, cls in enumerate(CLASS_ORDER):
            key = day * len(INDEX_CLASS) + i
            counts[cls].append(SeriesPoint(date, float(per_day[key]), kind))
            km = table[key]["total_km"] if key in table else None
            if km is not None:
                dists[cls].append(SeriesPoint(date, km, kind))
    return counts, dists


def pct_change_series(series: DailySeries) -> DailySeries:
    """Day-over-same-day-type percentage change.

    Weekday and weekend chains are independent; the first point of each
    chain is omitted and a zero baseline yields an undefined (None) point.
    """
    if len(series) < 2:
        raise ValueError("need at least 2 points")
    last: dict[str, float] = {}
    out: DailySeries = []
    for point in series:
        if point.value is None:
            continue
        prev = last.get(point.day_type)
        if prev is not None:
            change = None if prev == 0 else 100.0 * (point.value - prev) / prev
            out.append(SeriesPoint(point.date, change, point.day_type))
        last[point.day_type] = point.value
    return out


def moving_average(series: DailySeries, window: int = 7) -> DailySeries:
    """Trailing mean over the most recent `window` series points."""
    if window < 1:
        raise ValueError("window must be >= 1")
    if window > len(series):
        raise ValueError(f"window {window} exceeds series length {len(series)}")
    values = [p.value for p in series]
    if any(v is None for v in values):
        raise ValueError("moving average over undefined points")
    out: DailySeries = []
    for i in range(window - 1, len(series)):
        point = series[i]
        mean = math.fsum(values[i - window + 1 : i + 1]) / window
        out.append(SeriesPoint(point.date, mean, point.day_type))
    return out


# -- report ------------------------------------------------------------------

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema_version", "tool", "config", "summary", "census", "distances", "series_files"],
    "properties": {
        "schema_version": {"const": 1},
        "tool": {
            "type": "object",
            "required": ["name", "version"],
            "properties": {"name": {"type": "string"}, "version": {"type": "string"}},
        },
        "config": {"type": "object"},
        "summary": {
            "type": "object",
            "required": ["nodes", "edges", "total_weight", "average_degree", "average_clustering"],
        },
        "census": {
            "type": "object",
            "required": ["mode", "totals", "classes"],
            "properties": {
                "mode": {"enum": ["trajectory", "enumerate"]},
                "totals": {
                    "type": "object",
                    "required": ["motif_count"],
                },
                "classes": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["class", "motif_count"],
                    },
                },
            },
        },
        "distances": {
            "type": "object",
            "required": ["weighting", "classes"],
        },
        "series_files": {"type": "array", "items": {"type": "string"}},
    },
}


_SCHEMA_KEYWORDS = {"$schema", "type", "required", "properties", "items", "const", "enum"}
_JSON_TYPES = {"object": dict, "array": list, "string": str}


def _check_schema(doc, schema: dict) -> None:
    """Raise InvariantError unless doc is valid under schema.

    A JSON Schema checker for the keywords REPORT_SCHEMA uses: type (object,
    array or string), required, properties, items, const and enum; $schema
    is ignored. A subschema with any other keyword or type raises, wherever
    it sits, so that an addition to the schema is never silently skipped.
    """
    stack = [schema]
    while stack:
        sub = stack.pop()
        unknown = sub.keys() - _SCHEMA_KEYWORDS
        if unknown:
            raise InvariantError(f"report schema keywords {sorted(unknown)} are not supported")
        if "type" in sub and sub["type"] not in tuple(_JSON_TYPES):  # a tuple also takes a list
            raise InvariantError(f"report schema type {sub['type']!r} is not supported")
        stack.extend(sub.get("properties", {}).values())
        if "items" in sub:
            stack.append(sub["items"])
    problem = _schema_problem(doc, schema, "report")
    if problem:
        raise InvariantError(f"report failed schema validation: {problem}")


def _schema_problem(doc, schema: dict, at: str) -> str | None:
    """The first way doc breaks schema, or None; at names doc's place."""
    if "type" in schema and not isinstance(doc, _JSON_TYPES[schema["type"]]):
        return f"{at}: {doc!r} is not of type {schema['type']!r}"
    if "const" in schema and not _json_equal(doc, schema["const"]):
        return f"{at}: {schema['const']!r} was expected"
    if "enum" in schema and not any(_json_equal(doc, v) for v in schema["enum"]):
        return f"{at}: {doc!r} is not one of {schema['enum']!r}"
    parts = []
    if isinstance(doc, dict):
        for key in schema.get("required", ()):
            if key not in doc:
                return f"{at}: {key!r} is a required property"
        properties = schema.get("properties", {})
        parts = [(doc[k], sub, f"{at}.{k}") for k, sub in properties.items() if k in doc]
    elif isinstance(doc, list) and "items" in schema:
        parts = [(item, schema["items"], f"{at}[{i}]") for i, item in enumerate(doc)]
    for value, sub, where in parts:
        problem = _schema_problem(value, sub, where)
        if problem:
            return problem
    return None


def _json_equal(a, b) -> bool:
    """JSON equality of scalars: 1 equals 1.0, but true is not 1 and false is not 0."""
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def build_report(
    summary: dict,
    census: dict,
    distances: dict,
    series_files: list[str],
    config: dict,
    tool_version: str,
) -> dict:
    """Assemble and validate the run report document.

    census is the run's motifs.census_document, and distances the weighting
    and the CLASS_ORDER rows of its whole-period class_avg_distance table.
    """
    report = {
        "schema_version": 1,
        "tool": {"name": "placeweave", "version": tool_version},
        "config": config,
        "summary": summary,
        "census": census,
        "distances": distances,
        "series_files": sorted(series_files),
    }
    _check_schema(report, REPORT_SCHEMA)
    return report
