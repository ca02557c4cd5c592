"""Motif distances, weekday/weekend aggregates, temporal series, reports.

A motif's spatial extent is the mean great-circle length of its edges.
Percentage-change series follow a weekly pattern: weekday points chain
against the previous weekday, weekend points against the previous
weekend, so the two rhythms stay separated.
"""

from __future__ import annotations

import datetime as dt
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

import jsonschema

from .errors import MissingPoiError, SchemaError
from .ingest import PoiCatalog
from .motifs import (
    CLASS_ORDER,
    InstanceRecord,
    MotifCensus,
    MotifClass,
    MotifInstance,
    instance_order,
    is_weekend,
)

# IUGG mean Earth radius; pinned so distance tests are bit-exact.
EARTH_RADIUS_KM = 6371.0088

WEIGHTING_MODES = ("devices", "instances")


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in kilometers between two degree coordinates."""
    for lat in (lat1, lat2):
        if not (math.isfinite(lat) and -90.0 <= lat <= 90.0):
            raise ValueError(f"latitude {lat} out of range [-90, 90]")
    for lon in (lon1, lon2):
        if not (math.isfinite(lon) and -180.0 <= lon <= 180.0):
            raise ValueError(f"longitude {lon} out of range [-180, 180]")
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = phi2 - phi1
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(a)))


def motif_avg_distance(instance: MotifInstance, catalog: PoiCatalog) -> float:
    """Sum of edge great-circle lengths divided by the edge count."""
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


@dataclass
class DistanceSplit:
    total_km: float | None
    weekday_km: float | None
    weekend_km: float | None


DistanceTable = dict  # key (MotifClass or AttributedMotifKey) -> DistanceSplit


def instance_distances(
    instances: Iterable[MotifInstance], catalog: PoiCatalog
) -> dict[MotifInstance, float]:
    """motif_avg_distance of every non-OTHER instance, computed once.

    One mapping serves every class_avg_distance call over these instances
    or any subset of them, however they are grouped or split by day.
    """
    return {
        inst: motif_avg_distance(inst, catalog)
        for inst in instances
        if inst.motif_class is not MotifClass.OTHER
    }


def class_avg_distance(
    instances: Mapping[MotifInstance, InstanceRecord],
    distances: Mapping[MotifInstance, float],
    weighting: str = "devices",
    key_fn=None,
) -> DistanceTable:
    """Average motif distance per class, split by day type.

    distances maps each non-OTHER instance to its motif_avg_distance (see
    instance_distances). With devices weighting each instance counts once
    per covering device-day; instances weighting counts each distinct
    instance once (day-type splits then use presence on that day type).
    key_fn can remap instances to other grouping keys, e.g. attributed
    motif keys; OTHER instances are always skipped.
    """
    if weighting not in WEIGHTING_MODES:
        raise ValueError(f"weighting must be one of {WEIGHTING_MODES}")
    if not instances:
        raise ValueError("no instances to measure")
    sums: dict = {}
    # fixed accumulation order so float sums never depend on dict history
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
    table: DistanceTable = {}
    for key, (t_km, t_w, wd_km, wd_w, we_km, we_w) in sums.items():
        table[key] = DistanceSplit(
            total_km=t_km / t_w if t_w else None,
            weekday_km=wd_km / wd_w if wd_w else None,
            weekend_km=we_km / we_w if we_w else None,
        )
    return table


def attach_distances(census: MotifCensus, table: DistanceTable) -> MotifCensus:
    """Copy per-class total distances into census rows (in place)."""
    for cls, stats in census.classes.items():
        split = table.get(cls)
        stats.avg_distance_km = split.total_km if split else None
    return census


# -- temporal series ---------------------------------------------------------


@dataclass(frozen=True)
class SeriesPoint:
    date: dt.date
    value: float | None
    day_type: str  # "weekday" | "weekend"


DailySeries = list  # list[SeriesPoint], dates strictly increasing


def day_type(day: dt.date) -> str:
    return "weekend" if is_weekend(day) else "weekday"


def daily_census_series(
    days: Iterable[tuple[dt.date, Mapping[MotifInstance, InstanceRecord]]],
    distances: Mapping[MotifInstance, float],
    weighting: str,
) -> tuple[dict[MotifClass, DailySeries], dict[MotifClass, DailySeries]]:
    """Per-class daily series of motif counts and of average distances.

    days yields (date, that day's instance tally) in increasing date order,
    so a caller can build one day's tally at a time; distances and
    weighting are as in class_avg_distance. Count series carry a point for
    every day (zero when the class is absent); distance series only carry
    days where a distance exists, so calendar gaps are preserved rather
    than filled.
    """
    counts: dict[MotifClass, DailySeries] = {c: [] for c in CLASS_ORDER}
    dists: dict[MotifClass, DailySeries] = {c: [] for c in CLASS_ORDER}
    seen: list[dt.date] = []
    for day, instances in days:
        if seen and day <= seen[-1]:
            raise ValueError(f"days out of order: {day} after {seen[-1]}")
        seen.append(day)
        kind = day_type(day)
        per_class = Counter(inst.motif_class for inst in instances)
        table = class_avg_distance(instances, distances, weighting=weighting)
        for cls in CLASS_ORDER:
            counts[cls].append(SeriesPoint(day, float(per_class[cls]), kind))
            split = table.get(cls)
            if split is not None and split.total_km is not None:
                dists[cls].append(SeriesPoint(day, split.total_km, kind))
    if len(seen) < 2:
        raise ValueError("need at least 2 days of instances")
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


def census_document(census: MotifCensus) -> dict:
    rows = []
    for cls in CLASS_ORDER:
        stats = census.classes[cls]
        rows.append(
            {
                "class": cls.value,
                "motif_count": stats.motif_count,
                "device_count": stats.device_count,
                "flow_count": stats.flow_count,
                "percentage": stats.percentage,
                "avg_distance_km": stats.avg_distance_km,
            }
        )
    return {
        "mode": census.mode,
        "device_unit": census.device_unit,
        "totals": {
            "motif_count": census.total_motifs,
            "device_count": census.total_devices,
            "flow_count": census.total_flows,
        },
        "classes": rows,
    }


def distance_document(table: DistanceTable, weighting: str) -> dict:
    rows = []
    for cls in CLASS_ORDER:
        split = table.get(cls)
        if split is None:
            continue
        rows.append(
            {
                "class": cls.value,
                "total_km": split.total_km,
                "weekday_km": split.weekday_km,
                "weekend_km": split.weekend_km,
            }
        )
    return {"weighting": weighting, "classes": rows}


def build_report(
    summary: dict,
    census: dict,
    distances: dict,
    series_files: list[str],
    config: dict,
    tool_version: str,
) -> dict:
    """Assemble and validate the run report document.

    census and distances are the census_document and distance_document
    of the run.
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
    try:
        jsonschema.validate(report, REPORT_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise SchemaError(f"report failed schema validation: {exc.message}") from None
    return report
