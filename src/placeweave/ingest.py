"""Parse stop and POI files and derive per-device-day stay sequences.

A stop becomes a visit when its dwell time reaches the configured
threshold; visits are grouped per device and local calendar day, ordered
by start time, collapsed over consecutive repeats, and kept only when at
least two distinct consecutive stays remain.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from .errors import RowError, SchemaError, UnknownSectorError

logger = logging.getLogger(__name__)

STOPS_COLUMNS = ("device_id", "poi_id", "start_time", "dwell")
POIS_COLUMNS = ("poi_id", "name", "lat", "lon", "naics")

# Separator used when serializing a stay list into one CSV field.
STAY_SEPARATOR = "|"


@dataclass(frozen=True)
class StopRecord:
    device_id: str
    poi_id: str
    start_time: int  # UTC epoch seconds
    dwell: int  # seconds, >= 0


@dataclass(frozen=True)
class PoiRecord:
    poi_id: str
    name: str
    lat: float
    lon: float
    naics: str


@dataclass(frozen=True)
class StaySequence:
    """Ordered distinct-consecutive POI visits of one device on one local day."""

    device_id: str
    local_date: dt.date
    stays: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.stays)


class PoiCatalog:
    """POI id -> record lookup with uniqueness enforced at construction."""

    def __init__(self, records: Iterable[PoiRecord] = ()):
        self._records: dict[str, PoiRecord] = {}
        for rec in records:
            if rec.poi_id in self._records:
                raise SchemaError(f"duplicate poi_id {rec.poi_id!r} in catalog")
            self._records[rec.poi_id] = rec

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, poi_id: str) -> bool:
        return poi_id in self._records

    def __getitem__(self, poi_id: str) -> PoiRecord:
        return self._records[poi_id]

    def get(self, poi_id: str) -> PoiRecord | None:
        return self._records.get(poi_id)

    def __iter__(self) -> Iterator[PoiRecord]:
        return iter(self._records.values())

    def poi_ids(self) -> list[str]:
        return sorted(self._records)


def _open_text(source: str | Path | TextIO):
    """Return (file object, should_close). Accepts a path or an open stream."""
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8", newline=""), True
    return source, False


def _check_header(fieldnames: list[str] | None, required: tuple[str, ...], what: str) -> None:
    if fieldnames is None:
        raise SchemaError(f"{what} file is empty (no header row)")
    missing = [c for c in required if c not in fieldnames]
    if missing:
        raise SchemaError(f"{what} file is missing column(s): {', '.join(missing)}")


def parse_stops(source: str | Path | TextIO) -> list[StopRecord]:
    """Read a comma-delimited stops file into StopRecord objects.

    The header must carry device_id, poi_id, start_time and dwell. A
    malformed row raises RowError with its line number; a missing column
    raises SchemaError before any row is parsed.
    """
    fh, close = _open_text(source)
    try:
        reader = csv.DictReader(fh)
        _check_header(reader.fieldnames, STOPS_COLUMNS, "stops")
        records: list[StopRecord] = []
        for row in reader:
            line = reader.line_num
            if any(row.get(c) is None for c in STOPS_COLUMNS):
                raise RowError(line, "wrong number of fields")
            device_id = row["device_id"].strip()
            poi_id = row["poi_id"].strip()
            if not device_id:
                raise RowError(line, "empty device_id")
            if not poi_id:
                raise RowError(line, "empty poi_id")
            try:
                start_time = int(row["start_time"])
                dwell = int(row["dwell"])
            except ValueError as exc:
                raise RowError(line, f"non-integer field: {exc}") from None
            if dwell < 0:
                raise RowError(line, f"negative dwell {dwell}")
            records.append(StopRecord(device_id, poi_id, start_time, dwell))
        return records
    finally:
        if close:
            fh.close()


def filter_visits(stops: list[StopRecord], min_dwell: int) -> list[StopRecord]:
    """Keep stops whose dwell time is at least min_dwell seconds."""
    if min_dwell < 0:
        raise ValueError(f"min_dwell must be >= 0, got {min_dwell}")
    return [s for s in stops if s.dwell >= min_dwell]


def filter_cataloged(
    stops: list[StopRecord], catalog: PoiCatalog
) -> tuple[list[StopRecord], int]:
    """Drop stops whose POI is not in the catalog; returns (kept, dropped)."""
    kept = [s for s in stops if s.poi_id in catalog]
    dropped = len(stops) - len(kept)
    if dropped:
        logger.warning("dropped %d stop(s) with POI ids absent from the catalog", dropped)
    return kept, dropped


def local_date(start_time: int, utc_offset: float) -> dt.date:
    tz = dt.timezone(dt.timedelta(hours=utc_offset))
    return dt.datetime.fromtimestamp(start_time, tz).date()


def build_stay_sequences(
    stops: list[StopRecord], utc_offset: float = 0.0, catalog: PoiCatalog | None = None
) -> list[StaySequence]:
    """Group visits into per-device-day sequences.

    Stops are keyed by (device, local date of start_time shifted by
    utc_offset hours) and ordered by start time, with poi_id as a
    deterministic tie-break. Consecutive repeats of the same POI collapse
    to one stay, and days with fewer than two stays are discarded. Output
    is sorted by (device_id, local_date) so the result is independent of
    input order.

    The sequences share no object with the stops (device ids are copied,
    each local date is one object, and a stay is the catalog's own poi_id
    string), so freeing the stops leaves no parse-time object pinning
    their memory.
    """
    keyed = sorted(
        ((s.device_id, local_date(s.start_time, utc_offset), s.start_time, s.poi_id) for s in stops)
    )
    poi_ids = {rec.poi_id: rec.poi_id for rec in catalog or ()}
    dates: dict[dt.date, dt.date] = {}
    sequences: list[StaySequence] = []
    own_device = None
    i = 0
    n = len(keyed)
    while i < n:
        device, day = keyed[i][0], keyed[i][1]
        stays: list[str] = []
        while i < n and keyed[i][0] == device and keyed[i][1] == day:
            poi = keyed[i][3]
            if not stays or stays[-1] != poi:
                stays.append(poi_ids.get(poi, poi))
            i += 1
        if len(stays) >= 2:
            if device != own_device:
                own_device = device.encode().decode()
            if day not in dates:
                dates[day] = dt.date(day.year, day.month, day.day)
            sequences.append(StaySequence(own_device, dates[day], tuple(stays)))
    return sequences


def load_poi_catalog(source: str | Path | TextIO) -> PoiCatalog:
    """Read a comma-delimited POI file into a catalog keyed by poi_id.

    Duplicate ids, out-of-range coordinates, non-digit NAICS codes and
    codes whose two-digit prefix maps to no sector are fatal.
    """
    from .attributes import to_sector  # attributes imports this module

    fh, close = _open_text(source)
    where = getattr(fh, "name", "POI file")
    try:
        reader = csv.DictReader(fh)
        _check_header(reader.fieldnames, POIS_COLUMNS, "POI")
        records: list[PoiRecord] = []
        for row in reader:
            line = reader.line_num
            if any(row.get(c) is None for c in POIS_COLUMNS):
                raise RowError(line, "wrong number of fields")
            poi_id = row["poi_id"].strip()
            if not poi_id:
                raise RowError(line, "empty poi_id")
            try:
                lat = float(row["lat"])
                lon = float(row["lon"])
            except ValueError as exc:
                raise RowError(line, f"non-numeric coordinate: {exc}") from None
            if not (-90.0 <= lat <= 90.0):
                raise RowError(line, f"latitude {lat} out of range [-90, 90]")
            if not (-180.0 <= lon <= 180.0):
                raise RowError(line, f"longitude {lon} out of range [-180, 180]")
            naics = row["naics"].strip()
            if not naics.isdigit():
                raise RowError(line, f"NAICS code {naics!r} is not all digits")
            if not 2 <= len(naics) <= 6:
                raise RowError(line, f"NAICS code {naics!r} must have 2-6 digits")
            try:
                to_sector(naics)
            except UnknownSectorError as exc:
                raise UnknownSectorError(f"{where}:{line}: poi_id {poi_id!r}: {exc}") from None
            records.append(PoiRecord(poi_id, row["name"], lat, lon, naics))
        return PoiCatalog(records)
    finally:
        if close:
            fh.close()


def write_sequences(sequences: list[StaySequence], path: str | Path) -> None:
    """Write sequences as CSV: device_id,local_date,stays (stays '|'-joined)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["device_id", "local_date", "stays"])
        for seq in sequences:
            for poi in seq.stays:
                if STAY_SEPARATOR in poi or "," in poi:
                    raise SchemaError(
                        f"poi_id {poi!r} contains a reserved separator character"
                    )
            writer.writerow([seq.device_id, seq.local_date.isoformat(), STAY_SEPARATOR.join(seq.stays)])


def read_sequences(source: str | Path | TextIO) -> list[StaySequence]:
    fh, close = _open_text(source)
    try:
        reader = csv.DictReader(fh)
        _check_header(reader.fieldnames, ("device_id", "local_date", "stays"), "sequences")
        sequences = []
        for row in reader:
            line = reader.line_num
            try:
                day = dt.date.fromisoformat(row["local_date"])
            except (ValueError, TypeError):
                raise RowError(line, f"bad date {row.get('local_date')!r}") from None
            stays = tuple(row["stays"].split(STAY_SEPARATOR))
            if len(stays) < 2:
                raise RowError(line, "sequence shorter than 2 stays")
            sequences.append(StaySequence(row["device_id"], day, stays))
        return sequences
    finally:
        if close:
            fh.close()


def stops_from_text(text: str) -> list[StopRecord]:
    """Convenience wrapper: parse stops from an in-memory CSV string."""
    return parse_stops(io.StringIO(text))
