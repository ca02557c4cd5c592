"""Parse stop and POI files into integer tables and derive per-device-day stay sequences.

Device ids and POI ids are interned once: each becomes an int32 code into a
sorted list of names, so integer order equals string order and every sort
by name is a sort by code. Names are attached again only when a file is
written. Stops are held as a StopTable of columns; after the catalog join
their POI codes index the catalog's sorted poi_ids.

A stop becomes a visit when its dwell time reaches the configured
threshold. Visits are grouped per device and local calendar day, ordered
by start time with poi_id breaking ties, collapsed over consecutive
repeats, and kept only when at least two stays remain. The local day of a
stop is

    (start_time * 10**6 + off_us) // 86_400_000_000

days after 1970-01-01, where off_us is the UTC offset in whole
microseconds as datetime.timedelta rounds it; that is the date local_date
returns. The sequences are one SequenceTable: a device code and day number
per sequence and one flat array of POI codes cut by offsets.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import logging
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator, TextIO

import numpy as np

from .errors import InvariantError, RowError, SchemaError, UnknownSectorError

logger = logging.getLogger(__name__)

STOPS_COLUMNS = ("device_id", "poi_id", "start_time", "dwell")
POIS_COLUMNS = ("poi_id", "name", "lat", "lon", "naics")

# Separator used when serializing a stay list into one CSV field.
STAY_SEPARATOR = "|"
# Characters the sequence and instance files use as separators; no poi_id may
# hold one. No id may hold a line break: csv.writer leaves a bare "\r" unquoted.
LINE_BREAKS = ("\r", "\n")
RESERVED_CHARACTERS = (STAY_SEPARATOR, ";", ",", *LINE_BREAKS)

EPOCH = dt.date(1970, 1, 1)
_US_PER_DAY = 86_400_000_000
_INT64 = np.iinfo(np.int64)


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


def day_date(day: int) -> dt.date:
    """The date of a day number (days after 1970-01-01)."""
    return EPOCH + dt.timedelta(days=int(day))


def _intern(values: list[str]) -> tuple[list[str], np.ndarray]:
    """Sorted distinct values and the int32 code of each value.

    The names are fresh copies, so holding them pins none of the parse
    buffers the values came from.
    """
    names = sorted(set(values))
    index = {v: i for i, v in enumerate(names)}
    codes = np.fromiter(map(index.__getitem__, values), dtype=np.int32, count=len(values))
    return [v.encode().decode() for v in names], codes


@dataclass(eq=False)
class StopTable:
    """Stops as columns, one entry per stop in file order.

    device and poi are int32 codes into the sorted devices and pois lists;
    start_time (UTC epoch seconds) and dwell (seconds, >= 0) are int64.
    """

    devices: list[str]
    pois: list[str]
    device: np.ndarray
    poi: np.ndarray
    start_time: np.ndarray
    dwell: np.ndarray

    def __len__(self) -> int:
        return len(self.device)

    def take(self, rows: np.ndarray) -> StopTable:
        """The stops selected by a boolean mask or index array; names unchanged."""
        return replace(
            self,
            device=self.device[rows],
            poi=self.poi[rows],
            start_time=self.start_time[rows],
            dwell=self.dwell[rows],
        )

    @classmethod
    def from_records(cls, records: Iterable[StopRecord]) -> StopTable:
        records = list(records)
        devices, device = _intern([r.device_id for r in records])
        pois, poi = _intern([r.poi_id for r in records])
        start = np.array([r.start_time for r in records], dtype=np.int64)
        dwell = np.array([r.dwell for r in records], dtype=np.int64)
        return cls(devices, pois, device, poi, start, dwell)

    def records(self) -> list[StopRecord]:
        columns = (self.device, self.poi, self.start_time, self.dwell)
        return [
            StopRecord(self.devices[d], self.pois[p], t, w)
            for d, p, t, w in zip(*(column.tolist() for column in columns))
        ]


@dataclass(eq=False)
class SequenceTable:
    """Stay sequences as one table.

    Sequence i is device devices[device[i]] on local day day[i] (days after
    1970-01-01) visiting pois[stays[offsets[i]:offsets[i + 1]]] in order.
    Both name lists are sorted; device is int32, day and offsets int64,
    stays int32. Iterating yields StaySequence views.
    """

    devices: list[str]
    pois: list[str]
    device: np.ndarray
    day: np.ndarray
    offsets: np.ndarray
    stays: np.ndarray

    def __len__(self) -> int:
        return len(self.device)

    def select(self, rows: np.ndarray) -> SequenceTable:
        """The sequences a boolean mask selects, in order; names unchanged."""
        lengths = np.diff(self.offsets)
        offsets = np.zeros(np.count_nonzero(rows) + 1, dtype=np.int64)
        np.cumsum(lengths[rows], out=offsets[1:])
        return replace(
            self,
            device=self.device[rows],
            day=self.day[rows],
            offsets=offsets,
            stays=self.stays[np.repeat(rows, lengths)],
        )

    def walks(self) -> Iterator[tuple[str, dt.date, tuple[str, ...]]]:
        """(device_id, local_date, stays) per sequence; one date object per day."""
        days = self.day.tolist()
        dates = {d: day_date(d) for d in set(days)}
        names = np.array(self.pois, dtype=object)[self.stays].tolist()
        bounds = self.offsets.tolist()
        for i, (device, day) in enumerate(zip(self.device.tolist(), days)):
            yield self.devices[device], dates[day], tuple(names[bounds[i] : bounds[i + 1]])

    def __iter__(self) -> Iterator[StaySequence]:
        return (StaySequence(*walk) for walk in self.walks())

    def __eq__(self, other) -> bool:
        if not isinstance(other, SequenceTable):
            return NotImplemented
        return list(self) == list(other)

    @classmethod
    def from_sequences(cls, sequences: Iterable[StaySequence]) -> SequenceTable:
        """The table of the given sequences, in their order."""
        device_ids: list[str] = []
        days: list[int] = []
        lengths: list[int] = []
        flat: list[str] = []
        for seq in sequences:
            device_ids.append(seq.device_id)
            days.append((seq.local_date - EPOCH).days)
            lengths.append(len(seq.stays))
            flat.extend(seq.stays)
        devices, device = _intern(device_ids)
        pois, stays = _intern(flat)
        offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        return cls(devices, pois, device, np.array(days, dtype=np.int64), offsets, stays)


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


def _check_stop_rows(fh: TextIO) -> None:
    """Raise RowError at the first malformed stop row, numbered as csv.DictReader numbers it."""
    reader = csv.DictReader(fh)
    for row in reader:
        line = reader.line_num
        if any(row.get(c) is None for c in STOPS_COLUMNS):
            raise RowError(line, "wrong number of fields")
        if not row["device_id"].strip():
            raise RowError(line, "empty device_id")
        if any(ch in row["device_id"].strip() for ch in LINE_BREAKS):
            where = getattr(fh, "name", "stops file")
            raise SchemaError(f"{where}:{line}: device_id {row['device_id']!r} holds a line break")
        if not row["poi_id"].strip():
            raise RowError(line, "empty poi_id")
        try:
            start_time = int(row["start_time"])
            dwell = int(row["dwell"])
        except ValueError as exc:
            raise RowError(line, f"non-integer field: {exc}") from None
        if dwell < 0:
            raise RowError(line, f"negative dwell {dwell}")
        if not (_INT64.min <= start_time <= _INT64.max and dwell <= _INT64.max):
            raise RowError(line, "integer field outside the 64-bit range")


def _bulk_stops(fh: TextIO) -> StopTable | None:
    """The stops file's table, or None when some row needs the row check."""
    reader = csv.reader(fh)
    header = next(reader, None)
    _check_header(header, STOPS_COLUMNS, "stops")
    # dict(zip(header, row)) keeps a repeated column's last field
    last = {name: i for i, name in enumerate(header)}
    i_dev, i_poi, i_start, i_dwell = (last[c] for c in STOPS_COLUMNS)
    need = max(i_dev, i_poi, i_start, i_dwell) + 1
    device_ids: list[str] = []
    poi_ids: list[str] = []
    starts: list[str] = []
    dwells: list[str] = []
    for row in reader:
        if len(row) >= need:
            device_ids.append(row[i_dev])
            poi_ids.append(row[i_poi])
            starts.append(row[i_start])
            dwells.append(row[i_dwell])
        elif row:
            return None
    n = len(device_ids)
    try:
        start = np.fromiter(map(int, starts), dtype=np.int64, count=n)
        dwell = np.fromiter(map(int, dwells), dtype=np.int64, count=n)
    except (ValueError, OverflowError):
        return None
    del starts, dwells  # free each column once it is converted
    devices, device = _intern(list(map(str.strip, device_ids)))
    del device_ids
    pois, poi = _intern(list(map(str.strip, poi_ids)))
    del poi_ids
    if devices[:1] == [""] or pois[:1] == [""] or (dwell < 0).any():  # "" sorts first
        return None
    if any(ch in device for device in devices for ch in LINE_BREAKS):
        return None
    return StopTable(devices, pois, device, poi, start, dwell)


def parse_stops(source: str | Path | TextIO) -> StopTable:
    """Read a comma-delimited stops file into a StopTable.

    The header must carry device_id, poi_id, start_time and dwell. Rows are
    read as csv.DictReader reads them: blank rows are skipped, extra fields
    are allowed and a repeated column's last field wins. The columns are
    converted in bulk; on any irregularity the file is read again and
    checked row by row, so a malformed row raises RowError with its line
    number, and a device_id holding a line break SchemaError naming the file
    and line. A missing column raises SchemaError before any row is parsed.
    """
    fh, close = _open_text(source)
    try:
        begin = fh.tell()
        table = _bulk_stops(fh)
        if table is None:
            fh.seek(begin)
            _check_stop_rows(fh)
            raise InvariantError("the bulk stop parse rejected a file the row check accepts")
        return table
    finally:
        if close:
            fh.close()


def filter_visits(stops: StopTable, min_dwell: int) -> StopTable:
    """Keep stops whose dwell time is at least min_dwell seconds."""
    if min_dwell < 0:
        raise ValueError(f"min_dwell must be >= 0, got {min_dwell}")
    return stops.take(stops.dwell >= min_dwell)


def filter_cataloged(stops: StopTable, catalog: PoiCatalog) -> tuple[StopTable, int]:
    """Drop stops whose POI is not in the catalog; returns (kept, dropped).

    The kept stops' POI codes index the catalog's sorted poi_ids, whose
    strings are the catalog's own.
    """
    poi_ids = catalog.poi_ids()
    index = {poi: i for i, poi in enumerate(poi_ids)}
    code = np.array([index.get(p, -1) for p in stops.pois], dtype=np.int32)[stops.poi]
    known = code >= 0
    kept = replace(stops.take(known), pois=poi_ids, poi=code[known])
    dropped = len(stops) - len(kept)
    if dropped:
        logger.warning("dropped %d stop(s) with POI ids absent from the catalog", dropped)
    return kept, dropped


def local_date(start_time: int, utc_offset: float) -> dt.date:
    tz = dt.timezone(dt.timedelta(hours=utc_offset))
    return dt.datetime.fromtimestamp(start_time, tz).date()


def local_days(start_time: np.ndarray, utc_offset: float) -> np.ndarray:
    """Local day numbers (days after 1970-01-01) of int64 UTC epoch seconds.

    Day d is local_date's date EPOCH + d. local_date runs on the earliest
    and latest time first, so an out-of-range time or offset raises what
    local_date raises for it.
    """
    if start_time.size:
        local_date(int(start_time.min()), utc_offset)
        local_date(int(start_time.max()), utc_offset)
    off_us = dt.timedelta(hours=utc_offset) // dt.timedelta(microseconds=1)
    return (start_time * 1_000_000 + off_us) // _US_PER_DAY


def build_stay_sequences(stops: StopTable, utc_offset: float = 0.0) -> SequenceTable:
    """Group visits into per-device-day sequences.

    Stops are keyed by (device, local date of start_time shifted by
    utc_offset hours) and ordered by start time, with poi_id as a
    deterministic tie-break: one lexsort over the codes. Consecutive
    repeats of the same POI collapse to one stay, and days with fewer than
    two stays are discarded. Sequences are sorted by (device_id,
    local_date), so the result is independent of input order. The table
    keeps the stops' POI names and the devices that have a sequence.
    """
    days = local_days(stops.start_time, utc_offset)
    order = np.lexsort((stops.poi, stops.start_time, days, stops.device))
    device, day, poi = stops.device[order], days[order], stops.poi[order]
    del days, order  # the sort's temporaries go before the table is built
    first = np.ones(len(poi), dtype=bool)  # first stop of its device-day
    first[1:] = (device[1:] != device[:-1]) | (day[1:] != day[:-1])
    keep = first.copy()
    keep[1:] |= poi[1:] != poi[:-1]
    device, day, poi, first = device[keep], day[keep], poi[keep], first[keep]
    starts = np.flatnonzero(first)
    lengths = np.diff(np.append(starts, len(poi)))
    long = lengths >= 2
    starts = starts[long]
    has_sequence = np.zeros(len(stops.devices), dtype=bool)
    has_sequence[device[starts]] = True
    offsets = np.zeros(len(starts) + 1, dtype=np.int64)
    np.cumsum(lengths[long], out=offsets[1:])
    return SequenceTable(
        devices=[stops.devices[i] for i in np.flatnonzero(has_sequence).tolist()],
        pois=stops.pois,
        device=(np.cumsum(has_sequence, dtype=np.int32) - 1)[device[starts]],
        day=day[starts],
        offsets=offsets,
        stays=poi[np.repeat(long, lengths)],
    )


def load_poi_catalog(source: str | Path | TextIO) -> PoiCatalog:
    """Read a comma-delimited POI file into a catalog keyed by poi_id.

    Duplicate ids, ids holding a reserved separator (| ; , or a line
    break), out-of-range coordinates, non-digit NAICS codes and codes whose
    two-digit prefix maps to no sector are fatal.
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
            if any(ch in poi_id for ch in RESERVED_CHARACTERS):
                raise SchemaError(
                    f"{where}:{line}: poi_id {poi_id!r} contains a reserved separator "
                    "(| ; , or a line break)"
                )
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


def write_sequences(sequences: SequenceTable, path: str | Path) -> None:
    """Write sequences as CSV: device_id,local_date,stays (stays '|'-joined)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["device_id", "local_date", "stays"])
        writer.writerows(
            (device, day.isoformat(), STAY_SEPARATOR.join(stays))
            for device, day, stays in sequences.walks()
        )


def read_sequences(source: str | Path | TextIO) -> SequenceTable:
    fh, close = _open_text(source)
    try:
        reader = csv.DictReader(fh)
        _check_header(reader.fieldnames, ("device_id", "local_date", "stays"), "sequences")

        def rows() -> Iterator[StaySequence]:
            for row in reader:
                line = reader.line_num
                try:
                    day = dt.date.fromisoformat(row["local_date"])
                except (ValueError, TypeError):
                    raise RowError(line, f"bad date {row.get('local_date')!r}") from None
                stays = tuple(row["stays"].split(STAY_SEPARATOR))
                if len(stays) < 2:
                    raise RowError(line, "sequence shorter than 2 stays")
                if any(a == b for a, b in zip(stays, stays[1:])):
                    raise RowError(line, "a walk repeats a stay consecutively")
                yield StaySequence(row["device_id"], day, stays)

        return SequenceTable.from_sequences(rows())
    finally:
        if close:
            fh.close()


def stops_from_text(text: str) -> StopTable:
    """Convenience wrapper: parse stops from an in-memory CSV string."""
    return parse_stops(io.StringIO(text))
