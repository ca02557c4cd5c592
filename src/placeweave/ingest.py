"""Parse stop and POI files into integer tables and derive per-device-day stay sequences.

Device ids and POI ids are interned once: each becomes an int32 code into a
sorted list of names, so integer order equals string order and every sort
by name is a sort by code. Names are attached again only when a file is
written. Stops are held as a StopTable of columns; after the catalog join
their POI codes index the catalog's poi_ids.

The POI catalog is columns in poi_id order, each POI's sector resolved
once when the catalog is built; consumers find an id's row through
PoiCatalog.codes. A repeated poi_id is fatal, naming the file and line.

Every CSV file the package reads goes through CsvRows: a bad row raises
RowError starting FILE:LINE:. Stops and POIs may carry further columns and
trailing fields; the files the program writes must match their header.

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
import json
import logging
from contextlib import AbstractContextManager
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Iterator, Sequence, TextIO

import numpy as np

from .errors import InvariantError, RowError, SchemaError, UnknownSectorError, WalkError

logger = logging.getLogger(__name__)

STOPS_COLUMNS = ("device_id", "poi_id", "start_time", "dwell")
POIS_COLUMNS = ("poi_id", "name", "lat", "lon", "naics")
SEQUENCES_COLUMNS = ("device_id", "local_date", "stays")

# Separator used when serializing a stay list into one CSV field.
STAY_SEPARATOR = "|"
# Separator of the edges in an instance file's edges field.
EDGE_SEPARATOR = ";"
# Characters the sequence and instance files use as separators; no poi_id may
# hold one. No id may hold a line break: csv.writer leaves a bare "\r" unquoted.
LINE_BREAKS = ("\r", "\n")
RESERVED_CHARACTERS = (STAY_SEPARATOR, EDGE_SEPARATOR, ",", *LINE_BREAKS)

EPOCH = dt.date(1970, 1, 1)
_US_PER_DAY = 86_400_000_000
_INT64 = np.iinfo(np.int64)


@dataclass(eq=False)
class PoiCatalog:
    """POIs as columns in poi_id order; the ids are distinct.

    lat and lon are float64; sector is each POI's int8 sector id, resolved
    once when the catalog is built.
    """

    poi_ids: list[str]
    names: list[str]
    lat: np.ndarray
    lon: np.ndarray
    naics: list[str]
    sector: np.ndarray

    @classmethod
    def from_rows(cls, rows: list[tuple[str, str, float, float, str, int]]) -> PoiCatalog:
        """The catalog of (poi_id, name, lat, lon, naics, sector id) rows with distinct ids."""
        poi_ids, names, lat, lon, naics, sector = zip(*sorted(rows)) if rows else [()] * 6
        return cls(
            list(poi_ids),
            list(names),
            np.array(lat, dtype=np.float64),
            np.array(lon, dtype=np.float64),
            list(naics),
            np.array(sector, dtype=np.int8),
        )

    def __len__(self) -> int:
        return len(self.poi_ids)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {poi: i for i, poi in enumerate(self.poi_ids)}

    def codes(self, ids: Sequence[str]) -> np.ndarray:
        """The int32 row of each id in the catalog, -1 for an absent id."""
        return np.fromiter((self._index.get(p, -1) for p in ids), dtype=np.int32, count=len(ids))


def day_date(day: int) -> dt.date:
    """The date of a day number (days after 1970-01-01)."""
    return EPOCH + dt.timedelta(days=int(day))


def is_weekend(day: int | np.ndarray) -> bool | np.ndarray:
    """Whether a day number (an int or an int array) is a Saturday or Sunday."""
    return (day + 3) % 7 >= 5  # day 0, 1970-01-01, was a Thursday


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


@dataclass(eq=False)
class SequenceTable:
    """Stay sequences as one table.

    Sequence i is device devices[device[i]] on local day day[i] (days after
    1970-01-01) visiting pois[stays[offsets[i]:offsets[i + 1]]] in order.
    Both name lists are sorted; device is int32, day and offsets int64,
    stays int32.
    """

    devices: list[str]
    pois: list[str]
    device: np.ndarray
    day: np.ndarray
    offsets: np.ndarray
    stays: np.ndarray

    def __len__(self) -> int:
        return len(self.device)

    def steps(self) -> tuple[np.ndarray, np.ndarray]:
        """The sequence of each stay, and the position of each step: stays[position]
        then stays[position + 1] of one sequence. A walk of fewer than 2 stays or
        with a stay repeated consecutively raises WalkError naming its device and
        date, and for a repeat the POI."""
        sequence = np.repeat(np.arange(len(self)), np.diff(self.offsets))
        position = np.flatnonzero(sequence[:-1] == sequence[1:])
        short = np.flatnonzero(np.diff(self.offsets) < 2)[:1].tolist()
        repeat = position[self.stays[position] == self.stays[position + 1]][:1].tolist()
        broken = [(i, "is shorter than 2 stays") for i in short]
        for i in repeat:
            poi = self.pois[self.stays[i]]
            broken.append((sequence[i], f"repeats a stay consecutively (duplicate stay {poi!r})"))
        if broken:
            i, rule = min(broken)
            device, date = self.devices[self.device[i]], day_date(self.day[i])
            raise WalkError(i, f"a walk {rule}: device {device!r} on {date}")
        return sequence, position

    def walks(self) -> Iterator[tuple[str, dt.date, tuple[str, ...]]]:
        """(device_id, local_date, stays) per sequence; one date object per day."""
        days = self.day.tolist()
        dates = {d: day_date(d) for d in set(days)}
        names = np.array(self.pois, dtype=object)[self.stays].tolist()
        bounds = self.offsets.tolist()
        for i, (device, day) in enumerate(zip(self.device.tolist(), days)):
            yield self.devices[device], dates[day], tuple(names[bounds[i] : bounds[i + 1]])


class CsvRows(AbstractContextManager):
    """The data rows of a comma-delimited file with a header row.

    A context manager over a path or a seekable stream; it closes only a
    file it opened. Errors name the file as where: the path, the stream's
    name or "<what> file". The header must hold every one of columns, and
    with exact be columns, in order. Iterating yields (line, fields) per
    non-blank row, fields in columns order (a repeated column's last field
    wins); a row with fewer fields than the header, or with exact more,
    raises RowError. quoting is csv.reader's; QUOTE_NONE reads unquoted files.
    """

    def __init__(
        self, source: str | Path | TextIO, columns: tuple[str, ...], what: str,
        exact: bool = False, quoting: int = csv.QUOTE_MINIMAL,
    ):
        self.columns, self.exact, self.quoting = columns, exact, quoting
        self._owned = isinstance(source, (str, Path))
        self._fh = open(source, "r", encoding="utf-8", newline="") if self._owned else source
        self.where = str(source) if self._owned else getattr(source, "name", f"{what} file")
        self._begin = self._fh.tell()

    def __exit__(self, *exc) -> None:
        if self._owned:
            self._fh.close()

    def error(self, line: int, message: str) -> RowError:
        return RowError(self.where, line, message)

    def reader(self) -> tuple[Iterator[list[str]], list[int], int]:
        """A csv.reader from the start of the file, past its checked header,
        each column's field position and the number of header fields."""
        self._fh.seek(self._begin)
        reader = csv.reader(self._fh, quoting=self.quoting)
        header = next(reader, [])
        missing = [c for c in self.columns if c not in header]
        if missing:
            raise SchemaError(f"{self.where}: missing column(s): {', '.join(missing)}")
        if self.exact and header != list(self.columns):
            raise SchemaError(f"{self.where}: the header must be {','.join(self.columns)}")
        last = {name: i for i, name in enumerate(header)}
        return reader, [last[c] for c in self.columns], len(header)

    def __iter__(self) -> Iterator[tuple[int, list[str]]]:
        reader, index, width = self.reader()
        for row in reader:
            if len(row) == width or (len(row) > width and not self.exact):
                yield reader.line_num, row if self.exact else [row[i] for i in index]
            elif row:
                raise self.error(reader.line_num, "wrong number of fields")


def write_json(doc: dict, path: str | Path) -> None:
    """Write doc as JSON: indent 2, sorted keys, a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _check_stop_rows(rows: CsvRows) -> None:
    """Raise RowError at the first malformed stop row."""
    for line, (device_id, poi_id, start_time, dwell) in rows:
        if not device_id.strip():
            raise rows.error(line, "empty device_id")
        if any(ch in device_id.strip() for ch in LINE_BREAKS):
            raise rows.error(line, f"device_id {device_id!r} holds a line break")
        if not poi_id.strip():
            raise rows.error(line, "empty poi_id")
        try:
            start_time, dwell = int(start_time), int(dwell)
        except ValueError as exc:
            raise rows.error(line, f"non-integer field: {exc}") from None
        if dwell < 0:
            raise rows.error(line, f"negative dwell {dwell}")
        if not (_INT64.min <= start_time <= _INT64.max and dwell <= _INT64.max):
            raise rows.error(line, "integer field outside the 64-bit range")


def _bulk_stops(rows: CsvRows) -> StopTable | None:
    """The stops file's table, or None when some row needs the row check."""
    reader, (i_dev, i_poi, i_start, i_dwell), width = rows.reader()
    device_ids: list[str] = []
    poi_ids: list[str] = []
    starts: list[str] = []
    dwells: list[str] = []
    for row in reader:
        if len(row) >= width:
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

    The header must carry device_id, poi_id, start_time and dwell. The
    columns are converted in bulk; on any irregularity the file is read
    again and checked row by row, so a malformed row raises RowError naming
    the file and line.
    """
    with CsvRows(source, STOPS_COLUMNS, "stops") as rows:
        table = _bulk_stops(rows)
        if table is None:
            _check_stop_rows(rows)
            raise InvariantError("the bulk stop parse rejected a file the row check accepts")
    return table


def filter_visits(stops: StopTable, min_dwell: int) -> StopTable:
    """Keep stops whose dwell time is at least min_dwell seconds."""
    if min_dwell < 0:
        raise ValueError(f"min_dwell must be >= 0, got {min_dwell}")
    return stops.take(stops.dwell >= min_dwell)


def filter_cataloged(stops: StopTable, catalog: PoiCatalog) -> tuple[StopTable, int]:
    """Drop stops whose POI is not in the catalog; returns (kept, dropped).

    The kept stops' POI codes index the catalog's poi_ids.
    """
    code = catalog.codes(stops.pois)[stops.poi]
    known = code >= 0
    kept = replace(stops.take(known), pois=catalog.poi_ids, poi=code[known])
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
    """Read a comma-delimited POI file into a catalog in poi_id order.

    Duplicate ids, ids holding a reserved separator (| ; , or a line
    break), out-of-range coordinates, non-digit NAICS codes and codes whose
    two-digit prefix maps to no sector are fatal, naming the file and line.
    """
    from .attributes import to_sector  # attributes imports this module

    entries: list[tuple[str, str, float, float, str, int]] = []
    first_line: dict[str, int] = {}
    with CsvRows(source, POIS_COLUMNS, "POI") as rows:
        for line, (poi_id, name, lat, lon, naics) in rows:
            poi_id = poi_id.strip()
            if not poi_id:
                raise rows.error(line, "empty poi_id")
            if any(ch in poi_id for ch in RESERVED_CHARACTERS):
                raise rows.error(
                    line, f"poi_id {poi_id!r} contains a reserved separator (| ; , or a line break)"
                )
            if first_line.setdefault(poi_id, line) != line:
                raise rows.error(line, f"duplicate poi_id {poi_id!r}")
            try:
                lat, lon = float(lat), float(lon)
            except ValueError as exc:
                raise rows.error(line, f"non-numeric coordinate: {exc}") from None
            if not (-90.0 <= lat <= 90.0):
                raise rows.error(line, f"latitude {lat} out of range [-90, 90]")
            if not (-180.0 <= lon <= 180.0):
                raise rows.error(line, f"longitude {lon} out of range [-180, 180]")
            naics = naics.strip()
            if not naics.isdigit():
                raise rows.error(line, f"NAICS code {naics!r} is not all digits")
            if not 2 <= len(naics) <= 6:
                raise rows.error(line, f"NAICS code {naics!r} must have 2-6 digits")
            try:
                sector = to_sector(naics).id
            except UnknownSectorError as exc:
                raise UnknownSectorError(f"{rows.where}:{line}: poi_id {poi_id!r}: {exc}") from None
            entries.append((poi_id, name, lat, lon, naics, sector))
    return PoiCatalog.from_rows(entries)


def write_sequences(sequences: SequenceTable, path: str | Path) -> None:
    """Write sequences as CSV: device_id,local_date,stays (stays '|'-joined)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SEQUENCES_COLUMNS)
        writer.writerows(
            (device, day.isoformat(), STAY_SEPARATOR.join(stays))
            for device, day, stays in sequences.walks()
        )


def read_sequences(source: str | Path | TextIO) -> SequenceTable:
    """Read a sequences file into a SequenceTable, one sequence per row in file order.

    A missing or extra field and a bad date raise RowError naming the file
    and line; so does a walk that breaks a walk rule (SequenceTable.steps),
    once every row is read.
    """
    device_ids: list[str] = []
    days: list[int] = []
    lengths: list[int] = []
    flat: list[str] = []
    lines: list[int] = []
    with CsvRows(source, SEQUENCES_COLUMNS, "sequences", exact=True) as rows:
        for line, (device_id, local_date, stay_field) in rows:
            try:
                day = dt.date.fromisoformat(local_date)
            except ValueError:
                raise rows.error(line, f"bad date {local_date!r}") from None
            stays = stay_field.split(STAY_SEPARATOR)
            device_ids.append(device_id)
            days.append((day - EPOCH).days)
            lengths.append(len(stays))
            flat.extend(stays)
            lines.append(line)
    devices, device = _intern(device_ids)
    pois, stays = _intern(flat)
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    table = SequenceTable(devices, pois, device, np.array(days, dtype=np.int64), offsets, stays)
    try:
        table.steps()
    except WalkError as exc:
        raise rows.error(lines[exc.sequence], str(exc)) from None
    return table
