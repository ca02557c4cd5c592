"""Parse stop and POI files into integer tables and derive per-device-day stay sequences.

Device ids and POI ids are interned once: each becomes an int32 code into a
sorted list of names, so integer order equals string order and every sort
by name is a sort by code. Every reader, here and in network, numbers each
id on first sight (CodeIndex) and sorts the distinct ids once (_sorted_codes);
only the stops reader strips ids. Names are attached again only when a file
is written. Stops are held as a StopTable of columns; after the catalog join
their POI codes index the catalog's poi_ids. A sort by several integer
columns is lexorder: one stable argsort of the columns packed into one
int64 key, or np.lexsort where their ranges do not fit it.

The POI catalog is columns in poi_id order, each POI's sector resolved
once when the catalog is built; consumers find an id's row through
PoiCatalog.codes. A repeated poi_id is fatal, naming the file and line.

Every CSV file the package reads goes through CsvRows: a bad row raises
RowError starting FILE:LINE:. Stops and POIs may carry further columns and
trailing fields; the files the program writes must match their header.
The stops file and network edge lists are read in np.loadtxt blocks from
the file CsvRows opened (CsvRows.blocks); a file the blocks cannot read is
read again row by row, and only the row readers word errors. The bulk
files the program writes are int32 tokens over a vocabulary of strings
that carry their separators, written by write_tokens as one str.join per
block of tokens.

A stop becomes a visit when its dwell time reaches the configured
threshold. Visits are grouped per device and local calendar day, ordered
by start time with poi_id breaking ties, collapsed over consecutive
repeats, and kept only when at least two stays remain. The local day of a
stop is

    (start_time * 10**6 + off_us) // 86_400_000_000

days after 1970-01-01, where off_us is the UTC offset in whole
microseconds as datetime.timedelta rounds it; that is the date of
datetime.fromtimestamp in a timezone of that offset. A stop whose local
date falls outside 0001-01-01..9999-12-31 is bad input (SchemaError). The
sequences are one SequenceTable: a device code and day number per sequence
and one flat array of POI codes cut by offsets.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import logging
import warnings
from contextlib import AbstractContextManager
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .errors import RowError, SchemaError, UnknownSectorError, WalkError

logger = logging.getLogger(__name__)

STOPS_COLUMNS = ("device_id", "poi_id", "start_time", "dwell")
POIS_COLUMNS = ("poi_id", "name", "lat", "lon", "naics")
SEQUENCES_COLUMNS = ("device_id", "local_date", "stays")

# Separator of the ids in one CSV field: a walk's stays, an instance's nodes, an edge's ends.
ID_SEPARATOR = "|"
# Separator of the edges in an instance file's edges field.
EDGE_SEPARATOR = ";"
# Characters the sequence and instance files use as separators; no poi_id may
# hold one. No id may hold a line break: csv.writer leaves a bare "\r" unquoted.
LINE_BREAKS = ("\r", "\n")
RESERVED_CHARACTERS = (ID_SEPARATOR, EDGE_SEPARATOR, ",", *LINE_BREAKS)

EPOCH = dt.date(1970, 1, 1)
# IUGG mean Earth radius of the catalog's great-circle distances (stats,
# synth); pinned so distance tests are bit-exact.
EARTH_RADIUS_KM = 6371.0088
_US_PER_DAY = 86_400_000_000
_MIN_DAY, _MAX_DAY = ((day - EPOCH).days for day in (dt.date.min, dt.date.max))
# Rows per token block a file writer builds: it bounds the memory a written file takes.
TOKEN_ROWS = 8_192
# Rows per np.loadtxt block of CsvRows.blocks: a bulk read holds one block's
# strings at a time. Blocks double from _FIRST_BLOCK rows, because np.loadtxt
# sets up max_rows rows before it reads one (1.2 ms for 65,536 rows with
# object fields), so a file sets up at most twice its rows, or _FIRST_BLOCK.
_FIRST_BLOCK = 1_024
_STOP_BLOCK = 65_536
# int64's bounds as Python ints: np.iinfo computes .max and .min again on each
# access (0.2 us), and the row readers test them once per row.
INT64 = SimpleNamespace(min=-(2**63), max=2**63 - 1)


def exact_sum(values: np.ndarray) -> int:
    """Exact sum of an int64 array of under 2**31 entries: each 32-bit half sums in int64."""
    return (int((values >> 32).sum()) << 32) + int((values & 0xFFFFFFFF).sum())


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


def lexorder(keys: Sequence[np.ndarray]) -> np.ndarray:
    """The permutation np.lexsort(keys) gives, the last key primary.

    The integer keys are packed into one mixed-radix int64, each key less its
    minimum, the first key lowest, and sorted by one stable argsort. Whether
    the product of the keys' ranges fits 2**63 is checked in Python ints from
    each key's extremes; when it does not, when a key is not an integer type
    int64 holds, or when the keys are empty, np.lexsort sorts them.
    """
    if not len(keys[0]) or not all(np.can_cast(key.dtype, np.int64) for key in keys):
        return np.lexsort(keys)
    ends = [(int(key.min()), int(key.max())) for key in keys]
    size = 1
    for lo, hi in ends:
        size *= hi - lo + 1
    if size > 2**63:
        return np.lexsort(keys)
    code = np.zeros(len(keys[0]), dtype=np.int64)
    scale = 1
    for key, (lo, hi) in zip(keys, ends):
        if hi > lo:  # a constant key orders nothing
            digit = key.astype(np.int64)
            digit -= lo  # exact: key - lo < 2**63, and int64 wraps modulo 2**64
            digit *= scale
            code += digit
            scale *= hi - lo + 1
    return np.argsort(code, kind="stable")


def group_starts(*columns: np.ndarray) -> np.ndarray:
    """Indices of the rows whose columns differ from the row before (row 0 included)."""
    new = np.zeros(len(columns[0]), dtype=bool)
    new[:1] = True
    for column in columns:
        diff = column[1:] != column[:-1]
        new[1:] |= diff.any(axis=1) if diff.ndim > 1 else diff
    return np.flatnonzero(new)


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


class CsvRows(AbstractContextManager):
    """The data rows of a comma-delimited file with a header row.

    A context manager over a path or a seekable stream; it closes only a
    file it opened. Errors name the file as where: the path, the stream's
    name or "<what> file"; an opened file that is not UTF-8 raises RowError
    at its first bad byte. The header must hold every one of columns, and
    with exact be columns, in order. Iterating yields (line, fields) per
    non-blank row, line being the row's first physical line and fields in
    columns order (a repeated column's last field wins); a row with fewer
    fields than the header, or with exact more, raises RowError. quoting is
    csv.reader's; QUOTE_NONE reads unquoted files.
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

    def __exit__(self, kind, exc, traceback) -> None:
        if self._owned:
            self._fh.close()
            if isinstance(exc, UnicodeDecodeError):
                data = Path(self.where).read_bytes()
                try:
                    data.decode("utf-8")
                except UnicodeDecodeError as bad:
                    line = data.count(b"\n", 0, bad.start) + 1
                    raise self.error(line, f"not UTF-8: {bad.reason} at byte {bad.start}") from None

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
        line = reader.line_num + 1  # the next record starts past the lines read so far
        for row in reader:
            if len(row) == width or (len(row) > width and not self.exact):
                yield line, row if self.exact else [row[i] for i in index]
            elif row:
                raise self.error(line, "wrong number of fields")
            line = reader.line_num + 1

    def blocks(self, types: Sequence[type]) -> Iterator[np.ndarray | None]:
        """The data rows as np.loadtxt blocks of up to _STOP_BLOCK rows, or None in
        place of the first block loadtxt cannot read, which ends them.

        A block is a structured array with a field per column, named by columns
        and typed by types; an object field holds each value as a Python string,
        uncut and with any trailing NUL. Blank lines are skipped, as csv.reader's
        empty rows are. A row shorter than the header, or with exact longer,
        fails the block, as it fails csv.reader's count: the header's last field
        is always read, and an exact file is read whole.
        """
        _, index, width = self.reader()  # checks the header and leaves the file past it
        fields, usecols = list(zip(self.columns, types)), None
        if not self.exact:
            usecols = index if width - 1 in index else [*index, width - 1]
            fields += [("last", object)] * (len(usecols) - len(index))
        dtype, quotechar = np.dtype(fields), None if self.quoting == csv.QUOTE_NONE else '"'
        size = min(_FIRST_BLOCK, _STOP_BLOCK)
        while True:
            with warnings.catch_warnings():
                # blank lines and an empty tail give no data, as csv.reader's empty rows do
                warnings.filterwarnings("ignore", r"(loadtxt: input|Input line \d+) contained no data")
                try:
                    block = np.loadtxt(
                        self._fh, dtype=dtype, delimiter=",", quotechar=quotechar,
                        comments=None, usecols=usecols, max_rows=size, ndmin=1,
                    )
                except ValueError:
                    yield None
                    return
            last = len(block) < size
            yield block
            del block  # the next block's strings replace this one's
            if last:
                return
            size = min(2 * size, _STOP_BLOCK)


def write_json(doc: dict, path: str | Path) -> None:
    """Write doc as JSON: indent 2, sorted keys, a trailing newline."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_csv(path: str | Path, columns: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a small CSV file, the header of columns and then rows, as csv.writer
    writes them: None as an empty field, a float as its repr, "\n" line ends."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


def write_tokens(
    path: str | Path, columns: Sequence[str], vocab: Sequence[str], blocks: Iterable[np.ndarray]
) -> None:
    """Write a CSV file: the header of columns, then vocab[t] for each integer
    token t of each block, in order, as UTF-8.

    A writer folds the separators and line ends into its vocabulary ("p1,",
    "p1|", "7\n", and "" for an absent slot of a fixed-width row), so each
    block is one str.join. A token UTF-8 cannot encode would fail partway
    through the file, but none can: the program reads ids and names as strict
    UTF-8 (CsvRows, and config.read_json, which rejects a lone surrogate), and
    every other token is str() of an integer, an ISO date or a literal.
    """
    table = np.array(vocab, dtype=object)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for block in blocks:
            fh.write("".join(table[block].tolist()))


def token_rows(columns: Sequence[np.ndarray], starts: Sequence[int]) -> Iterator[np.ndarray]:
    """Row-major int32 tokens of equal-length code columns, each code shifted by
    its column's start in the vocabulary, TOKEN_ROWS rows at a time."""
    shift = np.array(starts, dtype=np.int64)
    for lo in range(0, len(columns[0]), TOKEN_ROWS):
        rows = np.stack([column[lo : lo + TOKEN_ROWS] for column in columns], axis=1)
        yield (rows + shift).astype(np.int32).ravel()


def int_tokens(values: np.ndarray, end: str) -> tuple[list[str], np.ndarray]:
    """Each distinct integer as str() followed by end, and the int32 index of
    each value into them."""
    distinct, index = np.unique(values, return_inverse=True)
    return [str(v) + end for v in distinct.tolist()], index.astype(np.int32)


def _csv_fields(values: Sequence[str]) -> list[str]:
    """Each value as csv.writer writes it as one field of a row.

    csv.writer quotes a field only when it holds the delimiter, the quote or
    a line-end character, so values holding none are kept as they are.
    """
    if not any(ch in "".join(values) for ch in ',"\r\n'):
        return list(values)
    row = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow  # returns the line
    return [row((v, ""))[:-2] for v in values]


def _checked_stops(rows: CsvRows) -> StopTable:
    """The stops file's table read row by row; the first malformed row raises RowError."""
    device_ids: list[str] = []
    poi_ids: list[str] = []
    starts: list[int] = []
    dwells: list[int] = []
    for line, (device_id, poi_id, start_time, dwell) in rows:
        device_id, poi_id = device_id.strip(), poi_id.strip()
        if not device_id:
            raise rows.error(line, "empty device_id")
        if any(ch in device_id for ch in LINE_BREAKS):
            raise rows.error(line, f"device_id {device_id!r} holds a line break")
        if not poi_id:
            raise rows.error(line, "empty poi_id")
        try:
            start_time, dwell = int(start_time), int(dwell)
        except ValueError as exc:
            raise rows.error(line, f"non-integer field: {exc}") from None
        if dwell < 0:
            raise rows.error(line, f"negative dwell {dwell}")
        if not (INT64.min <= start_time <= INT64.max and dwell <= INT64.max):
            raise rows.error(line, "integer field outside the 64-bit range")
        device_ids.append(device_id)
        poi_ids.append(poi_id)
        starts.append(start_time)
        dwells.append(dwell)
    devices, device = _intern(device_ids)
    pois, poi = _intern(poi_ids)
    start, dwell = (np.array(column, dtype=np.int64) for column in (starts, dwells))
    return StopTable(devices, pois, device, poi, start, dwell)


class CodeIndex(dict):
    """A dict of codes that gives each key it lacks the next code, len(self),
    when asked for it: its keys are in code order, the order they first appear."""

    def __missing__(self, key: str) -> int:
        self[key] = code = len(self)
        return code


def _block_codes(index: CodeIndex, values: Sequence[str]) -> np.ndarray:
    """The int32 code in index of each value, one lookup per value."""
    return np.fromiter(map(index.__getitem__, values), dtype=np.int32, count=len(values))


def _run_codes(index: CodeIndex, values: np.ndarray) -> np.ndarray:
    """_block_codes of a block's values, looked up once per run of equal values."""
    heads = group_starts(values)
    codes = _block_codes(index, values[heads].tolist())
    return np.repeat(codes, np.diff(heads, append=len(values)))


def _sorted_codes(values: list[str], codes: list[np.ndarray]) -> tuple[list[str], np.ndarray]:
    """The sorted distinct values, and the codes into values (code i names
    values[i]) mapped into them.

    One sort of the values' positions orders them, in one pass for ids first seen
    in sorted order (as a star's are); equal values are neighbours and merge."""
    order = np.array(sorted(range(len(values)), key=values.__getitem__), dtype=np.int64)
    ordered = np.array(values, dtype=object)[order]
    starts = group_starts(ordered)  # the first position of each distinct value
    remap = np.empty(len(values), dtype=np.int32)
    sizes = np.diff(starts, append=len(values))
    remap[order] = np.repeat(np.arange(len(starts), dtype=np.int32), sizes)
    return ordered[starts].tolist(), remap[np.concatenate(codes)]


def _intern(values: Sequence[str]) -> tuple[list[str], np.ndarray]:
    """The sorted distinct values and each value's int32 code into them."""
    index = CodeIndex()
    codes = _block_codes(index, values)
    return _sorted_codes(list(index), [codes])


def _bulk_stops(rows: CsvRows) -> StopTable | None:
    """The stops file's table read in CsvRows.blocks, or None when a row needs
    the row check or holds an integer only int() reads.

    The id fields are Python strings, so no id is cut to a field width or loses
    a trailing NUL; each column's distinct ids are stripped and sorted once at
    the end. A device's rows usually come together, so the device column is
    looked up once per run of equal ids (_run_codes); the POI column, whose
    values rarely repeat in a row, once per row.
    """
    device_index, poi_index = CodeIndex(), CodeIndex()
    devices, pois, starts, dwells = [], [], [], []
    for block in rows.blocks((object, object, np.int64, np.int64)):
        if block is None:
            return None
        devices.append(_run_codes(device_index, block["device_id"]))
        pois.append(_block_codes(poi_index, block["poi_id"].tolist()))
        starts.append(block["start_time"].copy())
        dwells.append(block["dwell"].copy())
        del block  # the next block's strings replace this one's
    start, dwell = np.concatenate(starts), np.concatenate(dwells)
    del starts, dwells
    device_ids = [v.strip() for v in device_index]  # in code order
    poi_ids = [v.strip() for v in poi_index]
    del device_index, poi_index  # free the dicts before the sorted names are indexed
    device_names, device = _sorted_codes(device_ids, devices)
    poi_names, poi = _sorted_codes(poi_ids, pois)
    if device_names[:1] == [""] or poi_names[:1] == [""] or (dwell < 0).any():  # "" sorts first
        return None
    if any(ch in "".join(device_names) for ch in LINE_BREAKS):
        return None
    return StopTable(device_names, poi_names, device, poi, start, dwell)


def parse_stops(source: str | Path | TextIO) -> StopTable:
    """Read a comma-delimited stops file into a StopTable.

    The header must carry device_id, poi_id, start_time and dwell; rows may
    carry further fields. Ids are stripped of surrounding whitespace. The
    columns are read in np.loadtxt blocks; a file with an irregular row, or
    an integer written in a form only int() reads (such as 1_000), is read
    again row by row with csv.reader, so a malformed row raises RowError
    naming the file and line.
    """
    with CsvRows(source, STOPS_COLUMNS, "stops") as rows:
        table = _bulk_stops(rows)
        return _checked_stops(rows) if table is None else table


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


def local_days(start_time: np.ndarray, utc_offset: float) -> np.ndarray:
    """Local day numbers (days after 1970-01-01) of int64 UTC epoch seconds.

    The earliest and latest time are checked first in Python ints, so a
    time whose local date falls outside 0001-01-01..9999-12-31 raises
    SchemaError naming it and the offset, before the int64 product could
    overflow.
    """
    off_us = dt.timedelta(hours=utc_offset) // dt.timedelta(microseconds=1)
    ends = (int(start_time.min()), int(start_time.max())) if start_time.size else ()
    for t in ends:
        if not _MIN_DAY <= (t * 1_000_000 + off_us) // _US_PER_DAY <= _MAX_DAY:
            raise SchemaError(
                f"start_time {t} at UTC offset {utc_offset:+g} h has a local date "
                f"outside {dt.date.min}..{dt.date.max}"
            )
    return (start_time * 1_000_000 + off_us) // _US_PER_DAY


def build_stay_sequences(stops: StopTable, utc_offset: float = 0.0) -> SequenceTable:
    """Group visits into per-device-day sequences.

    Stops are keyed by (device, local date of start_time shifted by
    utc_offset hours) and ordered by start time, with poi_id as a
    deterministic tie-break. For a fixed offset the local date never
    decreases as the start time grows, so one lexorder of the codes by
    (device, start time, POI) gives that order without the date as a key.
    Consecutive repeats of the same POI collapse to one stay, and days with
    fewer than two stays are discarded. Sequences are sorted by (device_id,
    local_date), so the result is independent of input order. The table
    keeps the stops' POI names and the devices that have a sequence.
    """
    order = lexorder((stops.poi, stops.start_time, stops.device))
    device, poi = stops.device[order], stops.poi[order]
    day = local_days(stops.start_time[order], utc_offset)
    del order  # the sort's temporaries go before the table is built
    keep = group_starts(device, day, poi)  # drops each consecutive repeat
    device, day, poi = device[keep], day[keep], poi[keep]
    starts = group_starts(device, day)  # the first stay of each device-day
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
    """Write sequences as CSV: device_id,local_date,stays (stays '|'-joined),
    quoted as csv.writer quotes them.

    Device and POI ids go through _csv_fields once each; a stays field is
    quoted, its quotes doubled, when one of its POI ids needs quoting. A row
    is tokens (write_tokens): its device field, its date, '"' or "" to open
    the stays field, and one token per stay carrying '|' or the line end.
    The rows are built TOKEN_ROWS sequences at a time.
    """
    devices = [field + "," for field in _csv_fields(sequences.devices)]
    days, day = np.unique(sequences.day, return_inverse=True)
    dates = [day_date(d).isoformat() + "," for d in days.tolist()]
    pois = sequences.pois
    quote = np.array([f != p for f, p in zip(_csv_fields(pois), pois)], dtype=np.int64)
    escaped = [p.replace('"', '""') for p in pois]
    vocab = [
        *devices, *dates, "", '"',
        *(p + ID_SEPARATOR for p in pois), *(p + "\n" for p in pois),
        *(e + ID_SEPARATOR for e in escaped), *(e + '"\n' for e in escaped),
    ]
    opening = len(devices) + len(dates)  # "" and '"' follow
    offsets = sequences.offsets
    quotes = np.concatenate([[0], np.cumsum(quote[sequences.stays])])
    quoted = (quotes[offsets[1:]] > quotes[offsets[:-1]]).astype(np.int64)

    def blocks() -> Iterator[np.ndarray]:
        for lo in range(0, len(sequences), TOKEN_ROWS):
            hi = min(lo + TOKEN_ROWS, len(sequences))
            a, b = offsets[lo], offsets[hi]
            width = 3 + np.diff(offsets[lo : hi + 1])
            first = np.cumsum(width) - width  # each row's first token
            tokens = np.empty(width.sum(), dtype=np.int32)
            tokens[first] = sequences.device[lo:hi]
            tokens[first + 1] = len(devices) + day[lo:hi]
            tokens[first + 2] = opening + quoted[lo:hi]
            last = np.zeros(b - a, dtype=np.int64)
            last[offsets[lo + 1 : hi + 1] - a - 1] = 1
            variant = last + 2 * np.repeat(quoted[lo:hi], width - 3)  # '|', end, quoted '|', end
            at = np.arange(b - a) + np.repeat(first + 3 - (offsets[lo:hi] - a), width - 3)
            tokens[at] = opening + 2 + variant * len(pois) + sequences.stays[a:b]
            yield tokens

    write_tokens(path, SEQUENCES_COLUMNS, vocab, blocks())


def read_sequences(source: str | Path | TextIO) -> SequenceTable:
    """Read a sequences file into a SequenceTable, one sequence per row in file order.

    A missing or extra field, a bad date, an empty stay id and a stay id
    holding a reserved separator (; , or a line break, which instances.csv and
    merged.csv would split on) raise RowError naming the file and line; so does
    a walk that breaks a walk rule (SequenceTable.steps), once every row is read.
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
            stays = stay_field.split(ID_SEPARATOR)
            if any(ch in stay_field for ch in RESERVED_CHARACTERS if ch != ID_SEPARATOR):
                stay = next(s for s in stays if any(ch in s for ch in RESERVED_CHARACTERS))
                raise rows.error(line, f"stay {stay!r} contains a reserved separator "
                                       "(| ; , or a line break)")
            if "" in stays:
                raise rows.error(line, f"stays {stay_field!r} hold an empty stay id")
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
