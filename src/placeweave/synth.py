"""Synthetic POI catalogs and device-day traffic with planted ground truth.

Each synthetic device-day draws a motif class and walks a fixed canonical
traversal of that class's edge set over freshly sampled POIs, so the
trajectory graph recovered downstream equals the planted class exactly.
Device-day i draws from its own generator, default_rng([seed, i]), which
makes generation order- and parallelism-independent. Those generators are
not built one by one. For a block of device-days at once, numpy's
SeedSequence hash runs in uint32 columns, PCG64 (O'Neill's XSL-RR output
over a 128-bit LCG) steps in uint64 halves, and each of numpy's draws,
from random() to Lemire's bounded integers and choice's Floyd loop, is made
for every lane of the block, giving the bits each generator would. The
draws go straight into the columns of ingest's StopTable.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from . import _pcg64
from .attributes import sector_by_id
from .config import json_number, read_spec
from .errors import ConfigError, UnknownSectorError
from .ingest import (
    EARTH_RADIUS_KM,
    EPOCH,
    POIS_COLUMNS,
    STOPS_COLUMNS,
    PoiCatalog,
    StopTable,
    day_date,
    int_tokens,
    token_rows,
    write_csv,
    write_tokens,
)
from .motifs import MotifClass

# Canonical walk per class, as positions into the sampled POI list. Every
# walk's consecutive-pair set equals the class's edge set; classes without
# an Eulerian path revisit nodes, never consecutively.
CLASS_WALKS: dict[MotifClass, tuple[int, ...]] = {
    MotifClass.M2_1: (0, 1),
    MotifClass.M3_1: (0, 1, 2),
    MotifClass.M3_2: (0, 1, 2, 0),
    MotifClass.M4_1: (0, 1, 2, 3, 0, 2, 1, 3),
    MotifClass.M4_2: (0, 2, 1, 3, 0, 1),
    MotifClass.M4_3: (0, 1, 2, 3, 0),
    MotifClass.M4_4: (3, 0, 1, 2, 0),
    MotifClass.M4_5: (0, 1, 2, 3),
    MotifClass.M4_6: (1, 0, 2, 0, 3),
}

_STOP_SPACING_S = 900
_DAY_START_HOUR = 8
_BLOCK = 1 << 16  # device-days seeded together
_NEAR_CACHE = 1 << 23  # candidate indices kept across device-days (32 MB of int32)

# numpy's SeedSequence constants (a pool of four uint32 words)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 2**32 - 1


@dataclass(frozen=True)
class WorldSpec:
    n_pois: int
    bbox: tuple[float, float, float, float]  # lat_min, lat_max, lon_min, lon_max
    category_shares: dict[int, float]
    seed: int

    def validate(self) -> None:
        if self.n_pois < 1:
            raise ConfigError("n_pois must be >= 1")
        lat_min, lat_max, lon_min, lon_max = self.bbox
        if not (lat_min < lat_max and lon_min < lon_max):
            raise ConfigError(f"degenerate bbox {self.bbox}")
        if not (-90 <= lat_min and lat_max <= 90 and -180 <= lon_min and lon_max <= 180):
            raise ConfigError(f"bbox {self.bbox} outside coordinate range")
        if not self.category_shares:
            raise ConfigError("category_shares is empty")
        for cat_id, share in self.category_shares.items():
            try:
                sector_by_id(cat_id)
            except UnknownSectorError as exc:
                raise ConfigError(str(exc)) from None
            if share < 0:
                raise ConfigError(f"negative share for category {cat_id}")
        if abs(sum(self.category_shares.values()) - 1.0) > 1e-9:
            raise ConfigError("category shares must sum to 1")
        if self.seed < 0:
            raise ConfigError(f"world spec: seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class TrafficSpec:
    n_device_days: int
    class_mix: dict[MotifClass, float]
    date_range: tuple[dt.date, dt.date]  # inclusive
    dwell_range: tuple[int, int] = (600, 3600)
    seed: int = 0
    max_sample_km: float | None = None

    def validate(self) -> None:
        if self.n_device_days < 1:
            raise ConfigError("n_device_days must be >= 1")
        if not self.class_mix:
            raise ConfigError("class_mix is empty")
        for cls, share in self.class_mix.items():
            if cls not in CLASS_WALKS:
                raise ConfigError(f"class {cls} has no planted walk")
            if share < 0:
                raise ConfigError(f"negative share for class {cls}")
        if abs(sum(self.class_mix.values()) - 1.0) > 1e-9:
            raise ConfigError("class mix must sum to 1")
        if self.date_range[0] > self.date_range[1]:
            raise ConfigError("empty date range")
        lo, hi = self.dwell_range
        if lo < 0 or hi < lo:
            raise ConfigError(f"bad dwell range {self.dwell_range}")
        if hi - lo >= _MASK32:  # numpy draws from 2**32 or more values by another rule
            raise ConfigError(f"dwell range {self.dwell_range} holds 2**32 or more values")
        if self.max_sample_km is not None and self.max_sample_km <= 0:
            raise ConfigError("max_sample_km must be positive")
        if self.seed < 0:
            raise ConfigError(f"traffic spec: seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class DeviceDayPlan:
    device_id: str
    local_date: dt.date
    motif_class: MotifClass
    walk: tuple[str, ...]
    dwells: tuple[int, ...]


def gen_catalog(spec: WorldSpec) -> PoiCatalog:
    """Place POIs uniformly in the bbox with NAICS codes drawn per share."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    lat_min, lat_max, lon_min, lon_max = spec.bbox
    cat_ids = sorted(spec.category_shares)
    probs = np.array([spec.category_shares[c] for c in cat_ids], dtype=float)
    probs = probs / probs.sum()
    width = max(6, len(str(spec.n_pois - 1)))
    rows = []
    for i in range(spec.n_pois):
        lat = float(rng.uniform(lat_min, lat_max))
        lon = float(rng.uniform(lon_min, lon_max))
        cat = sector_by_id(cat_ids[int(rng.choice(len(cat_ids), p=probs))])
        prefix = sorted(cat.prefixes)[int(rng.integers(len(cat.prefixes)))]
        naics = prefix + f"{int(rng.integers(100)):02d}"
        rows.append((f"p{i:0{width}d}", f"place-{i:0{width}d}", lat, lon, naics, cat.id))
    return PoiCatalog.from_rows(rows)


def _candidate_indices(
    by_lat: np.ndarray,
    lats: np.ndarray,
    lons: np.ndarray,
    lat: float,
    lon: float,
    radius_km: float,
) -> np.ndarray:
    """Catalog indices within radius/2 of (lat, lon): pairwise distances <= radius.

    by_lat lists the catalog indices by ascending latitude; lats and lons
    are the coordinates in that order. A POI whose latitude alone is more
    than radius/2 away is farther than that, so the haversine runs only over
    the latitude band around lat.
    """
    band = np.degrees(radius_km / 2.0 / EARTH_RADIUS_KM) * (1.0 + 1e-6)
    lo = np.searchsorted(lats, lat - band, side="left")
    hi = np.searchsorted(lats, lat + band, side="right")
    phi = np.radians(lats[lo:hi])
    dphi = np.radians(lats[lo:hi] - lat) / 2.0
    dlam = np.radians(lons[lo:hi] - lon) / 2.0
    a = np.sin(dphi) ** 2 + np.cos(np.radians(lat)) * np.cos(phi) * np.sin(dlam) ** 2
    d = 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(a)))
    return np.sort(by_lat[lo:hi][d <= radius_km / 2.0])


# -- per-device-day generators, drawn in bulk ---------------------------------


def _uint32_words(n: int) -> list[int]:
    """A non-negative int as SeedSequence reads it: little-endian 32-bit words."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hash_constants(init: int, mult: int) -> Iterator[tuple[np.uint32, np.uint32]]:
    """The (xor, multiplier) pair of each successive SeedSequence hash step."""
    value = init
    while True:
        following = value * mult & _MASK32
        yield np.uint32(value), np.uint32(following)
        value = following


def _hash(column: np.ndarray, constants: Iterator) -> np.ndarray:
    xor, mult = next(constants)
    column = (column ^ xor) * mult
    return column ^ (column >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    column = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return column ^ (column >> 16)


def _pcg64_states(seed: int, index: np.ndarray) -> tuple[np.ndarray, ...]:
    """(state_hi, state_lo, inc_hi, inc_lo) of default_rng([seed, i]) for each i in index.

    The uint64 columns are the halves of each generator's 128-bit state and
    increment. This is numpy's SeedSequence hash over the entropy words of
    seed and then of i, run on uint32 columns, followed by PCG64's seeding
    from the four uint64 words of generate_state(4, np.uint64): the first two
    are the 128-bit initial state, the last two the stream. Every i must have
    as many 32-bit words as index[-1].
    """
    n = len(index)
    entropy = [np.full(n, word, dtype=np.uint32) for word in _uint32_words(seed)]
    entropy += [
        (index >> 32 * k & _MASK32).astype(np.uint32)
        for k in range(len(_uint32_words(int(index[-1]))))
    ]
    constants = _hash_constants(_INIT_A, _MULT_A)
    zero = np.zeros(n, dtype=np.uint32)
    pool = [_hash(entropy[k] if k < len(entropy) else zero, constants) for k in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], constants))
    for extra in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hash(extra, constants))
    constants = _hash_constants(_INIT_B, _MULT_B)
    words = [_hash(pool[k % _POOL_SIZE], constants).astype(np.uint64) for k in range(8)]
    return _pcg64.seed(*(words[2 * k] | words[2 * k + 1] << np.uint64(32) for k in range(4)))


def _draw(catalog: PoiCatalog, spec: TrafficSpec) -> tuple[list[MotifClass], np.ndarray, StopTable]:
    """The classes, each device-day's class code into them, and the stop table.

    Device-day i draws from default_rng([spec.seed, i]) in this order:
    1. its class: the random() double that choice(len(classes), p=mix) takes;
    2. its day: integers(n_days);
    3. its POIs: choice without replacement, from the catalog or from the
       POIs near an anchor drawn first with integers(n_pois);
    4. one dwell per stop: integers(lo, hi + 1, size=len(walk)).
    The draws are not made generator by generator: _pcg64.Streams runs
    PCG64 over a block of device-days at once and makes each draw for every
    lane of the block with numpy's algorithms, giving the same bits. Stops
    follow device-day order, 15 minutes apart from 08:00 UTC. Each anchor's
    candidates are computed once and reused while the cache has room.
    """
    spec.validate()
    classes = sorted(spec.class_mix, key=lambda c: c.value)
    max_size = max(c.size for c in classes)
    if len(catalog) < max_size:
        raise ConfigError(
            f"catalog has {len(catalog)} POIs but the largest planted class needs {max_size}"
        )
    probs = np.array([spec.class_mix[c] for c in classes], dtype=float)
    probs = probs / probs.sum()
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    sizes = np.array([c.size for c in classes])
    lengths = np.array([len(CLASS_WALKS[c]) for c in classes])
    walks = np.zeros((len(classes), lengths.max()), dtype=np.int64)  # padded past each walk
    for code, cls in enumerate(classes):
        walks[code, : lengths[code]] = CLASS_WALKS[cls]
    # PCG64 words a device-day takes without redraws: a uint32 each for day, anchor,
    # choice (2 * size - 1) and dwells, two to a word
    words = (2 + 2 * sizes - 1 + lengths).max() // 2 + 1
    n_pois, lats, lons = len(catalog), catalog.lat, catalog.lon
    start, end = spec.date_range
    n_days = (end - start).days + 1
    first_day = (start - EPOCH).days
    lo, hi = spec.dwell_range

    by_lat = np.argsort(lats, kind="stable").astype(np.int32)
    lats_by_lat, lons_by_lat = lats[by_lat], lons[by_lat]
    near: dict[int, np.ndarray] = {}  # anchor -> its candidates, up to _NEAR_CACHE in all
    near_size = 0

    def candidates(anchor: int) -> np.ndarray:
        nonlocal near_size
        found = near.get(anchor)
        if found is None:
            found = _candidate_indices(
                by_lat, lats_by_lat, lons_by_lat, lats[anchor], lons[anchor], spec.max_sample_km
            )
            if near_size + found.size <= _NEAR_CACHE:
                near[anchor] = found
                near_size += found.size
        return found

    def draw_block(index: np.ndarray) -> tuple[np.ndarray, ...]:
        """The class codes, and the stops' start times, POIs and dwells, of index's device-days."""
        lanes = np.arange(len(index))
        streams = _pcg64.Streams(_pcg64_states(spec.seed, index), words)
        code = np.searchsorted(cdf, streams.random(), side="right")
        days = streams.integers(lanes, n_days)
        size, length = sizes[code], lengths[code]
        if spec.max_sample_km is None:
            picks = streams.choice(np.full(len(lanes), n_pois), size)
        else:
            anchors, which = np.unique(streams.integers(lanes, n_pois), return_inverse=True)
            pop = np.array([candidates(a).size for a in anchors.tolist()])[which]
            short = np.flatnonzero(pop < size)
            if short.size:
                i = short[0]
                raise ConfigError(
                    f"only {pop[i]} POIs within {spec.max_sample_km / 2} km of "
                    f"{catalog.poi_ids[anchors[which[i]]]}; class {classes[code[i]]} needs {size[i]}"
                )
            picks = streams.choice(pop, size)
            by_anchor = np.argsort(which, kind="stable")
            bounds = np.cumsum(np.bincount(which)).tolist()
            for a, first, last in zip(anchors.tolist(), [0] + bounds, bounds):
                rows = by_anchor[first:last]
                picks[rows] = candidates(a)[picks[rows]]
        first_stop = np.cumsum(length) - length
        pois = np.empty(length.sum(), dtype=np.int32)
        dwells = np.empty(length.sum(), dtype=np.int64)
        for step in range(lengths.max()):
            rows = np.flatnonzero(length > step)
            pois[first_stop[rows] + step] = picks[rows, walks[code[rows], step]]
            dwells[first_stop[rows] + step] = lo + streams.integers(rows, hi - lo + 1)
        step = np.arange(length.sum()) - np.repeat(first_stop, length)
        day_start = (first_day + days) * 86_400 + _DAY_START_HOUR * 3600
        starts = np.repeat(day_start, length) + step * _STOP_SPACING_S
        return code.astype(np.int8), starts, pois, dwells

    n = spec.n_device_days
    # blocks start at multiples of 2**16, so the indices in one have equally many 32-bit words
    blocks = [draw_block(np.arange(b, min(b + _BLOCK, n))) for b in range(0, n, _BLOCK)]
    codes, starts, pois, dwells = (np.concatenate(column) for column in zip(*blocks))
    del blocks  # each column is whole now; free the per-block pieces before the ids
    width = max(7, len(str(n - 1)))
    table = StopTable(
        devices=["d%0*d" % (width, i) for i in range(n)],
        pois=catalog.poi_ids,
        device=np.repeat(np.arange(n, dtype=np.int32), lengths[codes]),
        poi=pois,
        start_time=starts,
        dwell=dwells,
    )
    return classes, codes, table


def gen_traffic_plan(catalog: PoiCatalog, spec: TrafficSpec) -> list[DeviceDayPlan]:
    """Each device-day's class, date, walk over POI ids and dwell times."""
    classes, codes, table = _draw(catalog, spec)
    bounds = np.zeros(len(codes) + 1, dtype=np.int64)
    np.cumsum(np.bincount(table.device, minlength=len(codes)), out=bounds[1:])
    bounds = bounds.tolist()
    walks = [table.pois[p] for p in table.poi.tolist()]
    dwells = table.dwell.tolist()
    days = (table.start_time[bounds[:-1]] // 86_400).tolist()
    dates = {day: day_date(day) for day in set(days)}
    return [
        DeviceDayPlan(device, dates[day], classes[code], tuple(walks[a:b]), tuple(dwells[a:b]))
        for device, day, code, a, b in zip(table.devices, days, codes.tolist(), bounds, bounds[1:])
    ]


def gen_device_days(catalog: PoiCatalog, spec: TrafficSpec) -> StopTable:
    """Stops whose per-device-day trajectory graphs are the planted classes."""
    return _draw(catalog, spec)[2]


# -- spec files and output formats -------------------------------------------


def _integer(value) -> int:
    """A JSON integer: a bool or a fraction raises, 2.0 loads as 2."""
    return json_number(value, int)


def _real(value) -> float:
    """A finite JSON number: a bool, a string, NaN or Infinity raises, 2 loads as 2.0."""
    value = json_number(value, float)
    if not np.isfinite(value):
        raise ValueError(f"must be finite, got {value!r}")
    return value


def _tuple(convert, values, size: int) -> tuple:
    """convert of each value; a list of another size raises ValueError."""
    if len(values) != size:
        raise ValueError(f"must hold {size} values, got {len(values)}")
    return tuple(map(convert, values))


def load_world_spec(path: str | Path) -> WorldSpec:
    return read_spec(WorldSpec, path, "world spec", {
        "n_pois": _integer,
        "bbox": lambda bbox: _tuple(_real, bbox, 4),
        "category_shares": lambda mix: {int(k): _real(v) for k, v in mix.items()},
        "seed": _integer,
    })


def load_traffic_spec(path: str | Path) -> TrafficSpec:
    return read_spec(TrafficSpec, path, "traffic spec", {
        "n_device_days": _integer,
        "class_mix": lambda mix: {MotifClass(k): _real(v) for k, v in mix.items()},
        "date_range": lambda dates: _tuple(dt.date.fromisoformat, dates, 2),
        "dwell_range": lambda dwell: _tuple(_integer, dwell, 2),
        "seed": _integer,
        "max_sample_km": lambda km: None if km is None else _real(km),
    }, optional=("dwell_range", "max_sample_km"))


def write_catalog_csv(catalog: PoiCatalog, path: str | Path) -> None:
    lat, lon = catalog.lat.tolist(), catalog.lon.tolist()
    write_csv(path, POIS_COLUMNS, zip(catalog.poi_ids, catalog.names, lat, lon, catalog.naics))


def write_stops_csv(stops: StopTable, path: str | Path) -> None:
    """Write the stops in table order, as tokens over one vocabulary
    (ingest.write_tokens): 'device,' and 'poi,' per name, 'start,' per distinct
    start time and 'dwell\n' per distinct dwell."""
    starts, start = int_tokens(stops.start_time, ",")
    dwells, dwell = int_tokens(stops.dwell, "\n")
    vocab = [*(d + "," for d in stops.devices), *(p + "," for p in stops.pois), *starts, *dwells]
    offsets = np.cumsum([0, len(stops.devices), len(stops.pois), len(starts)])
    rows = token_rows((stops.device, stops.poi, start, dwell), offsets.tolist())
    write_tokens(path, STOPS_COLUMNS, vocab, rows)
