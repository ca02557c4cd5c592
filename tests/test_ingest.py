import csv
import datetime as dt
import io
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import Stop, Walk, catalog, network, sequence_table, stop_rows, stop_table
from placeweave import ingest
from placeweave.cli import main
from placeweave.errors import RowError, SchemaError, UnknownSectorError
from placeweave.ingest import (
    STOPS_COLUMNS,
    filter_cataloged,
    load_poi_catalog,
    parse_stops,
    read_sequences,
    write_sequences,
)
from placeweave.motifs import classify_trajectories
from placeweave.network import read_network, write_network
from placeweave.pipeline import read_instances_csv, write_instances_csv

STOPS_HEADER = "device_id,poi_id,start_time,dwell\n"


def stops_from_text(text):
    return parse_stops(io.StringIO(text))


def test_parse_stops_maps_fields():
    rows = stop_rows(stops_from_text(STOPS_HEADER + "d1,p1,1580601600,900\n"))
    assert rows == [("d1", "p1", 1580601600, 900)]


def test_parse_stops_header_only_is_empty():
    assert stop_rows(stops_from_text(STOPS_HEADER)) == []


def test_parse_stops_negative_dwell_reports_line():
    with pytest.raises(RowError) as err:
        stops_from_text(STOPS_HEADER + "d1,p1,1580601600,900\nd1,p2,1580605200,-5\n")
    assert err.value.line == 3


def test_parse_stops_missing_column_is_fatal():
    with pytest.raises(SchemaError, match="dwell"):
        parse_stops(io.StringIO("device_id,poi_id,start_time\nd1,p1,0\n"))


def test_parse_stops_non_integer_field():
    with pytest.raises(RowError):
        stops_from_text(STOPS_HEADER + "d1,p1,notatime,900\n")


def _stop(device="d1", poi="p1", t=0, dwell=600):
    return Stop(device, poi, t, dwell)


def filter_visits(stops, min_dwell):
    """ingest.filter_visits over a table of the rows; the kept rows."""
    return stop_rows(ingest.filter_visits(stop_table(stops), min_dwell))


def build_stay_sequences(stops, utc_offset):
    """ingest.build_stay_sequences over a table of the rows; its walks as Walk tuples."""
    return oracles.walks(ingest.build_stay_sequences(stop_table(stops), utc_offset))


def test_filter_visits_threshold():
    stops = [_stop(dwell=900), _stop(poi="p2", dwell=120)]
    assert filter_visits(stops, 300) == [stops[0]]


def test_filter_visits_zero_threshold_is_identity():
    stops = [_stop(dwell=0), _stop(poi="p2", dwell=5)]
    assert filter_visits(stops, 0) == stops
    assert filter_visits([], 300) == []


def test_filter_visits_keeps_exact_threshold():
    assert filter_visits([_stop(dwell=300)], 300) == [_stop(dwell=300)]


@given(st.lists(st.integers(min_value=0, max_value=5000), max_size=30), st.integers(0, 3000))
def test_filter_visits_idempotent(dwells, threshold):
    stops = [_stop(poi=f"p{i}", dwell=d) for i, d in enumerate(dwells)]
    once = filter_visits(stops, threshold)
    assert filter_visits(once, threshold) == once


HOUR = 3600


def test_sequences_two_stops_same_day():
    stops = [_stop(t=8 * HOUR), _stop(poi="p2", t=12 * HOUR)]
    seqs = build_stay_sequences(stops, 0)
    assert len(seqs) == 1
    assert seqs[0].stays == ("p1", "p2")
    assert seqs[0].local_date == dt.date(1970, 1, 1)


def test_sequences_collapse_consecutive_duplicates():
    stops = [_stop(t=8 * HOUR), _stop(t=9 * HOUR), _stop(poi="p2", t=12 * HOUR)]
    assert build_stay_sequences(stops, 0)[0].stays == ("p1", "p2")


def test_single_stay_day_is_dropped():
    assert build_stay_sequences([_stop()], 0) == []


def test_revisit_after_other_poi_is_kept():
    stops = [_stop(t=1), _stop(poi="p2", t=2), _stop(poi="p1", t=3)]
    assert build_stay_sequences(stops, 0)[0].stays == ("p1", "p2", "p1")


def test_day_boundary_uses_utc_offset():
    # 23:30 UTC is already the next day at +1 hour offset
    stop_a = _stop(t=23 * HOUR + 1800)
    stop_b = _stop(poi="p2", t=23 * HOUR + 2400)
    seqs = build_stay_sequences([stop_a, stop_b], 1.0)
    assert seqs[0].local_date == dt.date(1970, 1, 2)


def test_start_time_tie_breaks_by_poi_id():
    stops = [_stop(poi="pZ", t=100), _stop(poi="pA", t=100)]
    assert build_stay_sequences(stops, 0)[0].stays == ("pA", "pZ")


@settings(max_examples=60)
@given(st.permutations(list(range(8))))
def test_sequences_invariant_under_input_order(order):
    base = [
        _stop(device="dA", poi=f"p{i % 4}", t=i * 1000 + (i % 3)) for i in range(8)
    ]
    shuffled = [base[i] for i in order]
    assert build_stay_sequences(shuffled, 0) == build_stay_sequences(base, 0)


INT_KEYS = {  # each key type with its extremes
    np.bool_: (0, 1),
    np.uint8: (0, 255),
    np.int8: (-128, 127),
    np.int32: (-(2**31), 2**31 - 1),
    np.int64: (-(2**63), 2**63 - 1),
}


@st.composite
def lexsort_keys(draw):
    """Up to four integer keys of one length (0 included): each key's values lie
    in a drawn span of its type, from one value to the whole type, so some keys
    pack into one int64 and some do not."""
    n = draw(st.integers(0, 12))
    keys = []
    for _ in range(draw(st.integers(1, 4))):
        dtype = draw(st.sampled_from(list(INT_KEYS)))
        low, high = INT_KEYS[dtype]
        lo = draw(st.integers(low, high))
        hi = min(high, lo + draw(st.sampled_from([0, 2, 300, 2**40, 2**62, 2**64])))
        values = st.integers(lo, hi) | st.sampled_from([lo, hi])
        keys.append(np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=dtype))
    return keys


@settings(max_examples=300)
@example([np.array([], dtype=np.int64)])
@example([np.array([7], dtype=np.uint8), np.array([-3], dtype=np.int64)])
@example([np.array([2**63 - 1, -(2**63), 0, -1])])  # a range of 2**64: np.lexsort
@example([np.array([-1, -(2**63), -5])])  # a range of 2**63 exactly: one key
@example([np.array([1, 0, 1, 0], dtype=np.uint8), np.array([2**62 - 1, -(2**62), 0, 5])])
# near int64's end: packed without their minima, these keys would pass 2**63 and wrap
@example([np.array([0, 3, 1, 2]), np.array([2**61, 2**61 - 1, 2**61 - 1, 2**61])])
@given(lexsort_keys())
def test_lexorder_is_the_lexsort_permutation(keys):
    assert np.array_equal(ingest.lexorder(keys), np.lexsort(keys))


def _spread_stops(rows, scale):
    """A StopTable of (device code, POI code, start_time) rows with each code k
    moved to k * scale, where the sorted names keep k's name ("d2", "p0") and
    fill the gaps with others ("d1_0001")."""
    size = max(max(d, p) for d, p, _ in rows) * scale + 1
    names = [f"{i // scale}" + (f"_{i % scale:04d}" if i % scale else "") for i in range(size)]
    devices, pois, starts = (np.array(column, dtype=np.int64) for column in zip(*rows))
    return ingest.StopTable(
        ["d" + name for name in names], ["p" + name for name in names],
        (devices * scale).astype(np.int32), (pois * scale).astype(np.int32), starts,
        np.full(len(rows), 600, dtype=np.int64),
    )


def test_stay_sort_falls_back_to_lexsort_where_one_key_cannot_hold_the_codes():
    # stops on 0001-01-01 and 9999-12-31 span about 2**38 seconds: with codes
    # spread over 2**13 device and POI names the packed key passes 2**63
    first, last = -62_135_596_800, 253_402_300_799
    rows = [
        (2, 1, last - 60), (0, 2, first + 5), (0, 0, first + 5), (2, 2, last - 7200),
        (1, 1, first), (0, 1, first + 9), (1, 0, last - 1), (2, 2, last - 3600),
        (0, 1, first + 10), (1, 2, last), (2, 0, last - 30), (1, 2, first + 1),
    ]
    tables = {}
    for scale in (1, 4095):  # the codes run to 2 and to 8190
        with mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
            tables[scale] = oracles.walks(ingest.build_stay_sequences(_spread_stops(rows, scale)))
        assert lexsort.called == (scale > 1)
    assert tables[1] == tables[4095]
    assert [(w.device_id, w.local_date, w.stays) for w in tables[1]] == [
        ("d0", dt.date(1, 1, 1), ("p0", "p2", "p1")),
        ("d1", dt.date(1, 1, 1), ("p1", "p2")),
        ("d1", dt.date(9999, 12, 31), ("p0", "p2")),
        ("d2", dt.date(9999, 12, 31), ("p2", "p1", "p0")),
    ]


@settings(max_examples=300)
@example([])
@example([-(2**63)])
@example([2**63 - 1])
@example([-1, -(2**32), -(2**32) - 1, -5])
@example([2**63 - 1] * 3)  # past +2**63
@example([-(2**63)] * 3)  # past -2**63
@example([2**63 - 1, -(2**63), 2**63 - 1, 1])
@given(st.lists(st.one_of(st.integers(-(2**63), 2**63 - 1), st.sampled_from([-(2**63), 2**63 - 1])),
                max_size=40))
def test_exact_sum_is_the_python_int_sum(values):
    array = np.array(values, dtype=np.int64)
    total = ingest.exact_sum(array)
    assert type(total) is int and total == sum(array.tolist())


POIS_HEADER = "poi_id,name,lat,lon,naics\n"


def test_load_poi_catalog_maps_fields():
    text = POIS_HEADER + "p2,Bar,0.5,1.5,4411\np1,Cafe,29.76,-95.37,7225\n"
    pois = load_poi_catalog(io.StringIO(text))
    assert len(pois) == 2
    columns = (pois.poi_ids, pois.names, pois.lat.tolist(), pois.lon.tolist(), pois.naics)
    assert columns == (["p1", "p2"], ["Cafe", "Bar"], [29.76, 0.5], [-95.37, 1.5], ["7225", "4411"])
    assert pois.sector.dtype == np.int8 and pois.sector.tolist() == [18, 7]
    assert pois.codes(["p2", "ghost", "p1"]).tolist() == [1, -1, 0]


def test_load_poi_catalog_duplicate_id_fatal(tmp_path):
    path = tmp_path / "pois.csv"
    path.write_text(POIS_HEADER + "p1,A,1.0,2.0,44\np2,B,1.0,2.0,45\np1,C,1.0,2.0,45\n")
    with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}:4: duplicate poi_id 'p1'"):
        load_poi_catalog(path)


def test_load_poi_catalog_rejects_bad_rows():
    for row in ("p1,A,95.0,0.0,44", "p1,A,0.0,181.0,44", "p1,A,0.0,0.0,44x", "p1,A,0.0,0.0,4"):
        with pytest.raises(RowError):
            load_poi_catalog(io.StringIO(POIS_HEADER + row + "\n"))


def test_load_poi_catalog_rejects_unknown_sector(tmp_path):
    path = tmp_path / "pois.csv"
    path.write_text(POIS_HEADER + "p1,A,0.0,0.0,4411\np2,B,0.0,0.0,999990\n")
    with pytest.raises(UnknownSectorError, match=f"^{re.escape(str(path))}:3: poi_id 'p2': .*'99'"):
        load_poi_catalog(path)


def test_sequences_share_no_object_with_stops():
    pois = catalog([(f"p{i}", "A", 0.0, 0.0, "44") for i in range(3)])
    records = [
        Stop("".join(["d", str(k % 2)]), "".join(["p", str(k % 3)]), 3600 * k, 600)
        for k in range(8)
    ]
    stops = stop_table(records)
    sequences = ingest.build_stay_sequences(filter_cataloged(stops, pois)[0], 0)
    seqs = oracles.walks(sequences)
    assert seqs == build_stay_sequences(records, 0)
    own_ids = {poi_id: poi_id for poi_id in pois.poi_ids}
    stop_devices = {id(s.device_id) for s in records}
    assert all(poi is own_ids[poi] for seq in seqs for poi in seq.stays)
    assert all(id(seq.device_id) not in stop_devices for seq in seqs)
    assert len({id(seq.local_date) for seq in seqs}) == len({seq.local_date for seq in seqs})


def test_filter_cataloged_drops_and_counts():
    stops = stop_table([_stop(), _stop(poi="ghost")])
    kept, dropped = filter_cataloged(stops, catalog([("p1", "A", 0.0, 0.0, "44")]))
    assert [poi for _, poi, _, _ in stop_rows(kept)] == ["p1"]
    assert dropped == 1


def test_sequences_survive_catalog_join():
    pois = catalog([("p1", "A", 0.0, 0.0, "44"), ("p2", "B", 0.0, 0.0, "72")])
    stops = stop_table([_stop(t=1), _stop(poi="ghost", t=2), _stop(poi="p2", t=3)])
    kept, _ = filter_cataloged(stops, pois)
    for _, _, stays in oracles.walks(ingest.build_stay_sequences(kept, 0)):
        assert all(poi in pois.poi_ids for poi in stays)


def test_sequence_file_round_trip(tmp_path):
    stops = [
        _stop(t=1),
        _stop(poi="p2", t=2),
        _stop(device="d2", poi="p3", t=5),
        _stop(device="d2", poi="p1", t=9),
    ]
    seqs = ingest.build_stay_sequences(stop_table(stops), 0)
    path = tmp_path / "sequences.csv"
    write_sequences(seqs, path)
    assert oracles.walks(read_sequences(path)) == oracles.walks(seqs)


@pytest.mark.parametrize(
    "stays, message",
    [
        ("a", "shorter than 2 stays"),
        ("a|b|b", "repeats a stay consecutively"),
        (None, "wrong number of fields"),
        ("a|b,junk", "wrong number of fields"),
        ("p;1|p2", "stay 'p;1' contains a reserved separator"),
        ('"p1|p,2"', "stay 'p,2' contains a reserved separator"),
        ('"p1|p\n2"', r"stay 'p\\n2' contains a reserved separator"),  # the row spans lines 3-4
        ("a||b", r"stays 'a\|\|b' hold an empty stay id"),
        ("a|b|", r"stays 'a\|b\|' hold an empty stay id"),
    ],
)
def test_read_sequences_names_the_bad_row(stays, message):
    row = "d2,2020-02-03" if stays is None else f"d2,2020-02-03,{stays}"  # None: no stays field
    text = f"device_id,local_date,stays\nd1,2020-02-03,a|b\n{row}\n"
    with pytest.raises(RowError, match=f"^sequences file:3: .*{message}") as err:
        read_sequences(io.StringIO(text))
    assert err.value.line == 3


def test_is_weekend_matches_the_calendar():
    days = np.arange(-800, 800)
    expected = [ingest.day_date(day).weekday() >= 5 for day in days.tolist()]
    assert ingest.is_weekend(days).tolist() == expected
    assert [ingest.is_weekend(day) for day in days.tolist()] == expected


# Each reader with its file's header and one good row.
READERS = [
    (parse_stops, "stops.csv", "device_id,poi_id,start_time,dwell", "d1,p1,0,600"),
    (load_poi_catalog, "pois.csv", "poi_id,name,lat,lon,naics", "p1,A,0.0,0.0,44"),
    (read_sequences, "sequences.csv", "device_id,local_date,stays", "d1,2020-02-03,a|b"),
    (
        read_instances_csv,
        "instances.csv",
        "local_date,motif_class,nodes,edges,device_count",
        "2020-02-03,M2_1,a|b,a|b,1",
    ),
    (read_network, "merged.csv", "poi_a,poi_b,weight", "a,b,1"),
]
READER_IDS = ["stops", "pois", "sequences", "instances", "network"]


@pytest.mark.parametrize("read, name, header, good", READERS, ids=READER_IDS)
def test_every_reader_names_the_file_and_line(tmp_path, read, name, header, good):
    path = tmp_path / name
    path.write_text(f"{header}\n{good}\n{good.rsplit(',', 1)[0]}\n")  # line 3 lacks a field
    with pytest.raises(RowError) as err:
        read(path)
    assert str(err.value).startswith(f"{path}:3: ") and err.value.line == 3
    kept, dropped = header.rsplit(",", 1)
    path.write_text(f"{kept}\n{good}\n")
    with pytest.raises(SchemaError, match=re.escape(f"{path}: missing column(s): {dropped}")):
        read(path)


@pytest.mark.parametrize("read, name, header, good", READERS[:2], ids=READER_IDS[:2])
def test_external_feeds_reject_a_row_shorter_than_the_header(tmp_path, read, name, header, good):
    # extra trailing fields stay allowed, but every header column needs a field
    path = tmp_path / name
    path.write_text(f"{header},note\n{good},x,extra\n{good}\n")
    with pytest.raises(RowError, match=f"^{re.escape(str(path))}:3: wrong number of fields"):
        read(path)


@pytest.mark.parametrize("read, name, header, good", READERS[2:], ids=READER_IDS[2:])
def test_written_files_need_their_exact_header(tmp_path, read, name, header, good):
    path = tmp_path / name
    message = re.escape(f"{path}: the header must be {header}")
    for text in (f"{header},note\n{good},x\n", ",".join(header.split(",")[::-1]) + "\n"):
        path.write_text(text)
        with pytest.raises(SchemaError, match=f"^{message}$"):
            read(path)


def test_network_file_rejects_a_whitespace_only_line(tmp_path):
    path = tmp_path / "merged.csv"
    path.write_text("poi_a,poi_b,weight\na,b,1\n  \nb,c,2\n")
    with pytest.raises(RowError, match=f"^{re.escape(str(path))}:3: wrong number of fields"):
        read_network(path)


def test_unquoted_files_read_back_an_id_that_starts_with_a_quote(tmp_path):
    net = network({('"p', "q"): 2, ("q", "r"): 1}, label="x")
    write_network(net, tmp_path / "net.csv")
    assert read_network(tmp_path / "net.csv") == net
    walks = [
        Walk("d1", dt.date(2020, 2, 3), ('"p', "q", "r")),
        Walk("d2", dt.date(2020, 2, 4), ('"p', "q")),
    ]
    write_instances_csv(classify_trajectories(sequence_table(walks)).rows, tmp_path / "first.csv")
    write_instances_csv(read_instances_csv(tmp_path / "first.csv"), tmp_path / "second.csv")
    assert (tmp_path / "first.csv").read_bytes() == (tmp_path / "second.csv").read_bytes()


OFFSETS = st.one_of(
    st.sampled_from([0.0, 1 / 3, -1 / 3, 2 / 3, 5.5, -5.5, 5.75, -9.5, 23.99, -23.99]),
    st.floats(min_value=-23.999, max_value=23.999),
)


@settings(max_examples=300)
@given(st.lists(st.integers(-5 * 10**10, 10**11), min_size=1, max_size=20), OFFSETS)
def test_local_days_match_local_date(times, utc_offset):
    days = ingest.local_days(np.array(times, dtype=np.int64), utc_offset)
    assert [ingest.day_date(d) for d in days.tolist()] == [
        oracles.local_date(t, utc_offset) for t in times
    ]


@pytest.mark.parametrize(
    "time, utc_offset",
    [
        (9_000_000_000_000_000_000, 0.0),
        (253_402_300_000, 1.0),
        (10**15, 0.0),
        (2**62, 0.0),
        (-(2**62), 0.0),
        (-62_135_596_800, -1.0),
    ],
)
def test_local_days_reject_a_time_whose_local_date_is_out_of_range(time, utc_offset):
    with pytest.raises(SchemaError, match=re.escape(f"start_time {time} at UTC offset {utc_offset:+g} h")):
        ingest.local_days(np.array([0, time], dtype=np.int64), utc_offset)


@pytest.mark.parametrize("time", [-62_135_596_800, 253_402_300_799])  # 0001-01-01, 9999-12-31
def test_local_days_keep_the_first_and_last_dates(time):
    (day,) = ingest.local_days(np.array([time], dtype=np.int64), 0.0).tolist()
    assert ingest.day_date(day) == oracles.local_date(time, 0.0)


def _good_rows(n):
    return "".join(f"d{i % 97},p{i % 13},{1580601600 + 60 * i},{600 + i % 7}\n" for i in range(n))


@pytest.mark.parametrize(
    "bad, message",
    [
        ("d1,p1,1580601600\n", "wrong number of fields"),
        ("d1, ,1580601600,600\n", "empty poi_id"),
        ("d1,p1,1580601600,-1\n", "negative dwell"),
        ("d1,p1,1e9,600\n", "non-integer"),
        (f"d1,p1,{2**63},600\n", "64-bit"),
    ],
)
def test_bad_row_deep_in_a_bulk_parsed_file_names_its_line(bad, message):
    text = STOPS_HEADER + _good_rows(3000) + bad + _good_rows(500)
    with pytest.raises(RowError, match=message) as err:
        stops_from_text(text)
    assert err.value.line == 3002


def test_bulk_parse_reads_rows_as_dictreader_does():
    # blank rows are skipped, extra fields allowed, a repeated column's last field wins
    text = (
        "device_id,poi_id,start_time,dwell,dwell\n"
        "\n"
        " d1 ,p2,10,5,600,extra\n"
        "\n"
        "d2,\"p1\",20,5,0\n"
    )
    assert stop_rows(stops_from_text(text)) == [
        ("d1", "p2", 10, 600),
        ("d2", "p1", 20, 0),
    ]
    assert stop_rows(stops_from_text(text)) == [
        (r["device_id"].strip(), r["poi_id"], int(r["start_time"]), int(r["dwell"]))
        for r in csv.DictReader(io.StringIO(text))
    ]


def test_stop_table_round_trips_records():
    records = [_stop(device="d2", poi="p9", t=-5), _stop(), _stop(device="d2", dwell=0)]
    table = stop_table(records)
    assert stop_rows(table) == records
    assert table.devices == ["d1", "d2"] and table.pois == ["p1", "p9"]


@pytest.mark.parametrize("poi_id", ["p|1", "p;1", '"p,1"'])
def test_catalog_rejects_reserved_separator_in_poi_id(tmp_path, poi_id):
    path = tmp_path / "pois.csv"
    path.write_text(POIS_HEADER + "p0,A,0.0,0.0,44\n" + f"{poi_id},B,0.0,0.0,44\n")
    with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}:3: poi_id 'p.1' contains"):
        load_poi_catalog(path)


# A quoted field holding a line break spans two lines; errors name the first.
@pytest.mark.parametrize("poi_id", ["p\r1", "p\n1"])
def test_catalog_rejects_line_break_in_poi_id(tmp_path, poi_id):
    path = tmp_path / "pois.csv"
    path.write_text(POIS_HEADER + "p0,A,0.0,0.0,44\n" + f'"{poi_id}",B,0.0,0.0,44\n', newline="")
    where = re.escape(f"{path}:3: poi_id {poi_id!r} contains")
    with pytest.raises(SchemaError, match=f"^{where}"):
        load_poi_catalog(path)
    stops = tmp_path / "stops.csv"
    stops.write_text(STOPS_HEADER + "d1,p0,0,600\n")
    assert main(["ingest", "--stops", str(stops), "--pois", str(path),
                 "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("device_id", ["d\r1", "d\n1"])
def test_stops_reject_line_break_in_device_id(tmp_path, device_id):
    path = tmp_path / "stops.csv"
    rows = [f"d{i},p1,{1580601600 + i},600\n" for i in range(50)]
    path.write_text(
        STOPS_HEADER + "".join(rows) + f'"{device_id}",p1,1580601600,600\n', newline=""
    )
    where = re.escape(f"{path}:52: device_id {device_id!r} holds a line break")
    with pytest.raises(SchemaError, match=f"^{where}"):
        parse_stops(path)
    pois = tmp_path / "pois.csv"
    pois.write_text(POIS_HEADER + "p1,A,0.0,0.0,44\n")
    assert main(["ingest", "--stops", str(path), "--pois", str(pois),
                 "--out", str(tmp_path / "out")]) == 2


# A bare carriage return would end the row: the files' line terminator is "\n".
DEVICE_IDS = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00\r"))
POI_IDS = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00\r\n|;,"), min_size=1
)
# A walk never repeats a stay consecutively: read_sequences rejects that row.
WALKS = (
    st.lists(POI_IDS, min_size=2, max_size=6)
    .map(lambda stays: tuple(v for i, v in enumerate(stays) if i == 0 or stays[i - 1] != v))
    .filter(lambda stays: len(stays) >= 2)
)


@settings(max_examples=100)
@example([  # csv.writer quotes these device ids and the stays holding the quoted POI id
    Walk('d,1', dt.date(2020, 2, 3), ('a', 'b')),
    Walk('d"2', dt.date(2020, 2, 3), ('p"1', 'b', '"q')),
    Walk("", dt.date(2020, 2, 4), ("a", "b")),
    Walk("d\n3", dt.date(2020, 2, 4), ("a", "b")),
])
@example([  # stays that differ only by a leading space stay apart
    Walk("d1", dt.date(2020, 2, 3), (" a", "a")),
    Walk("d1", dt.date(2020, 2, 4), ("a", " a", "b")),
])
@given(
    st.lists(
        st.builds(
            Walk,
            DEVICE_IDS,
            st.dates(),
            WALKS,
        ),
        max_size=15,
    )
)
def test_sequence_file_round_trips_any_table(tmp_path_factory, seqs):
    path = tmp_path_factory.mktemp("seq") / "sequences.csv"
    table = sequence_table(seqs)
    write_sequences(table, path)
    assert path.read_bytes() == oracles.format_sequences(table).encode()
    assert oracles.walks(read_sequences(path)) == seqs
    assert oracles.walks(read_sequences(path)) == oracles.walks(table)


def test_write_tokens_writes_each_blocks_tokens_in_order(tmp_path):
    vocab = ["", "p1,", "p22|", "é;", "7\n", "x" * 300 + "\n"]
    tokens = np.random.default_rng(3).integers(0, len(vocab), 5_000).astype(np.int32)
    want = ("a,b\n" + "".join(vocab[t] for t in tokens.tolist())).encode()
    path = tmp_path / "tokens.csv"
    ingest.write_tokens(path, ("a", "b"), vocab, [tokens[:1_234], tokens[:0], tokens[1_234:]])
    assert path.read_bytes() == want


def test_write_tokens_of_no_blocks_writes_the_header_alone(tmp_path):
    path = tmp_path / "tokens.csv"
    ingest.write_tokens(path, ("a", "b"), ["p1,", "7\n"], [])
    assert path.read_bytes() == b"a,b\n"


@settings(max_examples=60, deadline=None)
@given(
    vocab=st.lists(st.text(max_size=6), min_size=1, max_size=10),
    dtype=st.sampled_from([np.int32, np.int64]),
    data=st.data(),
)
def test_write_tokens_writes_any_vocabulary_over_any_block_split(
    tmp_path_factory, vocab, dtype, data
):
    tokens = data.draw(st.lists(st.integers(0, len(vocab) - 1), max_size=50))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(tokens)), max_size=4)))
    array = np.array(tokens, dtype=dtype)
    blocks = [array[lo:hi] for lo, hi in zip([0, *cuts], [*cuts, len(tokens)])]
    path = tmp_path_factory.mktemp("tokens") / "tokens.csv"
    ingest.write_tokens(path, ("a", "b"), vocab, blocks)
    assert path.read_bytes() == ("a,b\n" + "".join(vocab[t] for t in tokens)).encode()


# Stops files that read alike and differently under csv.reader and a columnar parse:
# quoting, surrounding spaces, long ids, blank lines, CRLF, extra and missing fields,
# int()-only integer forms and values outside int64.
STOP_HEADERS = [
    ("device_id", "poi_id", "start_time", "dwell"),
    ("poi_id", "dwell", "device_id", "start_time"),
    ("device_id", "poi_id", "start_time", "dwell", "note"),
    ("note", "device_id", "poi_id", "start_time", "dwell", "dwell"),
]
STOP_IDS = st.text(
    st.sampled_from(list("abcdé1 ,\"\t")), min_size=1, max_size=40
).filter(str.strip)
ODD_IDS = st.sampled_from(["", "  ", "d\n1", "d\r1", "a\x00"]) | st.text(
    st.characters(blacklist_categories=("Cs",)), max_size=6
)
ODD_INTEGERS = ["+5", "1_000", " 7 ", "-0", "", "x", "1e3", "5.0", "\u0665", "-5",
                str(2**63), str(-(2**63)), str(2**63 - 1), str(-(2**63) - 1)]


@st.composite
def stops_files(draw):
    """A stops file's text; about half the files break or stretch one row."""
    header = draw(st.sampled_from(STOP_HEADERS))
    rows = []
    for _ in range(draw(st.integers(0, 14))):
        rows.append({
            "device_id": draw(STOP_IDS),
            "poi_id": draw(STOP_IDS),
            "start_time": str(draw(st.integers(-(10**12), 10**12))),
            "dwell": str(draw(st.integers(0, 10**6))),
            "note": draw(st.sampled_from(["", "n", "x,y"])),
        })
    odd = draw(st.sampled_from(["", "", "", "id", "integer", "short", "blank"])) if rows else ""
    at = draw(st.integers(0, len(rows) - 1)) if rows else 0
    if odd == "id":
        rows[at][draw(st.sampled_from(["device_id", "poi_id"]))] = draw(ODD_IDS)
    elif odd == "integer":
        column = draw(st.sampled_from(["start_time", "dwell"]))
        rows[at][column] = draw(st.sampled_from(ODD_INTEGERS))
    lines = [",".join(header)]
    for i, fields in enumerate(rows):
        row = []
        for column in header:  # fields csv.writer would quote are quoted, most others not
            value = fields[column]
            if any(ch in value for ch in ',"\r\n') or draw(st.integers(0, 4)) == 0:
                value = '"' + value.replace('"', '""') + '"'
            row.append(value)
        row += draw(st.lists(st.sampled_from(["", "extra", '"q,q"']), max_size=2))
        lines.append(",".join(row[:-1] if odd == "short" and i == at else row))
        if draw(st.integers(0, 7)) == 0:
            lines.append("  " if odd == "blank" else "")
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return ending.join(lines) + draw(st.sampled_from([ending, ""]))


def _parse_outcome(parse, text):
    """A parse's stops and sorted name lists, or its error's type and FILE:LINE."""
    try:
        return parse(text)
    except RowError as exc:
        return type(exc), str(exc).split(": ", 1)[0]


def _library_stops(text):
    table = parse_stops(io.StringIO(text, newline=""))  # as a file opened with newline=""
    return stop_rows(table), table.devices, table.pois


def _oracle_stops(text):
    rows = oracles.csv_stop_rows(text)
    return rows, sorted({r.device_id for r in rows}), sorted({r.poi_id for r in rows})


@settings(max_examples=200, deadline=None)
@example(STOPS_HEADER + '"d,""1",p1,10,5\n d2 ,  "p2",20,0\n\n')
@example(STOPS_HEADER + "d1,p1,1_000,5\nd2,p2,+7,\u0665\n")
@example(STOPS_HEADER + "d" * 40 + ",p1,10,5\r\n" + "e" * 17 + ",p" + "9" * 30 + ",20,0\r\n")
@example(STOPS_HEADER + "d1,p1,10,5\nd2,p2,20\n")
@example(STOPS_HEADER + "a\x00,p1,10,5\na,p1,20,5\n")
@given(stops_files())
def test_parse_stops_matches_a_csv_reader_parse(text):
    # a three-row block puts most generated rows past the first block
    with mock.patch.object(ingest, "_STOP_BLOCK", 3):
        got = _parse_outcome(_library_stops, text)
    assert got == _parse_outcome(_oracle_stops, text)


# Ids the run interning must keep apart, or merge as the strip does.
INTERNED_IDS = st.sampled_from(
    ["a", "a\x00", " a", "a ", "\ta", "b", "é", "é\x00", " é ", "中文", "d9", "d10"]
) | STOP_IDS


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(INTERNED_IDS, st.integers(1, 4)), max_size=12),
    st.lists(INTERNED_IDS, min_size=1, max_size=6),
    st.randoms(use_true_random=False),
    st.booleans(),
)
def test_run_interning_gives_the_row_parse_codes_and_names(runs, pois, rnd, grouped):
    rows = [
        (device, rnd.choice(pois), rnd.randint(-(10**12), 10**12), rnd.randint(0, 10**6))
        for device, length in runs for _ in range(length)
    ]
    if not grouped:
        rnd.shuffle(rows)
    text = io.StringIO(newline="")
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(STOPS_COLUMNS)
    writer.writerows(rows)
    # blocks of three rows cut most runs of one device between two blocks
    with mock.patch.object(ingest, "_STOP_BLOCK", 3):
        source = io.StringIO(text.getvalue(), newline="")
        with ingest.CsvRows(source, STOPS_COLUMNS, "stops") as read:
            bulk, checked = ingest._bulk_stops(read), ingest._checked_stops(read)
    assert bulk is not None
    assert (bulk.devices, bulk.pois) == (checked.devices, checked.pois)
    for column in ("device", "poi", "start_time", "dwell"):
        got, want = getattr(bulk, column), getattr(checked, column)
        assert got.dtype == want.dtype and np.array_equal(got, want), column


@settings(max_examples=200, deadline=None)
@example([], False)
@example(["0", " "], False)  # a strip in the shared path would merge these
@example(["a", "a\x00", " a", "a ", "é", "a", "中文", "é\x00"], True)
@given(st.lists(INTERNED_IDS | DEVICE_IDS, max_size=30), st.booleans())
def test_interning_matches_the_sorted_position_dict(ids, first_seen_sorted):
    """Every reader's interning (a CodeIndex, then _sorted_codes) against the
    sort of dict.fromkeys and a position dict, over ids first seen in sorted
    order (as a star's are) and in the drawn order."""
    values = sorted(ids) if first_seen_sorted else ids
    names, codes = ingest._intern(values)
    want_names, want_codes = oracles.intern(values)
    assert names == want_names
    assert codes.dtype == want_codes.dtype and np.array_equal(codes, want_codes)
