import csv
import datetime as dt
import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from placeweave import ingest
from placeweave.cli import main
from placeweave.errors import RowError, SchemaError, UnknownSectorError
from placeweave.ingest import (
    PoiCatalog,
    PoiRecord,
    SequenceTable,
    StaySequence,
    StopRecord,
    StopTable,
    filter_cataloged,
    load_poi_catalog,
    parse_stops,
    read_sequences,
    stops_from_text,
    write_sequences,
)

STOPS_HEADER = "device_id,poi_id,start_time,dwell\n"


def test_parse_stops_maps_fields():
    records = stops_from_text(STOPS_HEADER + "d1,p1,1580601600,900\n").records()
    assert records == [StopRecord("d1", "p1", 1580601600, 900)]


def test_parse_stops_header_only_is_empty():
    assert stops_from_text(STOPS_HEADER).records() == []


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
    return StopRecord(device, poi, t, dwell)


def filter_visits(stops, min_dwell):
    """ingest.filter_visits over a table of the records; the kept records."""
    return ingest.filter_visits(StopTable.from_records(stops), min_dwell).records()


def build_stay_sequences(stops, utc_offset):
    """ingest.build_stay_sequences over a table of the records; the sequences as a list."""
    return list(ingest.build_stay_sequences(StopTable.from_records(stops), utc_offset))


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


POIS_HEADER = "poi_id,name,lat,lon,naics\n"


def test_load_poi_catalog_maps_fields():
    catalog = load_poi_catalog(io.StringIO(POIS_HEADER + "p1,Cafe,29.76,-95.37,7225\n"))
    assert len(catalog) == 1
    assert catalog["p1"] == PoiRecord("p1", "Cafe", 29.76, -95.37, "7225")


def test_load_poi_catalog_duplicate_id_fatal():
    text = POIS_HEADER + "p1,A,1.0,2.0,44\np1,B,1.0,2.0,45\n"
    with pytest.raises(SchemaError, match="duplicate"):
        load_poi_catalog(io.StringIO(text))


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
    catalog = PoiCatalog(
        [PoiRecord(f"p{i}", "A", 0.0, 0.0, "44") for i in range(3)]
    )
    records = [
        StopRecord("".join(["d", str(k % 2)]), "".join(["p", str(k % 3)]), 3600 * k, 600)
        for k in range(8)
    ]
    stops = StopTable.from_records(records)
    seqs = list(ingest.build_stay_sequences(filter_cataloged(stops, catalog)[0], 0))
    assert seqs == build_stay_sequences(records, 0)
    own_ids = {rec.poi_id: rec.poi_id for rec in catalog}
    stop_devices = {id(s.device_id) for s in records}
    assert all(poi is own_ids[poi] for seq in seqs for poi in seq.stays)
    assert all(id(seq.device_id) not in stop_devices for seq in seqs)
    assert len({id(seq.local_date) for seq in seqs}) == len({seq.local_date for seq in seqs})


def test_filter_cataloged_drops_and_counts():
    catalog = PoiCatalog([PoiRecord("p1", "A", 0.0, 0.0, "44")])
    stops = StopTable.from_records([_stop(), _stop(poi="ghost")])
    kept, dropped = filter_cataloged(stops, catalog)
    assert [s.poi_id for s in kept.records()] == ["p1"]
    assert dropped == 1


def test_sequences_survive_catalog_join():
    catalog = PoiCatalog(
        [PoiRecord("p1", "A", 0.0, 0.0, "44"), PoiRecord("p2", "B", 0.0, 0.0, "72")]
    )
    stops = StopTable.from_records([_stop(t=1), _stop(poi="ghost", t=2), _stop(poi="p2", t=3)])
    kept, _ = filter_cataloged(stops, catalog)
    for seq in ingest.build_stay_sequences(kept, 0):
        assert all(poi in catalog for poi in seq.stays)


def test_sequence_file_round_trip(tmp_path):
    stops = [
        _stop(t=1),
        _stop(poi="p2", t=2),
        _stop(device="d2", poi="p3", t=5),
        _stop(device="d2", poi="p1", t=9),
    ]
    seqs = ingest.build_stay_sequences(StopTable.from_records(stops), 0)
    path = tmp_path / "sequences.csv"
    write_sequences(seqs, path)
    assert read_sequences(path) == seqs


@pytest.mark.parametrize(
    "stays, message",
    [("a", "shorter than 2 stays"), ("a|b|b", "repeats a stay consecutively")],
)
def test_read_sequences_names_the_bad_row(stays, message):
    text = f"device_id,local_date,stays\nd1,2020-02-03,a|b\nd2,2020-02-03,{stays}\n"
    with pytest.raises(RowError, match=f"line 3: .*{message}") as err:
        read_sequences(io.StringIO(text))
    assert err.value.line == 3


OFFSETS = st.one_of(
    st.sampled_from([0.0, 1 / 3, -1 / 3, 2 / 3, 5.5, -5.5, 5.75, -9.5, 23.99, -23.99]),
    st.floats(min_value=-23.999, max_value=23.999),
)


@settings(max_examples=300)
@given(st.lists(st.integers(-5 * 10**10, 10**11), min_size=1, max_size=20), OFFSETS)
def test_local_days_match_local_date(times, utc_offset):
    days = ingest.local_days(np.array(times, dtype=np.int64), utc_offset)
    assert [ingest.day_date(d) for d in days.tolist()] == [
        ingest.local_date(t, utc_offset) for t in times
    ]


def test_local_days_raise_what_local_date_raises_out_of_range():
    with pytest.raises(Exception) as expected:
        ingest.local_date(10**15, 0.0)
    with pytest.raises(type(expected.value)):
        ingest.local_days(np.array([0, 10**15], dtype=np.int64), 0.0)


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
    assert stops_from_text(text).records() == [
        StopRecord("d1", "p2", 10, 600),
        StopRecord("d2", "p1", 20, 0),
    ]
    assert stops_from_text(text).records() == [
        StopRecord(r["device_id"].strip(), r["poi_id"], int(r["start_time"]), int(r["dwell"]))
        for r in csv.DictReader(io.StringIO(text))
    ]


def test_stop_table_round_trips_records():
    records = [_stop(device="d2", poi="p9", t=-5), _stop(), _stop(device="d2", dwell=0)]
    table = StopTable.from_records(records)
    assert table.records() == records
    assert table.devices == ["d1", "d2"] and table.pois == ["p1", "p9"]


@pytest.mark.parametrize("poi_id", ["p|1", "p;1", '"p,1"'])
def test_catalog_rejects_reserved_separator_in_poi_id(tmp_path, poi_id):
    path = tmp_path / "pois.csv"
    path.write_text(POIS_HEADER + "p0,A,0.0,0.0,44\n" + f"{poi_id},B,0.0,0.0,44\n")
    with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}:3: poi_id 'p.1' contains"):
        load_poi_catalog(path)


# A quoted field holding a line break spans two lines; errors name the last.
@pytest.mark.parametrize("poi_id", ["p\r1", "p\n1"])
def test_catalog_rejects_line_break_in_poi_id(tmp_path, poi_id):
    path = tmp_path / "pois.csv"
    path.write_text(POIS_HEADER + "p0,A,0.0,0.0,44\n" + f'"{poi_id}",B,0.0,0.0,44\n', newline="")
    where = re.escape(f"{path}:4: poi_id {poi_id!r} contains")
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
    where = re.escape(f"{path}:53: device_id {device_id!r} holds a line break")
    with pytest.raises(SchemaError, match=f"^{where}"):
        parse_stops(path)
    pois = tmp_path / "pois.csv"
    pois.write_text(POIS_HEADER + "p1,A,0.0,0.0,44\n")
    assert main(["ingest", "--stops", str(path), "--pois", str(pois),
                 "--out", str(tmp_path / "out")]) == 2


# A bare carriage return would end the row: the files' line terminator is "\n".
DEVICE_IDS = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00\r"))
POI_IDS = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00\r|;,"), min_size=1
)
# A walk never repeats a stay consecutively: read_sequences rejects that row.
WALKS = (
    st.lists(POI_IDS, min_size=2, max_size=6)
    .map(lambda stays: tuple(v for i, v in enumerate(stays) if i == 0 or stays[i - 1] != v))
    .filter(lambda stays: len(stays) >= 2)
)


@settings(max_examples=100)
@given(
    st.lists(
        st.builds(
            StaySequence,
            DEVICE_IDS,
            st.dates(),
            WALKS,
        ),
        max_size=15,
    )
)
def test_sequence_file_round_trips_any_table(tmp_path_factory, seqs):
    path = tmp_path_factory.mktemp("seq") / "sequences.csv"
    table = SequenceTable.from_sequences(seqs)
    write_sequences(table, path)
    assert list(read_sequences(path)) == seqs
    assert read_sequences(path) == table
