import datetime as dt
import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from placeweave.errors import RowError, SchemaError, UnknownSectorError
from placeweave.ingest import (
    PoiCatalog,
    PoiRecord,
    StopRecord,
    build_stay_sequences,
    filter_cataloged,
    filter_visits,
    load_poi_catalog,
    parse_stops,
    read_sequences,
    stops_from_text,
    write_sequences,
)

STOPS_HEADER = "device_id,poi_id,start_time,dwell\n"


def test_parse_stops_maps_fields():
    records = stops_from_text(STOPS_HEADER + "d1,p1,1580601600,900\n")
    assert records == [StopRecord("d1", "p1", 1580601600, 900)]


def test_parse_stops_header_only_is_empty():
    assert stops_from_text(STOPS_HEADER) == []


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
    stops = [
        StopRecord("".join(["d", str(k % 2)]), "".join(["p", str(k % 3)]), 3600 * k, 600)
        for k in range(8)
    ]
    seqs = build_stay_sequences(stops, 0, catalog)
    assert seqs == build_stay_sequences(stops, 0)
    own_ids = {rec.poi_id: rec.poi_id for rec in catalog}
    stop_devices = {id(s.device_id) for s in stops}
    assert all(poi is own_ids[poi] for seq in seqs for poi in seq.stays)
    assert all(id(seq.device_id) not in stop_devices for seq in seqs)
    assert len({id(seq.local_date) for seq in seqs}) == len({seq.local_date for seq in seqs})


def test_filter_cataloged_drops_and_counts():
    catalog = PoiCatalog([PoiRecord("p1", "A", 0.0, 0.0, "44")])
    stops = [_stop(), _stop(poi="ghost")]
    kept, dropped = filter_cataloged(stops, catalog)
    assert [s.poi_id for s in kept] == ["p1"]
    assert dropped == 1


def test_sequences_survive_catalog_join():
    catalog = PoiCatalog(
        [PoiRecord("p1", "A", 0.0, 0.0, "44"), PoiRecord("p2", "B", 0.0, 0.0, "72")]
    )
    stops = [_stop(t=1), _stop(poi="ghost", t=2), _stop(poi="p2", t=3)]
    kept, _ = filter_cataloged(stops, catalog)
    for seq in build_stay_sequences(kept, 0):
        assert all(poi in catalog for poi in seq.stays)


def test_sequence_file_round_trip(tmp_path):
    stops = [
        _stop(t=1),
        _stop(poi="p2", t=2),
        _stop(device="d2", poi="p3", t=5),
        _stop(device="d2", poi="p1", t=9),
    ]
    seqs = build_stay_sequences(stops, 0)
    path = tmp_path / "sequences.csv"
    write_sequences(seqs, path)
    assert read_sequences(path) == seqs
