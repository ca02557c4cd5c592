import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import Walk, instance_from_edges, sequence_table
from placeweave.config import RunConfig
from placeweave.errors import InvariantError, MissingPoiError
from placeweave.ingest import PoiCatalog
from placeweave.motifs import MotifClass, classify_trajectories
from placeweave.pipeline import InstanceTable, stage_series
from placeweave.stats import (
    EARTH_RADIUS_KM,
    SeriesPoint,
    _great_circle_lengths,
    build_report,
    class_avg_distance,
    daily_census_series,
    haversine_km,
    instance_distances,
    moving_average,
    pct_change_series,
)

KM_PER_DEGREE = math.pi * EARTH_RADIUS_KM / 180.0
MON = dt.date(2020, 2, 3)
SAT = dt.date(2020, 2, 1)


def poi(poi_id, lat, lon, naics="4400"):
    return (poi_id, poi_id, lat, lon, naics)


def north_of(base_lat, km):
    return base_lat + km / KM_PER_DEGREE


# -- haversine ----------------------------------------------------------------


def test_haversine_identical_points():
    assert haversine_km(29.76, -95.37, 29.76, -95.37) == 0.0


def test_haversine_equatorial_antipodes():
    expected = math.pi * EARTH_RADIUS_KM  # half great circle
    assert haversine_km(0, 0, 0, 180) == pytest.approx(expected, rel=1e-9)


def test_haversine_one_degree_of_arc():
    expected = math.pi * EARTH_RADIUS_KM / 180.0
    assert haversine_km(0, 0, 1, 0) == pytest.approx(expected, rel=1e-9)


def test_haversine_rejects_out_of_range():
    with pytest.raises(ValueError):
        haversine_km(91, 0, 0, 0)
    with pytest.raises(ValueError):
        haversine_km(0, 181, 0, 0)
    with pytest.raises(ValueError):
        haversine_km(0, float("nan"), 0, 0)


coords = st.tuples(
    st.floats(-90, 90, allow_nan=False), st.floats(-180, 180, allow_nan=False)
)


@settings(max_examples=150)
@given(coords, coords)
def test_haversine_symmetric(p, q):
    assert haversine_km(*p, *q) == pytest.approx(haversine_km(*q, *p), abs=1e-9)


@settings(max_examples=150)
@given(coords, coords, coords)
@example(p=(0.0, 180.0), q=(-1.0, 0.0), r=(-1.0555420941336097e-07, 0.0))
def test_haversine_triangle_inequality(p, q, r):
    direct = haversine_km(*p, *r)
    detour = haversine_km(*p, *q) + haversine_km(*q, *r)
    assert direct <= detour + 1e-6


# ((lat, lon), (lat, lon)) pairs that each test one case of the formula.
GREAT_CIRCLE_CASES = [
    ((29.76, -95.37), (29.7601, -95.3702)),  # near: metres apart
    ((29.76, -95.37), (29.76, -95.37)),  # one point twice
    ((0.0, 0.0), (0.0, 1.0)),  # one degree
    ((51.5, -0.1), (-33.9, 151.2)),  # far: beyond a quarter circle
    ((0.0, 0.0), (0.0, 180.0)),  # antipodes on the equator
    ((40.0, -74.0), (-40.0, 106.0)),  # antipodes
    ((90.0, 0.0), (-90.0, 0.0)),  # pole to pole
    ((90.0, 45.0), (89.0, -135.0)),  # across the north pole
    ((-90.0, 10.0), (-45.0, 0.0)),  # from the south pole
    ((10.0, 180.0), (10.0, -180.0)),  # one meridian named twice
    ((0.0, 179.9), (0.0, -179.9)),  # across the antimeridian
    ((-5.0, -180.0), (5.0, 0.0)),  # near-antipodes from the antimeridian
]


def assert_oracle_bits(pairs):
    """The kernel over all pairs, and haversine_km of each, give the scalar
    oracle's bytes: the last bit, and the sign of a zero, must match too."""
    want = np.array([oracles.haversine_km(*p, *q) for p, q in pairs])
    lat, lon = np.array([point for pair in pairs for point in pair]).T
    phi = np.radians(lat)
    cos_phi = np.fromiter(map(math.cos, phi.tolist()), np.float64, phi.size)
    ends = np.arange(lat.size).reshape(-1, 2)
    assert _great_circle_lengths(phi, cos_phi, lon, ends).tobytes() == want.tobytes()
    assert np.array([haversine_km(*p, *q) for p, q in pairs]).tobytes() == want.tobytes()


@settings(max_examples=200)
@given(st.lists(st.tuples(coords, coords), min_size=1, max_size=40))
@example(pairs=GREAT_CIRCLE_CASES)
def test_great_circle_kernel_has_the_scalar_oracles_bits(pairs):
    assert_oracle_bits(pairs)


def test_great_circle_kernel_has_the_scalar_oracles_bits_on_global_pairs():
    # About half of uniform pairs lie beyond a quarter circle. There numpy's
    # hypot and math.hypot round apart on about 1 pair in 1,000.
    rng = np.random.default_rng(13)
    points = np.stack([rng.uniform(-90.0, 90.0, 40_000), rng.uniform(-180.0, 180.0, 40_000)], 1)
    assert_oracle_bits(points.reshape(-1, 2, 2).tolist())


# -- motif distances ----------------------------------------------------------


def classify(seqs):
    return classify_trajectories(sequence_table(seqs))


def motif_avg_distance(inst, catalog) -> float:
    """The table's distance of one instance, traced by one walk."""
    walk = Walk("d1", MON, tuple(oracles.covering_walk(inst.edges)))
    [km] = instance_distances(classify([walk]).rows, catalog).tolist()
    return km


def pair_distances(lat, lon, pairs) -> tuple[list[float], list[float]]:
    """instance_distances over one two-POI walk per pair of POI indices, and
    the scalar oracle's distance between each instance's two POIs."""
    ids = [f"p{i:04d}" for i in range(len(lat))]
    catalog = oracles.catalog(poi(p, a, b) for p, a, b in zip(ids, lat.tolist(), lon.tolist()))
    walks = [Walk(f"d{k}", MON, (ids[i], ids[j])) for k, (i, j) in enumerate(pairs)]
    rows = classify(walks).rows
    got = instance_distances(rows, catalog).tolist()
    ends = [[rows.pois[v] for v in nodes[:2]] for nodes in rows.instances.nodes.tolist()]
    coords = dict(zip(catalog.poi_ids, zip(catalog.lat.tolist(), catalog.lon.tolist())))
    return got, [oracles.haversine_km(*coords[u], *coords[v]) for u, v in ends]


def test_edge_distances_equal_haversine_km_on_random_pairs():
    rng = np.random.default_rng(7)
    lat = rng.uniform(-90.0, 90.0, 40)
    lon = rng.uniform(-180.0, 180.0, 40)
    lat[20:30], lon[20:30] = -lat[:10], lon[:10] - np.copysign(180.0, lon[:10])  # antipodes
    lat[30:], lon[30:] = -lat[10:20] * 0.9, lon[10:20] - np.copysign(150.0, lon[10:20])
    pairs = [(i, i + 20) for i in range(20)]
    pairs += [tuple(rng.choice(40, 2, replace=False)) for _ in range(60)]
    got, want = pair_distances(lat, lon, pairs)
    assert got == want
    # one call took both branches: asin within a quarter circle, atan2 beyond it
    assert min(want) < 0.5 * math.pi * EARTH_RADIUS_KM < max(want)


def test_edge_distances_equal_haversine_km_on_city_pairs():
    # Thousands of short edges: a squared sine taken as x * x, or an arcsine
    # from numpy instead of libm, changes the last bit of some of them.
    rng = np.random.default_rng(11)
    lat = rng.uniform(29.4, 30.2, 600)
    lon = rng.uniform(-95.9, -95.0, 600)
    pairs = {tuple(sorted(rng.choice(600, 2, replace=False).tolist())) for _ in range(3_000)}
    got, want = pair_distances(lat, lon, sorted(pairs))
    assert len(want) == len(pairs)
    assert got == want


def test_np_radians_is_math_radians_bit_for_bit():
    # The great-circle kernel takes its radians from np.radians and the scalar
    # oracle from math.radians: both must be one multiply by the same pi / 180.
    rng = np.random.default_rng(5)
    tiny = np.nextafter(0.0, 1.0) * rng.integers(1, 2**52, 10_000)  # subnormals
    special = [0.0, 90.0, 180.0, 1e308, np.finfo(np.float64).max, 5e-324, 2.2250738585072014e-308]
    degrees = np.concatenate([special, tiny, rng.uniform(-360.0, 360.0, 100_000)])
    degrees = np.concatenate([degrees, -degrees])
    want = np.fromiter(map(math.radians, degrees.tolist()), np.float64, degrees.size)
    assert np.radians(degrees).tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "lat, lon, message",
    [
        (91.0, 0.0, "latitude 91.0"),
        (0.0, -181.0, "longitude -181.0"),
        (0.0, math.nan, "longitude nan"),
        (math.inf, 0.0, "latitude inf"),
        (-math.inf, 0.0, "latitude -inf"),
        (0.0, math.inf, "longitude inf"),
        (0.0, -math.inf, "longitude -inf"),
        (-90.5, 0.0, "latitude -90.5"),
    ],
)
def test_edge_distances_reject_what_haversine_km_rejects(lat, lon, message):
    catalog = PoiCatalog.from_rows([("a", "a", 0.0, 0.0, "44", 0), ("b", "b", lat, lon, "44", 0)])
    rows = classify([Walk("d1", MON, ("a", "b"))]).rows
    with pytest.raises(ValueError, match=f"^{message} out of range") as err:
        instance_distances(rows, catalog)
    for reject in (haversine_km, oracles.haversine_km):
        with pytest.raises(ValueError) as expected:
            reject(0.0, 0.0, lat, lon)
        assert str(err.value) == str(expected.value)


def test_single_edge_distance():
    catalog = oracles.catalog([poi("a", 0.0, 0.0), poi("b", north_of(0.0, 4.0), 0.0)])
    inst = instance_from_edges(["a", "b"], [("a", "b")])
    assert motif_avg_distance(inst, catalog) == pytest.approx(4.0, abs=1e-9)


def test_star_distance_is_mean_of_legs():
    catalog = oracles.catalog(
        [
            poi("hub", 0.0, 0.0),
            poi("l1", north_of(0.0, 1.0), 0.0),
            poi("l2", north_of(0.0, 2.0), 0.0),
            poi("l3", 0.0 - 3.0 / KM_PER_DEGREE, 0.0),
        ]
    )
    inst = instance_from_edges(
        ["hub", "l1", "l2", "l3"], [("hub", "l1"), ("hub", "l2"), ("hub", "l3")]
    )
    assert inst.motif_class is MotifClass.M4_6
    assert motif_avg_distance(inst, catalog) == pytest.approx(2.0, abs=1e-9)


def test_triangle_distance_is_mean_of_sides():
    catalog = oracles.catalog([poi("a", 0.0, 0.0), poi("b", 0.02, 0.01), poi("c", -0.01, 0.025)])
    inst = instance_from_edges(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    sides = [
        oracles.haversine_km(*pq)
        for pq in [(0.0, 0.0, 0.02, 0.01), (0.02, 0.01, -0.01, 0.025), (0.0, 0.0, -0.01, 0.025)]
    ]
    assert motif_avg_distance(inst, catalog) == pytest.approx(sum(sides) / 3, abs=1e-12)


def test_distance_missing_poi_rejected():
    catalog = oracles.catalog([poi("a", 0, 0)])
    inst = instance_from_edges(["a", "b"], [("a", "b")])
    with pytest.raises(MissingPoiError):
        motif_avg_distance(inst, catalog)


def test_distance_invariant_under_node_relabeling():
    coords = {"a": (0.0, 0.0), "b": (0.02, 0.01), "c": (-0.01, 0.02), "d": (0.03, -0.02)}
    edges = [("a", "b"), ("b", "c"), ("c", "d")]
    renamed = {"a": "z9", "b": "m", "c": "q", "d": "b1"}
    cat_a = oracles.catalog([poi(k, *v) for k, v in coords.items()])
    cat_b = oracles.catalog([poi(renamed[k], *v) for k, v in coords.items()])
    inst_a = instance_from_edges(coords, edges)
    inst_b = instance_from_edges(renamed.values(), [(renamed[a], renamed[b]) for a, b in edges])
    assert motif_avg_distance(inst_a, cat_a) == pytest.approx(
        motif_avg_distance(inst_b, cat_b), abs=1e-12
    )


def _census_rows(seqs):
    return classify(seqs).rows


def test_class_avg_distance_single_instance():
    catalog = oracles.catalog([poi("a", 0, 0), poi("b", north_of(0, 3.0), 0)])
    rows = _census_rows([Walk("d1", MON, ("a", "b"))])
    table = class_avg_distance(rows.instances, instance_distances(rows, catalog))
    row = table[MotifClass.M2_1]
    assert list(row) == ["total_km", "weekday_km", "weekend_km"]
    assert row["total_km"] == pytest.approx(3.0, abs=1e-9)
    assert row["weekday_km"] == pytest.approx(3.0, abs=1e-9)
    assert row["weekend_km"] is None


def test_class_avg_distance_device_weighting():
    catalog = oracles.catalog(
        [poi("a", 0, 0), poi("b", north_of(0, 2.0), 0), poi("c", north_of(0, 8.0), 0)]
    )
    seqs = [
        Walk("d1", MON, ("a", "b")),
        Walk("d2", MON, ("a", "b")),
        Walk("d3", MON, ("a", "b")),
        Walk("d4", SAT, ("a", "c")),
    ]
    rows = _census_rows(seqs)
    distances = instance_distances(rows, catalog)
    by_devices = class_avg_distance(rows.instances, distances, weighting="devices")
    row = by_devices[MotifClass.M2_1]
    assert row["total_km"] == pytest.approx((3 * 2.0 + 8.0) / 4, abs=1e-9)
    assert row["weekday_km"] == pytest.approx(2.0, abs=1e-9)
    assert row["weekend_km"] == pytest.approx(8.0, abs=1e-9)
    by_instances = class_avg_distance(rows.instances, distances, weighting="instances")
    assert by_instances[MotifClass.M2_1]["total_km"] == pytest.approx(5.0, abs=1e-9)


def test_weekday_plus_weekend_counts_cover_total():
    seqs = [
        Walk("d1", MON, ("a", "b")),
        Walk("d2", SAT, ("a", "b")),
        Walk("d3", dt.date(2020, 2, 9), ("a", "b")),  # Sunday
    ]
    inst = _census_rows(seqs).instances
    for weekday, weekend, devices in zip(inst.count - inst.weekend, inst.weekend, inst.count):
        assert weekday + weekend == devices


# -- daily series -------------------------------------------------------------


SERIES_CATALOG = oracles.catalog(
    [poi("a", 0, 0), poi("b", north_of(0, 1.0), 0), poi("c", 0, 0.01)]
)


def walks_of(count_by_class, day):
    seqs = []
    i = 0
    walks = {MotifClass.M2_1: ("a", "b"), MotifClass.M3_2: ("a", "b", "c", "a")}
    for cls, count in count_by_class.items():
        for _ in range(count):
            seqs.append(Walk(f"d{i}", day, walks[cls]))
            i += 1
    return seqs


def series_of(instances_by_day):
    rows = classify([s for seqs in instances_by_day.values() for s in seqs]).rows
    return daily_census_series(rows, instance_distances(rows, SERIES_CATALOG), "devices")


def test_daily_series_constant_counts():
    days = [dt.date(2020, 2, d) for d in (3, 4, 5)]
    by_day = {day: walks_of({MotifClass.M2_1: 2}, day) for day in days}
    counts, _ = series_of(by_day)
    assert [p.value for p in counts[MotifClass.M2_1]] == [1.0, 1.0, 1.0]


def test_weekend_only_class_has_zero_weekday_points():
    sat, mon = dt.date(2020, 2, 1), dt.date(2020, 2, 3)
    by_day = {
        sat: walks_of({MotifClass.M3_2: 1}, sat),
        mon: walks_of({MotifClass.M2_1: 1}, mon),
    }
    counts, _ = series_of(by_day)
    series = counts[MotifClass.M3_2]
    assert [(p.day_type, p.value) for p in series] == [("weekend", 1.0), ("weekday", 0.0)]


def test_february_2020_window_shape():
    # calendar oracle: 2020-02-01 through 2020-02-28 is 28 days starting Saturday
    days = [dt.date(2020, 2, 1) + dt.timedelta(days=i) for i in range(28)]
    assert days[0].weekday() == 5
    assert len(days) == 28
    by_day = {day: walks_of({MotifClass.M2_1: 1}, day) for day in days}
    counts, _ = series_of(by_day)
    series = counts[MotifClass.M2_1]
    assert len(series) == 28
    assert series[0].day_type == "weekend"
    weekend_days = sum(1 for d in days if d.weekday() >= 5)
    assert weekend_days == 8  # Feb 29 (a Saturday) falls outside the window
    assert sum(1 for p in series if p.day_type == "weekend") == weekend_days


def test_daily_series_requires_two_days():
    day = dt.date(2020, 2, 3)
    with pytest.raises(ValueError):
        series_of({day: walks_of({MotifClass.M2_1: 1}, day)})


def test_distance_series_skips_days_without_the_class():
    mon, tue = dt.date(2020, 2, 3), dt.date(2020, 2, 4)
    by_day = {
        mon: walks_of({MotifClass.M2_1: 2, MotifClass.M3_2: 3}, mon),
        tue: walks_of({MotifClass.M2_1: 1}, tue),
    }
    counts, dists = series_of(by_day)
    assert [(p.date, p.value) for p in counts[MotifClass.M3_2]] == [(mon, 1.0), (tue, 0.0)]
    mon_rows = classify(by_day[mon]).rows
    distances = instance_distances(mon_rows, SERIES_CATALOG)
    triangle_km = class_avg_distance(mon_rows.instances, distances, weighting="devices")
    [point] = dists[MotifClass.M3_2]
    assert (point.date, point.day_type) == (mon, "weekday")
    assert point.value == triangle_km[MotifClass.M3_2]["total_km"]
    assert len(dists[MotifClass.M2_1]) == 2


# -- percentage change --------------------------------------------------------


def wd(day, value):
    return SeriesPoint(day, value, "weekday")


def test_pct_change_simple_chain():
    series = [wd(dt.date(2020, 2, 3), 100.0), wd(dt.date(2020, 2, 4), 110.0)]
    out = pct_change_series(series)
    assert [(p.date, p.value) for p in out] == [(dt.date(2020, 2, 4), 10.0)]


def test_pct_change_constant_is_zero():
    days = [dt.date(2020, 2, d) for d in (3, 4, 5, 6)]
    out = pct_change_series([wd(d, 7.0) for d in days])
    assert [p.value for p in out] == [0.0, 0.0, 0.0]


def test_pct_change_zero_baseline_undefined():
    days = [dt.date(2020, 2, d) for d in (3, 4, 5)]
    out = pct_change_series([wd(days[0], 100.0), wd(days[1], 0.0), wd(days[2], 50.0)])
    assert [p.value for p in out] == [-100.0, None]


def test_pct_change_chains_split_by_day_type():
    pts = [
        SeriesPoint(dt.date(2020, 2, 1), 10.0, "weekend"),
        SeriesPoint(dt.date(2020, 2, 3), 100.0, "weekday"),
        SeriesPoint(dt.date(2020, 2, 8), 20.0, "weekend"),
        SeriesPoint(dt.date(2020, 2, 10), 150.0, "weekday"),
    ]
    out = pct_change_series(pts)
    assert [(p.day_type, p.value) for p in out] == [("weekend", 100.0), ("weekday", 50.0)]


def test_pct_change_of_day_type_constant_series_is_zero():
    pts = []
    day = dt.date(2020, 2, 1)
    for i in range(14):
        d = day + dt.timedelta(days=i)
        value = 5.0 if d.weekday() >= 5 else 80.0
        pts.append(SeriesPoint(d, value, "weekend" if d.weekday() >= 5 else "weekday"))
    assert all(p.value == 0.0 for p in pct_change_series(pts))


# -- moving average -----------------------------------------------------------


def test_moving_average_constant():
    days = [dt.date(2020, 2, d) for d in range(1, 11)]
    out = moving_average([wd(d, 3.0) for d in days], window=7)
    assert [p.value for p in out] == [3.0, 3.0, 3.0, 3.0]


def test_moving_average_window_one_is_identity():
    days = [dt.date(2020, 2, d) for d in (3, 4)]
    series = [wd(days[0], 1.0), wd(days[1], 9.0)]
    assert [p.value for p in moving_average(series, 1)] == [1.0, 9.0]


def test_moving_average_mean_of_week():
    days = [dt.date(2020, 2, d) for d in range(1, 8)]
    out = moving_average([wd(d, float(i + 1)) for i, d in enumerate(days)], 7)
    assert [p.value for p in out] == [4.0]


def test_moving_average_bounded_by_window_extremes():
    days = [dt.date(2020, 2, d) for d in range(1, 15)]
    values = [float((i * 7) % 13) for i in range(14)]
    series = [wd(d, v) for d, v in zip(days, values)]
    for i, point in enumerate(moving_average(series, 5)):
        window = values[i : i + 5]
        assert min(window) <= point.value <= max(window)


def test_moving_average_window_too_long():
    with pytest.raises(ValueError):
        moving_average([wd(dt.date(2020, 2, 3), 1.0)], 7)


# -- report -------------------------------------------------------------------


def _small_census():
    return classify(
        [
            Walk("d1", MON, ("a", "b")),
            Walk("d2", MON, ("a", "b", "c", "a")),
        ]
    ).document()


def _summary_doc():
    return {
        "nodes": 3,
        "edges": 3,
        "total_weight": 4,
        "average_degree": 2.0,
        "average_clustering": 1.0,
        "label": "2020-02-03",
    }


def test_report_validates_and_passes_percentages_through():
    census = _small_census()
    catalog = oracles.catalog(
        [poi("a", 0, 0), poi("b", north_of(0, 1.0), 0), poi("c", 0, 0.01)]
    )
    rows = classify([Walk("d1", MON, ("a", "b"))]).rows
    table = class_avg_distance(rows.instances, instance_distances(rows, catalog))
    classes = [{"class": "M2_1", **table[MotifClass.M2_1]}]
    report = build_report(
        summary=_summary_doc(),
        census=census,
        distances={"weighting": "devices", "classes": classes},
        series_files=["counts_M2_1.csv"],
        config=RunConfig().analysis_dict(),
        tool_version="0.0-test",
    )
    assert report["schema_version"] == 1
    by_class = oracles.census_classes(report["census"])
    assert by_class[MotifClass.M2_1]["percentage"] == 50.0
    assert by_class[MotifClass.M3_2]["percentage"] == 50.0


def test_report_missing_section_rejected():
    with pytest.raises(InvariantError):
        build_report(
            summary={"nodes": 1},  # missing mandatory summary fields
            census=_small_census(),
            distances={"weighting": "devices", "classes": []},
            series_files=[],
            config={},
            tool_version="0",
        )


def test_census_document_lists_all_classes():
    doc = _small_census()
    assert [row["class"] for row in doc["classes"]] == [c.value for c in (
        MotifClass.M2_1, MotifClass.M3_1, MotifClass.M3_2, MotifClass.M4_1,
        MotifClass.M4_2, MotifClass.M4_3, MotifClass.M4_4, MotifClass.M4_5,
        MotifClass.M4_6,
    )]
    assert doc["totals"]["motif_count"] == 2


def test_distance_document_shape(tmp_path):
    """The distances part of report.json that stage_series builds, and the
    distance_table.csv it writes from the same rows."""
    catalog = oracles.catalog([poi("a", 0, 0), poi("b", north_of(0, 1.0), 0)])
    census = classify([Walk("d1", MON, ("a", "b"))])
    instances = InstanceTable(census.rows, catalog)
    report = stage_series(instances, census.document(), _summary_doc(), tmp_path, RunConfig())
    doc = report["distances"]
    assert doc["weighting"] == "devices"
    assert doc["classes"][0]["class"] == "M2_1"
    [row] = doc["classes"]
    km = instances.distance_table("devices")[MotifClass.M2_1]["total_km"]
    assert row == {"class": "M2_1", "total_km": km, "weekday_km": km, "weekend_km": None}
    assert (tmp_path / "distance_table.csv").read_text().splitlines() == [
        "class,split,km", f"M2_1,total,{km!r}", f"M2_1,weekday,{km!r}", "M2_1,weekend,"
    ]
