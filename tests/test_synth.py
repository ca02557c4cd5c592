import datetime as dt
import hashlib

import numpy as np
import pytest

import oracles
from oracles import trajectory_instance
from placeweave import synth
from placeweave.attributes import category_frequency, endpoint_counts, to_sector
from placeweave.errors import ConfigError
from placeweave.ingest import build_stay_sequences, filter_visits, load_poi_catalog, parse_stops
from placeweave.motifs import MotifClass, classify_trajectories
from placeweave.stats import haversine_km
from placeweave.synth import (
    CLASS_WALKS,
    _candidate_indices,
    _pcg64_states,
    TrafficSpec,
    WorldSpec,
    gen_catalog,
    gen_device_days,
    gen_traffic_plan,
    write_catalog_csv,
    write_stops_csv,
)

BBOX = (29.5, 30.0, -95.8, -95.2)
FEB = (dt.date(2020, 2, 1), dt.date(2020, 2, 28))

NINE_WAY_MIX = {cls: 1.0 / 9.0 for cls in CLASS_WALKS}


def world(n_pois=50, shares=None, seed=1):
    return WorldSpec(n_pois, BBOX, shares or {7: 0.5, 18: 0.5}, seed)


def traffic(n=100, mix=None, seed=2, **kw):
    return TrafficSpec(n, mix or {MotifClass.M2_1: 1.0}, FEB, seed=seed, **kw)


# -- catalog ------------------------------------------------------------------


def test_catalog_single_poi_inside_bbox():
    catalog = gen_catalog(world(n_pois=1))
    [lat], [lon] = catalog.lat.tolist(), catalog.lon.tolist()
    assert BBOX[0] <= lat <= BBOX[1]
    assert BBOX[2] <= lon <= BBOX[3]


def test_point_mass_retail_prefixes():
    catalog = gen_catalog(world(n_pois=200, shares={7: 1.0}))
    assert {naics[:2] for naics in catalog.naics} <= {"44", "45"}


def test_planted_retail_share_recovered():
    # retail planted at 0.22, the scale of the most-visited category share
    shares = {7: 0.22, 18: 0.40, 16: 0.20, 19: 0.18}
    catalog = gen_catalog(world(n_pois=10_000, shares=shares, seed=9))
    retail = sum(1 for naics in catalog.naics if to_sector(naics).id == 7)
    assert abs(retail / 10_000 - 0.22) <= 0.02


def test_catalog_deterministic_bytes(tmp_path):
    spec = world(n_pois=40, seed=123)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_catalog_csv(gen_catalog(spec), a)
    write_catalog_csv(gen_catalog(spec), b)
    assert a.read_bytes() == b.read_bytes()


def test_world_spec_validation():
    with pytest.raises(ConfigError):
        WorldSpec(0, BBOX, {7: 1.0}, 0).validate()
    with pytest.raises(ConfigError):
        WorldSpec(5, (1, 1, 0, 2), {7: 1.0}, 0).validate()
    with pytest.raises(ConfigError):
        WorldSpec(5, BBOX, {7: 0.5}, 0).validate()  # shares don't sum to 1
    with pytest.raises(ConfigError):
        WorldSpec(5, BBOX, {999: 1.0}, 0).validate()


# -- traffic ------------------------------------------------------------------


def test_stops_pass_ingest_validation(tmp_path):
    catalog = gen_catalog(world())
    stops = gen_device_days(catalog, traffic(n=50, mix=NINE_WAY_MIX))
    path = tmp_path / "stops.csv"
    write_stops_csv(stops, path)
    assert oracles.stop_rows(parse_stops(path)) == oracles.stop_rows(stops)


def test_walks_have_no_consecutive_duplicates():
    for cls, walk in CLASS_WALKS.items():
        assert all(a != b for a, b in zip(walk, walk[1:])), cls


def test_every_planted_walk_recovers_its_class():
    catalog = gen_catalog(world())
    spec = traffic(n=400, mix=NINE_WAY_MIX, seed=3)
    plans = gen_traffic_plan(catalog, spec)
    stops = gen_device_days(catalog, spec)
    sequences = build_stay_sequences(filter_visits(stops, 300), 0.0)
    by_device = {walk.device_id: walk for walk in oracles.walks(sequences)}
    assert len(by_device) == len(plans)
    for plan in plans:
        seq = by_device[plan.device_id]
        assert seq.local_date == plan.local_date
        assert trajectory_instance(seq.stays).motif_class is plan.motif_class


def test_class_mix_recovered_within_one_percent():
    catalog = gen_catalog(world(n_pois=100))
    mix = {MotifClass.M2_1: 0.5, MotifClass.M3_2: 0.3, MotifClass.M4_5: 0.2}
    stops = gen_device_days(catalog, traffic(n=20_000, mix=mix, seed=4))
    sequences = build_stay_sequences(filter_visits(stops, 300), 0.0)
    census = oracles.census_classes(classify_trajectories(sequences).document())
    for cls, target in mix.items():
        share = census[cls]["device_count"] / 20_000
        assert abs(share - target) <= 0.01, cls


def test_planted_endpoint_category_share_recovered():
    # food services planted at 0.30 of the catalog; uniform POI sampling
    # makes visit-flow endpoints inherit that share
    spec = WorldSpec(20_000, (29.0, 30.5, -96.0, -95.0), {18: 0.3, 7: 0.4, 16: 0.3}, seed=71)
    catalog = gen_catalog(spec)
    stops = gen_device_days(catalog, traffic(n=10_000, seed=72))
    sequences = build_stay_sequences(filter_visits(stops, 300), 0.0)
    tally, unresolved = endpoint_counts(classify_trajectories(sequences).rows, catalog)
    assert unresolved == 0
    shares = dict(category_frequency(tally, catalog))
    assert abs(shares["Accommodation and Food Services"] - 0.30) <= 0.01
    assert abs(shares["Retail Trade"] - 0.40) <= 0.01


def test_traffic_deterministic_bytes(tmp_path):
    catalog = gen_catalog(world())
    spec = traffic(n=60, mix=NINE_WAY_MIX, seed=11)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_stops_csv(gen_device_days(catalog, spec), a)
    write_stops_csv(gen_device_days(catalog, spec), b)
    assert a.read_bytes() == b.read_bytes()


def test_dwells_within_range():
    catalog = gen_catalog(world())
    stops = gen_device_days(catalog, traffic(n=30, dwell_range=(450, 500)))
    assert all(450 <= dwell <= 500 for dwell in stops.dwell.tolist())


def test_dates_within_range():
    catalog = gen_catalog(world())
    for plan in gen_traffic_plan(catalog, traffic(n=200)):
        assert FEB[0] <= plan.local_date <= FEB[1]


def test_distance_bounded_sampling():
    catalog = gen_catalog(world(n_pois=600, seed=5))
    plans = gen_traffic_plan(
        catalog, traffic(n=100, mix={MotifClass.M4_1: 1.0}, max_sample_km=20.0)
    )
    coords = oracles.poi_by_name(catalog)
    for plan in plans:
        pois = sorted(set(plan.walk))
        for i, a in enumerate(pois):
            for b in pois[i + 1 :]:
                ra, rb = coords[a], coords[b]
                assert haversine_km(ra[0], ra[1], rb[0], rb[1]) <= 20.0


@pytest.mark.parametrize("radius_km", [0.5, 3.0, 20.0, 200.0])
def test_candidates_equal_the_haversine_over_the_whole_catalog(radius_km):
    # The latitude band may skip only POIs the full haversine rejects.
    catalog = gen_catalog(world(n_pois=2000, seed=5))
    by_lat = np.argsort(catalog.lat)
    lats, lons = catalog.lat[by_lat], catalog.lon[by_lat]
    for anchor in range(len(catalog)):
        lat, lon = catalog.lat[anchor], catalog.lon[anchor]
        got = _candidate_indices(by_lat, lats, lons, lat, lon, radius_km)
        want = oracles._candidate_indices(catalog.lat, catalog.lon, anchor, radius_km)
        assert got.tolist() == want.tolist()


def test_anchor_draws_do_not_depend_on_the_cache_size(monkeypatch):
    catalog = gen_catalog(world(n_pois=600, seed=5))
    spec = traffic(n=400, mix=NINE_WAY_MIX, max_sample_km=20.0)
    cached = gen_device_days(catalog, spec)
    monkeypatch.setattr(synth, "_NEAR_CACHE", 1000)  # room for a few anchors only
    assert oracles.stop_rows(gen_device_days(catalog, spec)) == oracles.stop_rows(cached)


def test_traffic_spec_validation():
    with pytest.raises(ConfigError):
        TrafficSpec(0, {MotifClass.M2_1: 1.0}, FEB).validate()
    with pytest.raises(ConfigError):
        TrafficSpec(5, {MotifClass.M2_1: 0.4}, FEB).validate()
    with pytest.raises(ConfigError):
        TrafficSpec(5, {MotifClass.M2_1: 1.0}, (FEB[1], FEB[0])).validate()
    with pytest.raises(ConfigError):
        TrafficSpec(5, {MotifClass.M2_1: 1.0}, FEB, dwell_range=(500, 100)).validate()
    with pytest.raises(ConfigError):
        TrafficSpec(5, {MotifClass.OTHER: 1.0}, FEB).validate()


def test_dwell_range_of_2_32_values_or_more_rejected():
    spec = traffic(dwell_range=(7, 7 + 2**32 - 2))
    spec.validate()
    for dwell_range in ((0, 2**32 - 1), (7, 7 + 2**32 - 1), (0, 2**40)):
        with pytest.raises(ConfigError, match="dwell range"):
            traffic(dwell_range=dwell_range).validate()


def test_negative_seeds_rejected_naming_the_spec():
    with pytest.raises(ConfigError, match="world spec: seed"):
        WorldSpec(5, BBOX, {7: 1.0}, -1).validate()
    with pytest.raises(ConfigError, match="traffic spec: seed"):
        TrafficSpec(5, {MotifClass.M2_1: 1.0}, FEB, seed=-1).validate()
    catalog = gen_catalog(world())
    with pytest.raises(ConfigError, match="traffic spec: seed"):
        gen_device_days(catalog, traffic(seed=-3))


def test_catalog_too_small_rejected():
    catalog = gen_catalog(world(n_pois=3))
    with pytest.raises(ConfigError):
        gen_traffic_plan(catalog, traffic(mix={MotifClass.M4_1: 1.0}))


# -- pinned bytes ----------------------------------------------------------------

# sha256 of pois.csv and stops.csv for fixed small specs. The second draws
# POIs around an anchor, spans a year end and a leap day, and takes a traffic
# seed above 2**32, whose SeedSequence entropy is two words long.
PINNED_SPECS = {
    "uniform": (
        world(n_pois=50),
        TrafficSpec(300, NINE_WAY_MIX, FEB, seed=7),
        "4a7ee1dfc77f50454e21528fa2fbc14be5aac75ba21a718822f96fbf61435702",
        "46555a76573a50a6506466698a337271a9e0dae72e23877b0a02d0594ce37e5f",
    ),
    "max_sample_km": (
        world(n_pois=600, seed=5),
        TrafficSpec(
            200,
            NINE_WAY_MIX,
            (dt.date(2019, 12, 30), dt.date(2020, 3, 2)),
            dwell_range=(0, 7200),
            seed=2**32 + 3,
            max_sample_km=20.0,
        ),
        "897d93125a99a7c2bb3f6906784d16984e3fadc644e9900ae2bb697467812021",
        "2a9d5633344030070de61c90ec82cdc240fd9c33f9210659d5dc042a092c029d",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_SPECS))
def test_synth_files_match_pinned_digests(tmp_path, name):
    world_spec, traffic_spec, pois_sha, stops_sha = PINNED_SPECS[name]
    catalog = gen_catalog(world_spec)
    write_catalog_csv(catalog, tmp_path / "pois.csv")
    write_stops_csv(gen_device_days(catalog, traffic_spec), tmp_path / "stops.csv")
    assert hashlib.sha256((tmp_path / "pois.csv").read_bytes()).hexdigest() == pois_sha
    assert hashlib.sha256((tmp_path / "stops.csv").read_bytes()).hexdigest() == stops_sha


def test_stops_csv_round_trips_through_parse_stops(tmp_path):
    catalog = gen_catalog(world())
    stops = gen_device_days(catalog, traffic(n=80, mix=NINE_WAY_MIX, seed=13))
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    write_stops_csv(stops, first)
    assert first.read_bytes() == oracles.format_stops(stops).encode()
    parsed = parse_stops(first)
    assert len(parsed) == len(stops)
    write_stops_csv(parsed, second)
    assert second.read_bytes() == first.read_bytes()


def test_stops_csv_matches_the_row_formatter_on_any_integers(tmp_path):
    stops = oracles.stop_table([
        ("d2", "p9", -(2**63), 0),
        ("d10", "é", 2**63 - 1, 2**63 - 1),
        ("d2", "p9", 0, 7),
        ("d2", "é", -5, 7),
    ])
    write_stops_csv(stops, tmp_path / "stops.csv")
    assert (tmp_path / "stops.csv").read_bytes() == oracles.format_stops(stops).encode()
    empty = stops.take(np.zeros(len(stops), dtype=bool))
    write_stops_csv(empty, tmp_path / "empty.csv")
    assert (tmp_path / "empty.csv").read_bytes() == oracles.format_stops(empty).encode()


def test_catalog_csv_round_trips_through_load_poi_catalog(tmp_path):
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    write_catalog_csv(gen_catalog(world(n_pois=600, seed=5)), first)
    write_catalog_csv(load_poi_catalog(first), second)
    assert second.read_bytes() == first.read_bytes()


# -- bulk seeding against one generator per device-day ---------------------------


def _joined_states(seed, index):
    """(state, inc) of each index as ints, joined from _pcg64_states's uint64 halves."""
    halves = zip(*(column.tolist() for column in _pcg64_states(seed, index)))
    return [(s_hi << 64 | s_lo, i_hi << 64 | i_lo) for s_hi, s_lo, i_hi, i_lo in halves]


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**100])
def test_bulk_states_equal_default_rng_per_device_day(seed):
    index = np.array([0, 1, 2**16])
    for i, (state, inc) in zip(index.tolist(), _joined_states(seed, index)):
        expected = np.random.default_rng([seed, i]).bit_generator.state["state"]
        assert (state, inc) == (expected["state"], expected["inc"]), (seed, i)


def test_bulk_states_past_the_first_block_and_two_word_indices():
    for index in (np.arange(70_000, 70_050), np.array([2**32, 2**32 + 5, 2**40])):
        for i, (state, inc) in zip(index.tolist(), _joined_states(2, index)):
            expected = np.random.default_rng([2, i]).bit_generator.state["state"]
            assert (state, inc) == (expected["state"], expected["inc"]), i


ORACLE_SPECS = {
    "nine_way": (world(n_pois=50), traffic(n=500, mix=NINE_WAY_MIX, seed=21)),
    "skewed_mix_zero_share": (
        world(n_pois=30),
        traffic(
            n=300,
            mix={MotifClass.M2_1: 0.7, MotifClass.M3_2: 0.0, MotifClass.M4_1: 0.3},
            seed=2**33 + 1,
            dwell_range=(0, 0),
        ),
    ),
    "anchor": (
        world(n_pois=600, seed=5),
        traffic(n=300, mix=NINE_WAY_MIX, seed=22, max_sample_km=25.0),
    ),
    # a range of one draws nothing: one day, one dwell, a catalog of 4 for 4 POIs
    "one_day": (
        world(),
        TrafficSpec(300, NINE_WAY_MIX, (dt.date(2020, 2, 29), dt.date(2020, 2, 29)), seed=24),
    ),
    "catalog_of_largest_class": (world(n_pois=4), traffic(n=300, mix=NINE_WAY_MIX, seed=25)),
    "fixed_dwell": (world(), traffic(n=300, mix=NINE_WAY_MIX, seed=26, dwell_range=(900, 900))),
    # about 30% of 32-bit draws over this range are rejected and redrawn
    "wide_dwell": (
        world(),
        traffic(n=300, mix=NINE_WAY_MIX, seed=27, dwell_range=(0, 3_000_000_000)),
    ),
    "anchor_exact_size": (
        world(n_pois=200, seed=11),
        traffic(n=600, mix=NINE_WAY_MIX, seed=28, max_sample_km=17.5),
    ),
}


@pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
def test_stops_and_plans_equal_the_per_device_day_oracle(tmp_path, name):
    world_spec, traffic_spec = ORACLE_SPECS[name]
    catalog = gen_catalog(world_spec)
    expected = oracles.traffic_plan(catalog, traffic_spec)
    assert gen_traffic_plan(catalog, traffic_spec) == expected
    write_stops_csv(gen_device_days(catalog, traffic_spec), tmp_path / "stops.csv")
    text = (tmp_path / "stops.csv").read_text(encoding="utf-8")
    assert text == oracles.stops_csv_text(s for plan in expected for s in oracles.plan_stops(plan))


def test_device_days_past_the_first_block_equal_the_oracle(tmp_path):
    # 66,000 device-days: two seeding blocks and more than one block of written rows
    catalog = gen_catalog(world(n_pois=40))
    spec = traffic(n=66_000, mix={MotifClass.M2_1: 0.5, MotifClass.M3_1: 0.5}, seed=23)
    stops = gen_device_days(catalog, spec)
    write_stops_csv(stops, tmp_path / "stops.csv")
    text = (tmp_path / "stops.csv").read_text(encoding="utf-8")
    assert text == oracles.stops_csv_text(oracles.stop_rows(stops))
    edge = oracles.traffic_plan(catalog, spec, range(65_530, 65_542))
    expected = oracles.stops_csv_text(s for plan in edge for s in oracles.plan_stops(plan))
    lines = text.splitlines(keepends=True)
    assert [line for line in lines if "d0065530" <= line[:8] <= "d0065541"] == (
        expected.splitlines(keepends=True)[1:]
    )


def _anchors(catalog, spec):
    """Each device-day's class and anchor, drawn as default_rng([seed, i]) draws them."""
    classes = sorted(spec.class_mix, key=lambda c: c.value)
    probs = np.array([spec.class_mix[c] for c in classes])
    n_days = (spec.date_range[1] - spec.date_range[0]).days + 1
    drawn = []
    for i in range(spec.n_device_days):
        rng = np.random.default_rng([spec.seed, i])
        cls = classes[int(rng.choice(len(classes), p=probs / probs.sum()))]
        rng.integers(n_days)
        drawn.append((cls, int(rng.integers(len(catalog)))))
    return drawn


def test_anchor_oracle_spec_draws_anchors_with_exactly_their_class_size():
    world_spec, traffic_spec = ORACLE_SPECS["anchor_exact_size"]
    catalog = gen_catalog(world_spec)
    sizes = [
        oracles._candidate_indices(catalog.lat, catalog.lon, anchor, 17.5).size
        for anchor in range(len(catalog))
    ]
    exact = [cls for cls, anchor in _anchors(catalog, traffic_spec) if sizes[anchor] == cls.size]
    assert len(exact) == 8  # all of class size 4: no anchor has fewer than 4 candidates


def test_radius_too_small_names_the_earliest_failing_device_day():
    # 12 of these 300 device-days fail, over several anchors and classes; device-day 37 is first
    catalog = gen_catalog(world(n_pois=200, seed=11))
    spec = traffic(n=300, mix=NINE_WAY_MIX, max_sample_km=14.0)
    fails = [
        (cls, anchor)
        for cls, anchor in _anchors(catalog, spec)
        if oracles._candidate_indices(catalog.lat, catalog.lon, anchor, 14.0).size < cls.size
    ]
    assert len(fails) == 12 and len(set(fails)) > 1
    message = "only 1 POIs within 7.0 km of p000150; class M4_5 needs 4"
    with pytest.raises(ConfigError) as info:
        gen_device_days(catalog, spec)
    assert str(info.value) == message
