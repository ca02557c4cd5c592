"""Pinned sha256 digests of the float-free artifacts of a small seeded run.

The ingest tree, the network tree and census/instances.csv hold no float
beyond the echoed utc_offset, so their bytes are fixed by the parsing,
grouping, network and instance code alone. Any byte drift in them fails
here. The world mixes a fractional UTC offset (which moves the first stop
of every planted walk to the previous local day), a dwell threshold that
drops stops, one stop at a POI missing from the catalog, a tie in start
time and stops before 1970.

The float artifacts of the same run (distances and attributed shares)
must equal, bit for bit, what the one-instance-at-a-time dict path in
oracles computes from the run's instances.csv.
"""

import hashlib
import json
from pathlib import Path

import pytest

import oracles
from placeweave.attributes import sector_by_id
from placeweave.cli import main
from placeweave.config import RunConfig
from placeweave.ingest import load_poi_catalog
from placeweave.motifs import CLASS_ORDER, MotifClass

WORLD = {
    "n_pois": 60,
    "bbox": [29.5, 30.0, -95.8, -95.2],
    "category_shares": {"7": 0.4, "18": 0.3, "16": 0.3},
    "seed": 71,
}
TRAFFIC = {
    "n_device_days": 400,
    "class_mix": {
        "M2_1": 0.2, "M3_1": 0.1, "M3_2": 0.1, "M4_1": 0.1, "M4_2": 0.1,
        "M4_3": 0.1, "M4_4": 0.1, "M4_5": 0.1, "M4_6": 0.1,
    },
    "date_range": ["2020-02-01", "2020-02-09"],
    "seed": 72,
}
# Appended to the synthetic stops: a start-time tie broken by poi_id, a
# stop at an unknown POI, and a walk before the epoch.
EXTRA_STOPS = [
    "zz_tie,p000005,1580976000,1800",
    "zz_tie,p000002,1580976000,1800",
    "zz_tie,p000009,1580979600,1800",
    "zz_ghost,p000001,1580976000,1800",
    "zz_ghost,no_such_poi,1580977000,1800",
    "zz_ghost,p000003,1580978000,1800",
    "zz_old,p000004,-86000,1800",
    "zz_old,p000006,-85000,1800",
    "zz_old,p000004,-84000,1800",
]
CONFIG = {"utc_offset": -8.25, "min_dwell": 1500}

DIGESTS = {
    "consecutive": {
        "ingest": "3c0415be9a7bb7d78cfecc8aff09d578c90e40c8349b13d999994a9b5e66821d",
        "networks": "7e6642db900987099450863ccd36c193cd2a7b1c960953ed115fd65fc74db52a",
        "census/instances.csv": "257f582b504224eac0c0f8d1e6c1a0c83210a3aa958172c7811a4dccd3f2f46d",
    },
    "covisitation": {
        "ingest": "3c0415be9a7bb7d78cfecc8aff09d578c90e40c8349b13d999994a9b5e66821d",
        "networks": "593c7a5f76f7c2092fedef6881b318b298f5231f75d4ec7176cec2d186d4bba4",
        "census/instances.csv": "257f582b504224eac0c0f8d1e6c1a0c83210a3aa958172c7811a4dccd3f2f46d",
    },
}


def _digest(root: Path, rel: str) -> str:
    path = root / rel
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    h = hashlib.sha256()
    for f in files:
        h.update(f.relative_to(root).as_posix().encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    (root / "world.json").write_text(json.dumps(WORLD))
    (root / "traffic.json").write_text(json.dumps(TRAFFIC))
    assert main(
        ["synth", "--world", str(root / "world.json"), "--traffic", str(root / "traffic.json"),
         "--out", str(root / "data")]
    ) == 0
    with open(root / "data" / "stops.csv", "a", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in EXTRA_STOPS))
    return root


@pytest.mark.parametrize("mode", sorted(DIGESTS))
def test_float_free_artifacts_match_pinned_digests(inputs, tmp_path, mode):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**CONFIG, "network_mode": mode}))
    out = tmp_path / "out"
    assert main(
        ["run", "--config", str(cfg), "--stops", str(inputs / "data" / "stops.csv"),
         "--pois", str(inputs / "data" / "pois.csv"), "--out", str(out), "--threads", "1"]
    ) == 0
    meta = json.loads((out / "ingest" / "ingest_meta.json").read_text())
    assert meta["dropped_unknown_poi"] == 1 and meta["visits_kept"] < meta["rows_read"]
    assert (out / "networks" / "daily" / "1969-12-30.csv").exists()
    assert {rel: _digest(out, rel) for rel in DIGESTS[mode]} == DIGESTS[mode]


def _fmt(value) -> str:
    return "" if value is None else repr(value)


def _lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


@pytest.mark.parametrize("weighting", ["devices", "instances"])
def test_distance_and_attributed_floats_equal_the_dict_path(inputs, tmp_path, weighting):
    """Every distance and share of the golden run, recomputed one instance at a time."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**CONFIG, "distance_weighting": weighting}))
    out = tmp_path / "out"
    pois = inputs / "data" / "pois.csv"
    assert main(
        ["run", "--config", str(cfg), "--stops", str(inputs / "data" / "stops.csv"),
         "--pois", str(pois), "--out", str(out), "--threads", "1"]
    ) == 0
    catalog = load_poi_catalog(pois)
    rows = oracles.read_instance_rows(out / "census" / "instances.csv")
    for _, inst, _ in rows:
        if len(inst.nodes) <= 4:
            slot = {v: i for i, v in enumerate(inst.nodes)}
            edges = [(slot[a], slot[b]) for a, b in inst.edges]
            assert oracles.brute_force_classify(len(slot), edges) is inst.motif_class
    agg = oracles.aggregate_instances(rows)
    distances = oracles.instance_distances(agg, catalog)
    keys = {inst: oracles.canonical_key(inst, catalog) for inst in distances}
    table = oracles.class_avg_distance(agg, distances, weighting)

    census_km = {
        row["class"]: row["avg_distance_km"]
        for row in json.loads((out / "census" / "census.json").read_text())["classes"]
    }
    assert census_km == {
        cls.value: table[cls][0] if cls in table else None for cls in CLASS_ORDER
    }
    csv_rows = [line.split(",") for line in _lines(out / "census" / "census.csv")[2:]]
    csv_km = {row[0]: row[5] for row in csv_rows}
    assert csv_km == {cls.value: _fmt(table[cls][0]) for cls in CLASS_ORDER if cls in table}

    expected = ["class,split,km"] + [
        f"{cls.value},{name},{_fmt(km)}"
        for cls in CLASS_ORDER if cls in table
        for name, km in zip(("total", "weekday", "weekend"), table[cls])
    ]
    assert _lines(out / "series" / "distance_table.csv") == expected

    by_day: dict = {}
    for row in rows:
        by_day.setdefault(row[0], []).append(row)
    per_day = {
        day: oracles.class_avg_distance(oracles.aggregate_instances(day_rows), distances, weighting)
        for day, day_rows in by_day.items()
    }
    written = sorted(p.name for p in (out / "series").glob("distances_*.csv"))
    assert written == sorted(
        f"distances_{cls.value}.csv" for cls in CLASS_ORDER
        if any(cls in t for t in per_day.values())
    )
    for name in written:
        cls = MotifClass(name[len("distances_"):-len(".csv")])
        weekday = lambda day: "weekend" if day.weekday() >= 5 else "weekday"  # noqa: E731
        assert _lines(out / "series" / name) == ["date,value,day_type"] + [
            f"{day.isoformat()},{_fmt(per_day[day][cls][0])},{weekday(day)}"
            for day in sorted(per_day) if cls in per_day[day]
        ]

    attr = oracles.class_avg_distance(agg, distances, weighting, key_fn=keys.__getitem__)
    top = sorted(
        attr.items(), key=lambda kv: (-(kv[1][0] or 0.0), kv[0].motif_class.value, kv[0].labels)
    )
    assert _lines(out / "series" / "attributed_distance.csv") == [
        "class,labels,total_km,weekday_km,weekend_km"
    ] + [
        f"{key.motif_class.value},{'|'.join(map(str, key.labels))},"
        f"{_fmt(t)},{_fmt(wd)},{_fmt(we)}"
        for key, (t, wd, we) in top[:20]
    ]

    ranked = oracles.attributed_census(agg, keys, top_k=RunConfig().top_k)
    assert _lines(out / "attributed" / "attributed_census.csv")[1:] == [
        f"{cls.value},{'|'.join(map(str, key.labels))},"
        f"{' + '.join(sector_by_id(i).label for i in key.labels)},{count},{share!r},"
        f"{'yes' if len(set(key.labels)) == 1 else 'no'}"
        for cls in CLASS_ORDER
        for key, count, share in ranked.get(cls, [])
    ]
