import dataclasses
import datetime as dt
import json
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from placeweave import motifs
from placeweave.cli import main
from placeweave.errors import SchemaError
from placeweave.motifs import classify_trajectories
from placeweave.network import NETWORK_MODES, read_network
from placeweave.pipeline import (
    InstanceTable,
    load_motifs_inputs,
    read_instances_csv,
    stage_attributed,
    stage_ingest,
    stage_motifs,
    stage_network,
    write_instances_csv,
)

WORLD = {
    "n_pois": 30,
    "bbox": [29.5, 30.0, -95.8, -95.2],
    "category_shares": {"7": 0.5, "18": 0.5},
    "seed": 61,
}
TRAFFIC = {
    "n_device_days": 80,
    "class_mix": {"M2_1": 0.4, "M3_2": 0.3, "M4_6": 0.3},
    "date_range": ["2020-02-01", "2020-02-10"],
    "seed": 62,
}


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipe")
    (root / "world.json").write_text(json.dumps(WORLD))
    (root / "traffic.json").write_text(json.dumps(TRAFFIC))
    assert main(
        ["synth", "--world", str(root / "world.json"), "--traffic", str(root / "traffic.json"),
         "--out", str(root / "data")]
    ) == 0
    return root


def test_run_with_enumerate_census_mode(data, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"census_mode": "enumerate"}')
    out = tmp_path / "out"
    code = main(
        ["run", "--config", str(cfg), "--stops", str(data / "data" / "stops.csv"),
         "--pois", str(data / "data" / "pois.csv"), "--out", str(out)]
    )
    assert code == 0
    census = json.loads((out / "census" / "census.json").read_text())
    assert census["mode"] == "enumerate"
    assert census["totals"]["device_count"] is None
    # trajectory instances still feed attribution and series
    assert (out / "census" / "instances.csv").exists()
    assert (out / "attributed" / "attributed_census.csv").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["census_mode"] == "enumerate"


@pytest.mark.parametrize("mode", NETWORK_MODES)
def test_daily_networks_merge_into_the_merged_network(data, tmp_path, mode):
    _, sequences = stage_ingest(
        data / "data" / "stops.csv", data / "data" / "pois.csv", 300, 0.0, tmp_path / "ingest"
    )
    built = stage_network(sequences, mode, tmp_path / "networks")
    daily = sorted((tmp_path / "networks" / "daily").glob("*.csv"))
    assert len(daily) > 1
    from_days = oracles.merge_networks([read_network(path) for path in daily])
    merged = read_network(tmp_path / "networks" / "merged.csv")
    assert merged == built
    assert from_days.names == merged.names
    assert oracles.edge_weights(from_days) == oracles.edge_weights(merged)
    assert (from_days.label, from_days.mode) == (merged.label, merged.mode)


@pytest.mark.parametrize("mode", NETWORK_MODES)
def test_each_daily_network_is_the_network_of_its_days_sequences(data, tmp_path, mode):
    _, sequences = stage_ingest(
        data / "data" / "stops.csv", data / "data" / "pois.csv", 300, 0.0, tmp_path / "ingest"
    )
    stage_network(sequences, mode, tmp_path / "networks")
    by_day = {}
    for walk in oracles.walks(sequences):
        by_day.setdefault(walk.local_date, []).append(walk)
    days = sorted(by_day)
    daily = sorted((tmp_path / "networks" / "daily").glob("*.csv"))
    assert [path.stem for path in daily] == [day.isoformat() for day in days]
    for path, day in zip(daily, days):
        expected = oracles.build_network(oracles.sequence_table(by_day[day]), mode)
        net = read_network(path)
        assert net == expected
        assert (net.label, net.mode) == (expected.label, expected.mode)


@pytest.mark.parametrize("mode", NETWORK_MODES)
def test_networks_of_the_first_and_last_local_dates(tmp_path, mode):
    # the day index of the (day, edge) sort key spans every local date ingest accepts
    days = [dt.date(1, 1, 1), dt.date(2020, 2, 29), dt.date(9999, 12, 31)]
    seqs = [
        oracles.Walk("d1", days[0], ("a", "b", "c")),
        oracles.Walk("d2", days[0], ("c", "a")),
        oracles.Walk("d1", days[1], ("b", "d", "a", "e", "b")),
        oracles.Walk("d2", days[1], ("e", "f")),
        oracles.Walk("d1", days[2], ("c", "a", "b", "a")),
        oracles.Walk("d3", days[2], ("c", "a")),
    ]
    sequences = oracles.sequence_table(seqs)
    merged = stage_network(sequences, mode, tmp_path)
    expected = oracles.build_network(sequences, mode)
    assert merged == expected and merged.label == expected.label == "0001-01-01..9999-12-31"
    assert read_network(tmp_path / "merged.csv") == expected
    for day in days:
        expected = oracles.build_network(
            oracles.sequence_table([s for s in seqs if s.local_date == day]), mode
        )
        net = read_network(tmp_path / "daily" / f"{day.isoformat()}.csv")
        assert net == expected and net.label == expected.label == day.isoformat()


README_WORLD = {
    "n_pois": 500,
    "bbox": [29.5, 30.0, -95.8, -95.2],
    "category_shares": {"7": 0.4, "18": 0.3, "16": 0.3},
    "seed": 1,
}
README_TRAFFIC = {
    "n_device_days": 2000,
    "class_mix": {"M2_1": 0.2, "M3_1": 0.1, "M3_2": 0.1, "M4_1": 0.1, "M4_2": 0.1,
                  "M4_3": 0.1, "M4_4": 0.1, "M4_5": 0.1, "M4_6": 0.1},
    "date_range": ["2020-02-01", "2020-02-28"],
    "seed": 2,
}


def test_shuffled_stops_rows_give_the_same_sequence_and_network_bytes(tmp_path):
    (tmp_path / "world.json").write_text(json.dumps(README_WORLD))
    (tmp_path / "traffic.json").write_text(json.dumps(README_TRAFFIC))
    data = tmp_path / "data"
    assert main(
        ["synth", "--world", str(tmp_path / "world.json"), "--traffic", str(tmp_path / "traffic.json"),
         "--out", str(data)]
    ) == 0
    header, *rows = (data / "stops.csv").read_text().splitlines(keepends=True)
    order = np.random.default_rng(26).permutation(len(rows))
    (data / "shuffled.csv").write_text(header + "".join(rows[i] for i in order))
    trees = {}
    for stops in ("stops", "shuffled"):
        out = tmp_path / stops
        pois = str(data / "pois.csv")
        assert main(["ingest", "--stops", str(data / f"{stops}.csv"), "--pois", pois,
                     "--out", str(out)]) == 0
        for mode in NETWORK_MODES:
            assert main(["network", "--sequences", str(out / "sequences.csv"), "--mode", mode,
                         "--out", str(out / mode)]) == 0
        trees[stops] = {
            path.relative_to(out): path.read_bytes()
            for path in sorted(out.rglob("*"))
            if path.is_file()
        }
    assert len(trees["stops"]) > 2 * 28
    assert trees["shuffled"] == trees["stops"]


def test_distance_weighting_flag_lands_in_report(data, tmp_path):
    out = tmp_path / "out"
    code = main(
        ["run", "--stops", str(data / "data" / "stops.csv"),
         "--pois", str(data / "data" / "pois.csv"), "--out", str(out),
         "--distance-weighting", "instances"]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["distance_weighting"] == "instances"
    assert report["distances"]["weighting"] == "instances"


def test_instances_csv_round_trip(data, tmp_path):
    out = tmp_path / "census"
    seqs = data / "data"
    assert main(
        ["ingest", "--stops", str(seqs / "stops.csv"), "--pois", str(seqs / "pois.csv"),
         "--out", str(tmp_path / "ing")]
    ) == 0
    stage_motifs(
        out,
        mode="trajectory",
        **load_motifs_inputs(
            "trajectory",
            sequences_path=tmp_path / "ing" / "sequences.csv",
            pois_path=seqs / "pois.csv",
        ),
    )
    rows = read_instances_csv(out / "instances.csv")
    counts = rows.table.count.tolist() + [count for *_, count in rows.other]
    assert sum(counts) == TRAFFIC["n_device_days"]
    # row classes agree with their recomputed instances by construction
    census = json.loads((out / "census.json").read_text())
    assert census["totals"]["device_count"] == TRAFFIC["n_device_days"]


def test_instances_csv_rejects_garbage(tmp_path):
    bad = tmp_path / "instances.csv"
    for row in ("2020-02-01,M2_1,a|b,zz,1", "2020-02-01,M2_1,a|c,a|c,x"):
        bad.write_text(f"local_date,motif_class,nodes,edges,device_count\n{row}\n")
        with pytest.raises(SchemaError, match=f"^{re.escape(str(bad))}:2: "):
            read_instances_csv(bad)


@pytest.mark.parametrize(
    "row, problem",
    [
        ("2020-02-01,M2_1,a|b,a|c,1", "edge a|c has an endpoint outside nodes"),
        ("2020-02-01,M2_1,a|b,a|a,1", "edge a|a is a self-loop"),
        ("2020-02-01,M2_1,a|b,a|b,-3", "device_count -3 is below 1"),
        ("2020-02-01,M3_1,a|b,a|b,1", "row classifies as M2_1 but claims M3_1"),
        ("2020-02-03,M2_1,a|b", "wrong number of fields"),
        ("2020-02-03,M2_1,a|b,a|b,1,junk", "wrong number of fields"),
    ],
    ids=["endpoint", "self-loop", "device-count", "class", "missing-field", "extra-field"],
)
def test_instances_csv_rejects_inconsistent_rows(tmp_path, row, problem):
    bad = tmp_path / "instances.csv"
    bad.write_text(
        "local_date,motif_class,nodes,edges,device_count\n2020-02-01,M2_1,a|b,a|b,1\n" + row + "\n"
    )
    with pytest.raises(SchemaError, match=f"^{re.escape(f'{bad}:3: {problem}')}$"):
        read_instances_csv(bad)


def _no_repeats(stays):
    return tuple(v for i, v in enumerate(stays) if i == 0 or stays[i - 1] != v)


SAT, MON = dt.date(2020, 2, 1), dt.date(2020, 2, 3)
# "p" < "p1" as ids, but "p1|q" < "p|q" as joined text: rows must sort by id tuples.
day_walks = st.lists(
    st.tuples(
        st.sampled_from([SAT, dt.date(2020, 2, 2), MON]),
        st.lists(st.sampled_from(["p", "p1", "p2", "q", "q1", "r"]), min_size=2, max_size=9)
        .map(_no_repeats)
        .filter(lambda stays: len(stays) >= 2),
    ),
    min_size=1,
    max_size=25,
)


@settings(max_examples=100, deadline=None)
@example([  # two days, an OTHER walk over 5 POIs, node sets with two edge sets each
    (SAT, ("p", "p1", "p2", "q", "q1")),
    (MON, ("p", "p1", "p2")),
    (MON, ("p", "p1", "p", "p2")),
    (MON, ("p1", "p", "p2")),
    (MON, ("p", "p1", "p2", "q")),  # mask 0b101001: first by sorted edges
    (MON, ("q", "p", "p2", "p1")),  # mask 0b001110: first by mask value
])
@example([(MON, (f"p{i:02d}", f"p{i + 1:02d}")) for i in range(0, 80, 2)])  # 80 POIs
@given(day_walks)
def test_instances_csv_round_trips_bytes(tmp_path_factory, walks):
    seqs = [oracles.Walk(f"d{i}", day, stays) for i, (day, stays) in enumerate(walks)]
    rows = classify_trajectories(oracles.sequence_table(seqs)).rows
    root = tmp_path_factory.mktemp("instances")
    write_instances_csv(rows, root / "first.csv")
    assert (root / "first.csv").read_bytes() == oracles.format_instances(rows).encode()
    write_instances_csv(read_instances_csv(root / "first.csv"), root / "second.csv")
    assert (root / "first.csv").read_bytes() == (root / "second.csv").read_bytes()
    written = oracles.read_instance_rows(root / "first.csv")
    order = [(day, oracles.instance_order(inst)) for day, inst, _ in written]
    assert order == sorted(order)
    tally = Counter((s.local_date, oracles.trajectory_instance(s.stays)) for s in seqs)
    assert {(day, inst): count for day, inst, count in written} == tally


def test_motifs_stage_rejects_unknown_mode(tmp_path):
    with pytest.raises(SchemaError):
        stage_motifs(tmp_path, mode="bogus")


def test_flow_count_differing_from_network_weight_exits_3(data, tmp_path, monkeypatch):
    pois = str(data / "data" / "pois.csv")
    assert main(
        ["ingest", "--stops", str(data / "data" / "stops.csv"), "--pois", pois,
         "--out", str(tmp_path / "ingest")]
    ) == 0
    sequences = str(tmp_path / "ingest" / "sequences.csv")
    assert main(["network", "--sequences", sequences, "--out", str(tmp_path / "net")]) == 0
    args = ["motifs", "--sequences", sequences, "--network", str(tmp_path / "net" / "merged.csv"),
            "--pois", pois, "--out", str(tmp_path / "census")]
    assert main(args) == 0  # the identity holds on the network built from these sequences

    # sequences that differ from the network's are bad input (exit 2, test_cli's
    # sidecar-other-sequences); a census that miscounts its own flows is a defect
    real = motifs.classify_trajectories

    def one_flow_more(sequences):
        census = real(sequences)
        return dataclasses.replace(census, total_flows=census.total_flows + 1)

    monkeypatch.setattr(motifs, "classify_trajectories", one_flow_more)
    assert main(args) == 3


def test_category_shares_count_each_flow_per_device_day(tmp_path):
    catalog = oracles.catalog(
        [("r1", "r1", 0.0, 0.0, "4411"), ("r2", "r2", 0.0, 0.0, "4412"),
         ("f1", "f1", 0.0, 0.0, "7225")]
    )
    day = dt.date(2020, 2, 3)
    walks = [(f"d{i}", day, ("r1", "f1")) for i in range(3)]
    walks.append(("d3", day, ("r1", "r2")))
    rows = classify_trajectories(oracles.sequence_table(walks)).rows
    stage_attributed(InstanceTable(rows, catalog), 10, tmp_path)
    # endpoints: r1 3 + 1, r2 1 (retail 5); f1 3 (food 3)
    assert (tmp_path / "category_freq_2digit.csv").read_text().splitlines() == [
        "rank,label,share",
        "1,Retail Trade,0.625",
        "2,Accommodation and Food Services,0.375",
    ]
    assert (tmp_path / "category_freq_4digit.csv").read_text().splitlines()[1:] == [
        "1,4411,0.5",
        "2,7225,0.375",
        "3,4412,0.125",
    ]
