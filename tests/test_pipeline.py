import datetime as dt
import json
import re

import pytest

from placeweave import ingest
from placeweave.cli import main
from placeweave.errors import SchemaError
from placeweave.ingest import PoiCatalog, PoiRecord, SequenceTable, StaySequence
from placeweave.motifs import aggregate_instances, instance_from_edges
from placeweave.pipeline import (
    InstanceTable,
    load_motifs_inputs,
    read_instances_csv,
    stage_attributed,
    stage_motifs,
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
    assert sum(count for _, _, count in rows) == TRAFFIC["n_device_days"]
    # row classes agree with their recomputed instances by construction
    census = json.loads((out / "census.json").read_text())
    assert census["totals"]["device_count"] == TRAFFIC["n_device_days"]


def test_instances_csv_rejects_garbage(tmp_path):
    bad = tmp_path / "instances.csv"
    for row in ("2020-02-01,M2_1,a|b,zz,1", "2020-02-01,M2_1,a|c,a|c,x"):
        bad.write_text(f"local_date,motif_class,nodes,edges,device_count\n{row}\n")
        with pytest.raises(SchemaError, match=f"^{re.escape(str(bad))}:2: "):
            read_instances_csv(bad)


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

    real = ingest.read_sequences

    def one_walk_longer(path):
        seqs = list(real(path))
        first = seqs[0]
        extra = next(p for p in first.stays if p != first.stays[-1])
        seqs[0] = StaySequence(first.device_id, first.local_date, first.stays + (extra,))
        return SequenceTable.from_sequences(seqs)

    monkeypatch.setattr(ingest, "read_sequences", one_walk_longer)
    assert main(args) == 3


def test_category_shares_count_each_flow_per_device_day(tmp_path):
    catalog = PoiCatalog(
        [PoiRecord("r1", "r1", 0.0, 0.0, "4411"), PoiRecord("r2", "r2", 0.0, 0.0, "4412"),
         PoiRecord("f1", "f1", 0.0, 0.0, "7225")]
    )
    day = dt.date(2020, 2, 3)
    rows = [
        (day, instance_from_edges(["r1", "f1"], [("r1", "f1")]), 3),
        (day, instance_from_edges(["r1", "r2"], [("r1", "r2")]), 1),
    ]
    stage_attributed(InstanceTable(rows, aggregate_instances(rows), catalog), 10, tmp_path)
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
