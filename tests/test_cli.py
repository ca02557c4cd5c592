import csv
import json
import sys
from pathlib import Path

import jsonschema
import pytest

from placeweave import ingest, motifs, network, pipeline, stats
from placeweave.cli import main
from placeweave.config import RunConfig, validate_config
from placeweave.errors import ConfigError
from placeweave.network import read_network
from placeweave.stats import REPORT_SCHEMA

WORLD = {
    "n_pois": 40,
    "bbox": [29.5, 30.0, -95.8, -95.2],
    "category_shares": {"7": 0.4, "18": 0.3, "16": 0.3},
    "seed": 21,
}
TRAFFIC = {
    "n_device_days": 150,
    "class_mix": {"M2_1": 0.3, "M3_1": 0.2, "M3_2": 0.2, "M4_5": 0.2, "M4_6": 0.1},
    "date_range": ["2020-02-01", "2020-02-14"],
    "seed": 22,
}


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("world")
    (root / "world.json").write_text(json.dumps(WORLD))
    (root / "traffic.json").write_text(json.dumps(TRAFFIC))
    assert main(
        ["synth", "--world", str(root / "world.json"), "--traffic", str(root / "traffic.json"),
         "--out", str(root / "data")]
    ) == 0
    return root / "data"


# -- config -------------------------------------------------------------------


def test_empty_config_gets_defaults(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{}")
    cfg = validate_config(path)
    assert (cfg.min_dwell, cfg.network_mode, cfg.census_mode) == (300, "consecutive", "trajectory")
    assert (cfg.distance_weighting, cfg.top_k) == ("devices", 10)


def test_unknown_config_key_is_named(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"dwel_min": 60}')
    with pytest.raises(ConfigError, match="dwel_min"):
        validate_config(path)


def test_bad_census_mode_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"census_mode": "foo"}')
    with pytest.raises(ConfigError, match="census_mode"):
        validate_config(path)


@pytest.mark.parametrize("offset", [24.0, -24.0, 100.0, float("nan"), float("inf")])
def test_out_of_range_utc_offset_rejected(tmp_path, offset):
    with pytest.raises(ConfigError, match="utc_offset"):
        RunConfig(utc_offset=offset).validate()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"utc_offset": offset}))
    with pytest.raises(ConfigError, match="utc_offset"):
        validate_config(path)
    RunConfig(utc_offset=23.75).validate()


def test_bad_utc_offset_exits_2_before_any_stage(tmp_path):
    # a header-only stops file reaches no stop, so only the config check can catch it
    stops = tmp_path / "stops.csv"
    stops.write_text("device_id,poi_id,start_time,dwell\n")
    pois = tmp_path / "pois.csv"
    pois.write_text("poi_id,name,lat,lon,naics\np1,A,0.0,0.0,44\n")
    out = tmp_path / "out"
    inputs = ["--stops", str(stops), "--pois", str(pois), "--out", str(out)]
    for offset in (24.0, float("nan")):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"utc_offset": offset}))
        assert main(["run", *inputs, "--config", str(cfg)]) == 2
        assert main(["ingest", *inputs, "--utc-offset", str(offset)]) == 2
    assert not out.exists()


def test_flags_override_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"min_dwell": 120}')
    cfg = validate_config(path).with_overrides(min_dwell=60, top_k=5)
    assert (cfg.min_dwell, cfg.top_k) == (60, 5)


def test_analysis_dict_excludes_paths_and_threads():
    doc = RunConfig(stops="s", pois="p", out="o", threads=4).analysis_dict()
    assert set(doc) == {
        "min_dwell", "utc_offset", "network_mode", "census_mode",
        "distance_weighting", "top_k", "seed",
    }


# -- subcommands --------------------------------------------------------------


def test_full_run_produces_valid_report(synth_dir, tmp_path):
    out = tmp_path / "run"
    code = main(
        ["run", "--stops", str(synth_dir / "stops.csv"), "--pois", str(synth_dir / "pois.csv"),
         "--out", str(out)]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    jsonschema.validate(report, REPORT_SCHEMA)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "complete"
    assert report["census"]["totals"]["device_count"] == TRAFFIC["n_device_days"]


def test_wrong_stops_header_exits_2_without_report(synth_dir, tmp_path):
    bad = tmp_path / "bad_stops.csv"
    bad.write_text("device,poi,start,dwell\nd1,p1,0,600\n")
    out = tmp_path / "out"
    code = main(
        ["run", "--stops", str(bad), "--pois", str(synth_dir / "pois.csv"), "--out", str(out)]
    )
    assert code == 2
    assert not (out / "report.json").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "partial"
    failed = manifest["artifacts"][-1]
    assert (failed["stage"], failed["status"], failed["error"]) == ("ingest", "failed", "SchemaError")
    assert "missing column" in failed["message"]


def test_unknown_sector_exits_2_at_attributed_stage(synth_dir, tmp_path):
    with open(synth_dir / "pois.csv", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = [dict(row, naics="999990") for row in reader]
        fieldnames = reader.fieldnames
    pois = tmp_path / "pois.csv"
    with open(pois, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    out = tmp_path / "out"
    code = main(
        ["run", "--stops", str(synth_dir / "stops.csv"), "--pois", str(pois), "--out", str(out)]
    )
    assert code == 2
    manifest = json.loads((out / "manifest.json").read_text())
    failed = manifest["artifacts"][-1]
    assert (failed["stage"], failed["status"], failed["error"]) == (
        "ingest", "failed", "UnknownSectorError"
    )


def test_missing_input_exits_2(tmp_path):
    code = main(
        ["run", "--stops", str(tmp_path / "nope.csv"), "--pois", str(tmp_path / "nope2.csv"),
         "--out", str(tmp_path / "o")]
    )
    assert code == 2


def test_enumerate_mode_needs_only_network(synth_dir, tmp_path):
    ingest_out = tmp_path / "ing"
    assert main(
        ["ingest", "--stops", str(synth_dir / "stops.csv"), "--pois", str(synth_dir / "pois.csv"),
         "--out", str(ingest_out)]
    ) == 0
    net_out = tmp_path / "net"
    assert main(
        ["network", "--sequences", str(ingest_out / "sequences.csv"), "--out", str(net_out)]
    ) == 0
    census_out = tmp_path / "census"
    assert main(
        ["motifs", "--network", str(net_out / "merged.csv"), "--mode", "enumerate",
         "--out", str(census_out)]
    ) == 0
    header = (census_out / "census.csv").read_text().splitlines()[0]
    assert header == "class,motif_count,device_count,flow_count,percentage,avg_distance_km"


def test_trajectory_mode_without_sequences_exits_2(synth_dir, tmp_path):
    code = main(["motifs", "--mode", "trajectory", "--out", str(tmp_path / "c")])
    assert code == 2


def test_refnet_writes_seeded_network(tmp_path):
    out_file = tmp_path / "ref.csv"
    assert main(
        ["refnet", "--kind", "scale-free", "--n", "50", "--avg-degree", "4", "--seed", "9",
         "--out", str(out_file)]
    ) == 0
    net = read_network(out_file)
    assert net.n_edges == 2 * (50 - 2) + 1
    meta = json.loads((tmp_path / "ref.meta.json").read_text())
    assert meta["rng"] == "numpy-pcg64"
    assert meta["seed"] == 9


def test_run_is_reproducible_and_equals_chained_stages(synth_dir, tmp_path):
    stops, pois = str(synth_dir / "stops.csv"), str(synth_dir / "pois.csv")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--stops", stops, "--pois", pois, "--out", str(out_a)]) == 0
    assert main(["run", "--stops", stops, "--pois", pois, "--out", str(out_b)]) == 0

    def tree_bytes(root: Path) -> dict:
        return {
            p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file()
        }

    assert tree_bytes(out_a) == tree_bytes(out_b)

    chain = tmp_path / "chain"
    assert main(["ingest", "--stops", stops, "--pois", pois, "--out", str(chain / "ingest")]) == 0
    assert main(
        ["network", "--sequences", str(chain / "ingest" / "sequences.csv"), "--out", str(chain / "networks")]
    ) == 0
    assert main(
        ["metrics", "--network", str(chain / "networks" / "merged.csv"), "--out", str(chain / "metrics")]
    ) == 0
    assert main(
        ["motifs", "--sequences", str(chain / "ingest" / "sequences.csv"), "--pois", pois,
         "--out", str(chain / "census")]
    ) == 0
    assert main(
        ["attributed", "--instances", str(chain / "census" / "instances.csv"), "--pois", pois,
         "--out", str(chain / "attributed")]
    ) == 0
    assert main(
        ["series", "--census-dir", str(chain / "census"), "--pois", pois,
         "--summary", str(chain / "metrics" / "summary.json"), "--out", str(chain / "series")]
    ) == 0
    run_tree = tree_bytes(out_a)
    chain_tree = tree_bytes(chain)
    # the chained flow covers everything except run-level bookkeeping
    for rel, blob in chain_tree.items():
        assert run_tree[rel] == blob, rel


def _tree_bytes(root: Path) -> dict:
    return {
        p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


@pytest.mark.parametrize(
    "config",
    [
        {"network_mode": "covisitation", "census_mode": "enumerate"},
        {"distance_weighting": "instances"},
    ],
    ids=["covisitation-enumerate", "instances-weighting"],
)
def test_run_equals_chained_stages_beyond_defaults(synth_dir, tmp_path, config):
    stops, pois = str(synth_dir / "stops.csv"), str(synth_dir / "pois.csv")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    run_out, chain = tmp_path / "run", tmp_path / "chain"
    assert main(
        ["run", "--config", str(cfg), "--stops", stops, "--pois", pois, "--out", str(run_out)]
    ) == 0

    sequences = str(chain / "ingest" / "sequences.csv")
    merged = str(chain / "networks" / "merged.csv")
    for args in (
        ["ingest", "--stops", stops, "--pois", pois, "--out", str(chain / "ingest")],
        ["network", "--sequences", sequences, "--out", str(chain / "networks")],
        ["metrics", "--network", merged, "--out", str(chain / "metrics")],
        ["motifs", "--network", merged, "--sequences", sequences, "--pois", pois,
         "--out", str(chain / "census")],
        ["attributed", "--instances", str(chain / "census" / "instances.csv"), "--pois", pois,
         "--out", str(chain / "attributed")],
        ["series", "--census-dir", str(chain / "census"), "--pois", pois,
         "--summary", str(chain / "metrics" / "summary.json"), "--out", str(chain / "series")],
    ):
        assert main([*args, "--config", str(cfg)]) == 0, args[0]

    run_tree, chain_tree = _tree_bytes(run_out), _tree_bytes(chain)
    assert set(chain_tree) == set(run_tree) - {"manifest.json", "report.json"}
    for rel, blob in chain_tree.items():
        assert run_tree[rel] == blob, rel
    census = json.loads((run_out / "census" / "census.json").read_text())
    report = json.loads((run_out / "report.json").read_text())
    assert census["mode"] == config.get("census_mode", "trajectory")
    assert report["distances"]["weighting"] == config.get("distance_weighting", "devices")


def _count_calls(monkeypatch, module, name: str) -> list:
    """Wrap module.name under every placeweave name bound to it; returns the call log."""
    original = getattr(module, name)
    calls: list = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("placeweave"):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def test_run_reads_each_input_once(synth_dir, tmp_path, monkeypatch):
    catalog_loads = _count_calls(monkeypatch, ingest, "load_poi_catalog")
    rereads = {
        "read_sequences": _count_calls(monkeypatch, ingest, "read_sequences"),
        "read_instances_csv": _count_calls(monkeypatch, pipeline, "read_instances_csv"),
        "read_network": _count_calls(monkeypatch, network, "read_network"),
    }
    out = tmp_path / "out"
    assert main(
        ["run", "--stops", str(synth_dir / "stops.csv"), "--pois", str(synth_dir / "pois.csv"),
         "--out", str(out)]
    ) == 0
    assert len(catalog_loads) == 1
    assert {name: len(calls) for name, calls in rereads.items()} == dict.fromkeys(rereads, 0)


def test_run_flow_check_uses_the_in_hand_network(synth_dir, tmp_path, monkeypatch):
    real = motifs.classify_trajectories

    def one_flow_more(sequences):
        traj = real(sequences)
        traj.total_flows += 1
        return traj

    monkeypatch.setattr(motifs, "classify_trajectories", one_flow_more)
    out = tmp_path / "out"
    code = main(
        ["run", "--stops", str(synth_dir / "stops.csv"), "--pois", str(synth_dir / "pois.csv"),
         "--out", str(out)]
    )
    assert code == 3
    manifest = json.loads((out / "manifest.json").read_text())
    failed = manifest["artifacts"][-1]
    assert (failed["stage"], failed["status"], failed["error"]) == (
        "motifs", "failed", "InvariantError"
    )


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "placeweave" in capsys.readouterr().out


def test_run_builds_no_stop_records_and_no_edge_dicts(synth_dir, tmp_path, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("run built a per-row object")

    monkeypatch.setattr(ingest.StopRecord, "__init__", forbidden)
    for view in ("nodes", "edges", "adjacency", "neighbors", "weight", "has_edge"):
        assert not hasattr(network.PlaceNetwork, view), view
    for mode in ("consecutive", "covisitation"):
        assert main(
            ["run", "--stops", str(synth_dir / "stops.csv"), "--pois", str(synth_dir / "pois.csv"),
             "--out", str(tmp_path / mode), "--config", str(_write_config(tmp_path, mode))]
        ) == 0


def _write_config(tmp_path, mode):
    path = tmp_path / f"{mode}.json"
    path.write_text(json.dumps({"network_mode": mode}))
    return path


def test_motifs_rejects_a_repeated_stay_naming_its_line(tmp_path, caplog):
    sequences = tmp_path / "sequences.csv"
    sequences.write_text("device_id,local_date,stays\nd1,2020-02-03,a|a|b\n")
    pois = tmp_path / "pois.csv"
    pois.write_text("poi_id,name,lat,lon,naics\na,a,0,0,4400\nb,b,0,1,4400\n")
    code = main(
        ["motifs", "--sequences", str(sequences), "--pois", str(pois), "--out", str(tmp_path / "c")]
    )
    assert code == 2
    assert "line 2: a walk repeats a stay consecutively" in caplog.text


def test_run_computes_the_whole_period_distance_table_once(synth_dir, tmp_path, monkeypatch):
    real = stats.class_avg_distance
    calls = []

    def spy(instances, km, weighting="devices", groups=None):
        if groups is None:
            calls.append((len(instances), weighting))
        return real(instances, km, weighting, groups)

    monkeypatch.setattr(stats, "class_avg_distance", spy)
    assert main(
        ["run", "--stops", str(synth_dir / "stops.csv"), "--pois", str(synth_dir / "pois.csv"),
         "--out", str(tmp_path / "out")]
    ) == 0
    census = json.loads((tmp_path / "out" / "census" / "census.json").read_text())
    every = sum(row["motif_count"] for row in census["classes"])
    whole_period = [weighting for n, weighting in calls if n == every]
    assert whole_period == ["devices"]
