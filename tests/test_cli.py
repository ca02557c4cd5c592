import csv
import json
import sys
from pathlib import Path

import jsonschema
import pytest

from placeweave import attributes, ingest, motifs, network, pipeline, stats
from placeweave.cli import main
from placeweave.config import RunConfig, validate_config
from placeweave.errors import ConfigError, InvariantError
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


def test_dwell_range_of_2_32_values_exits_2(tmp_path):
    (tmp_path / "world.json").write_text(json.dumps(WORLD))
    (tmp_path / "traffic.json").write_text(json.dumps({**TRAFFIC, "dwell_range": [0, 2**32 - 1]}))
    args = ["--world", str(tmp_path / "world.json"), "--traffic", str(tmp_path / "traffic.json")]
    assert main(["synth", *args, "--out", str(tmp_path / "data")]) == 2
    assert not (tmp_path / "data" / "stops.csv").exists()


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


@pytest.mark.parametrize(
    "doc",
    [
        {"min_dwell": 299.9},
        {"top_k": 2.5},
        {"threads": True},
        {"seed": False},
        {"utc_offset": True},
        {"min_dwell": "300"},
        {"utc_offset": 10**400},
    ],
)
def test_config_integer_key_rejects_bool_and_fraction(tmp_path, doc):
    stops = tmp_path / "stops.csv"
    stops.write_text("device_id,poi_id,start_time,dwell\n")
    pois = tmp_path / "pois.csv"
    pois.write_text("poi_id,name,lat,lon,naics\np1,A,0.0,0.0,44\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    args = ["run", "--stops", str(stops), "--pois", str(pois), "--out", str(out)]
    assert main([*args, "--config", str(cfg)]) == 2
    assert not out.exists()
    [key] = doc
    cfg.write_text(json.dumps({key: 2.0}))  # an integral float still reads as an integer
    assert getattr(validate_config(cfg), key) == 2


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


@pytest.mark.parametrize(
    "command, bad",
    [
        (["run", "--stops", "{dir}", "--pois", "{pois}", "--out", "{out}"], "dir"),
        (["metrics", "--network", "{dir}", "--out", "{out}"], "dir"),
        (["run", "--config", "{dir}", "--stops", "{stops}", "--pois", "{pois}", "--out", "{out}"],
         "dir"),
        (["run", "--stops", "{stops}", "--pois", "{pois}", "--out", "{file}"], "file"),
        (["run", "--stops", "{stops}", "--pois", "{pois}", "--out", "{file}/o"], "file"),
    ],
    ids=["run-stops-dir", "metrics-network-dir", "run-config-dir", "run-out-file",
         "run-out-under-file"],
)
def test_unusable_path_exits_2_naming_it(synth_dir, tmp_path, caplog, command, bad):
    paths = {"dir": tmp_path / "a_dir", "file": tmp_path / "a_file", "out": tmp_path / "o",
             "stops": synth_dir / "stops.csv", "pois": synth_dir / "pois.csv"}
    paths["dir"].mkdir()
    paths["file"].write_text("x\n")
    assert main([arg.format(**paths) for arg in command]) == 2
    assert str(paths[bad]) in caplog.text


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


@pytest.fixture(scope="module")
def real_report(synth_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("report") / "out"
    assert main(
        ["run", "--stops", str(synth_dir / "stops.csv"), "--pois", str(synth_dir / "pois.csv"),
         "--out", str(out)]
    ) == 0
    return json.loads((out / "report.json").read_text())


# a change to the real report -> whether the report stays valid; every
# keyword the checker supports has a change that breaks it
SCHEMA_CHANGES = {
    "none": (lambda r: None, True),
    "type": (lambda r: r.update(config=[]), False),
    "required": (lambda r: r["census"].pop("totals"), False),
    "properties": (lambda r: r["tool"].update(name=1), False),
    "items": (lambda r: r["series_files"].append(3), False),
    "const": (lambda r: r.update(schema_version=2), False),
    "const-true": (lambda r: r.update(schema_version=True), False),  # JSON's true is not 1
    "const-float": (lambda r: r.update(schema_version=1.0), True),  # but 1.0 is
    "enum": (lambda r: r["census"].update(mode="sampled"), False),
}


def jsonschema_accepts(doc) -> bool:
    try:
        jsonschema.validate(doc, REPORT_SCHEMA)
    except jsonschema.ValidationError:
        return False
    return True


def checker_accepts(doc) -> bool:
    try:
        stats._check_schema(doc, REPORT_SCHEMA)
    except InvariantError:
        return False
    return True


@pytest.mark.parametrize("change", sorted(SCHEMA_CHANGES))
def test_schema_checker_agrees_with_jsonschema(real_report, change):
    mutate, valid = SCHEMA_CHANGES[change]
    doc = json.loads(json.dumps(real_report))
    mutate(doc)
    assert checker_accepts(doc) == jsonschema_accepts(doc) == valid


@pytest.mark.parametrize(
    "schema",
    [
        {**REPORT_SCHEMA, "additionalProperties": False},
        {"type": "object", "properties": {"absent": {"minimum": 0}}},
        {"type": "object", "properties": {"series_files": {"type": ["array", "null"]}}},
    ],
)
def test_schema_checker_raises_on_what_it_does_not_support(real_report, schema):
    with pytest.raises(InvariantError, match="not supported"):
        stats._check_schema(real_report, schema)


def test_report_failing_its_own_schema_exits_3(synth_dir, tmp_path, monkeypatch):
    schema = dict(REPORT_SCHEMA, required=[*REPORT_SCHEMA["required"], "no_such_section"])
    monkeypatch.setattr(stats, "REPORT_SCHEMA", schema)
    out = tmp_path / "out"
    code = main(
        ["run", "--stops", str(synth_dir / "stops.csv"), "--pois", str(synth_dir / "pois.csv"),
         "--out", str(out)]
    )
    assert code == 3
    failed = json.loads((out / "manifest.json").read_text())["artifacts"][-1]
    assert (failed["stage"], failed["status"], failed["error"]) == (
        "series", "failed", "InvariantError"
    )


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "placeweave" in capsys.readouterr().out


def test_run_builds_no_stop_records_and_no_edge_dicts(synth_dir, tmp_path, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("run built a network edge by edge")

    for record in ("StopRecord", "StaySequence", "PoiRecord"):
        assert not hasattr(ingest, record), record
    for queue in ("add_node", "_fold"):
        assert not hasattr(network.PlaceNetwork, queue), queue
    # add_edge stays for perfbench/test_perfbench.py; run must not call it
    monkeypatch.setattr(network.PlaceNetwork, "add_edge", forbidden)
    for view in ("nodes", "edges", "adjacency", "neighbors", "weight", "has_edge"):
        assert not hasattr(network.PlaceNetwork, view), view
    for mode in ("consecutive", "covisitation"):
        assert main(
            ["run", "--stops", str(synth_dir / "stops.csv"), "--pois", str(synth_dir / "pois.csv"),
             "--out", str(tmp_path / mode), "--config", str(_write_config(tmp_path, mode))]
        ) == 0


def test_run_resolves_each_poi_sector_once(synth_dir, tmp_path, monkeypatch):
    real = attributes.to_sector
    calls = []

    def spy(naics):
        calls.append(naics)
        return real(naics)

    monkeypatch.setattr(attributes, "to_sector", spy)
    assert main(
        ["run", "--stops", str(synth_dir / "stops.csv"), "--pois", str(synth_dir / "pois.csv"),
         "--out", str(tmp_path / "out")]
    ) == 0
    rows = (synth_dir / "pois.csv").read_text().splitlines()[1:]
    assert sorted(calls) == sorted(row.rsplit(",", 1)[1] for row in rows)


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
    assert f"{sequences}:2: a walk repeats a stay consecutively" in caplog.text


def test_network_rejects_a_row_missing_a_field(tmp_path, caplog):
    sequences = tmp_path / "sequences.csv"
    sequences.write_text("device_id,local_date,stays\nd1,2020-02-03,a|b\nd2,2020-02-03\n")
    assert main(["network", "--sequences", str(sequences), "--out", str(tmp_path / "n")]) == 2
    assert f"{sequences}:3: wrong number of fields" in caplog.text


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


@pytest.mark.parametrize("mode", network.NETWORK_MODES)
def test_run_derives_the_walk_steps_once_in_each_stage_that_reads_walks(
    synth_dir, tmp_path, monkeypatch, mode
):
    log = []
    steps = ingest.SequenceTable.steps

    def counted(self):
        log.append("steps")
        return steps(self)

    monkeypatch.setattr(ingest.SequenceTable, "steps", counted)
    for stage in ("stage_network", "stage_motifs"):

        def entered(*args, _stage=stage, _real=getattr(pipeline, stage), **kwargs):
            log.append(_stage)
            return _real(*args, **kwargs)

        monkeypatch.setattr(pipeline, stage, entered)
    assert main(
        ["run", "--config", str(_write_config(tmp_path, mode)), "--stops",
         str(synth_dir / "stops.csv"), "--pois", str(synth_dir / "pois.csv"),
         "--out", str(tmp_path / "out")]
    ) == 0
    assert log == ["stage_network", "steps", "stage_motifs", "steps"]


def test_series_window_below_one_exits_2_before_writing(synth_dir, tmp_path, caplog):
    run = tmp_path / "run"
    assert main(
        ["run", "--stops", str(synth_dir / "stops.csv"), "--pois", str(synth_dir / "pois.csv"),
         "--out", str(run)]
    ) == 0
    out = tmp_path / "series"
    code = main(
        ["series", "--census-dir", str(run / "census"), "--pois", str(synth_dir / "pois.csv"),
         "--summary", str(run / "metrics" / "summary.json"), "--window", "0", "--out", str(out)]
    )
    assert code == 2
    assert "window must be at least 1, got 0" in caplog.text
    assert [p for p in out.rglob("*") if p.is_file()] == []
