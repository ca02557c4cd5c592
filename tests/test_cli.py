import csv
import gc
import inspect
import io
import json
import re
import sys
from pathlib import Path

import jsonschema
import pytest

from placeweave import (
    _fastcount, attributes, ingest, metrics, motifs, network, pipeline, refnets, stats,
)
from placeweave.cli import main
from placeweave.config import RunConfig, validate_config
from placeweave.errors import ConfigError, InvariantError
from placeweave.network import read_network
from placeweave.stats import REPORT_SCHEMA
from placeweave.synth import load_traffic_spec, load_world_spec

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


@pytest.mark.parametrize(
    "spec, doc, message",
    [
        ("traffic", {**TRAFFIC, "class_mix": []}, "bad class_mix"),
        ("traffic", {**TRAFFIC, "n_device_days": None}, "bad n_device_days"),
        ("traffic", {**TRAFFIC, "dwell_range": None}, "bad dwell_range"),
        ("world", {**WORLD, "seed": None}, "bad seed"),
        ("world", 5, "must be a JSON object, got int"),
        ("traffic", 5, "must be a JSON object, got int"),
        # integers: a bool or a fraction is not truncated to one
        ("world", {**WORLD, "seed": 1.5}, "bad seed (must be an integer, got 1.5)"),
        ("world", {**WORLD, "seed": True}, "bad seed (must be a number, got True)"),
        ("world", {**WORLD, "n_pois": True}, "bad n_pois (must be a number"),
        ("world", {**WORLD, "n_pois": 40.5}, "bad n_pois (must be an integer"),
        ("traffic", {**TRAFFIC, "n_device_days": 50.7}, "bad n_device_days (must be an integer"),
        ("traffic", {**TRAFFIC, "n_device_days": True}, "bad n_device_days (must be a number"),
        ("traffic", {**TRAFFIC, "seed": 22.5}, "bad seed (must be an integer"),
        ("traffic", {**TRAFFIC, "seed": False}, "bad seed (must be a number"),
        ("traffic", {**TRAFFIC, "dwell_range": [600.9, 3600]}, "bad dwell_range (must be an integer"),
        ("traffic", {**TRAFFIC, "dwell_range": [600, True]}, "bad dwell_range (must be a number"),
        # numbers: a string or a bool is not read as one
        ("world", {**WORLD, "bbox": [29.5, "30.0", -95.8, -95.2]}, "bad bbox (must be a number"),
        ("world", {**WORLD, "category_shares": {"7": "1.0"}}, "bad category_shares (must be a"),
        ("traffic", {**TRAFFIC, "class_mix": {"M2_1": True}}, "bad class_mix (must be a number"),
        ("traffic", {**TRAFFIC, "max_sample_km": True}, "bad max_sample_km (must be a number"),
        ("world", {**WORLD, "category_shares": {"7": float("nan")}}, "bad category_shares (must be"
         " finite, got nan)"),
    ],
)
def test_spec_value_of_a_wrong_json_type_exits_2_naming_it(tmp_path, caplog, spec, doc, message):
    for name, content in {"world": WORLD, "traffic": TRAFFIC, spec: doc}.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(content))
    args = ["--world", str(tmp_path / "world.json"), "--traffic", str(tmp_path / "traffic.json")]
    assert main(["synth", *args, "--out", str(tmp_path / "data")]) == 2
    assert f"{spec} spec: {message}" in caplog.text
    assert not (tmp_path / "data" / "stops.csv").exists()


def test_spec_integers_written_as_integral_floats_load_as_ints(tmp_path):
    world = {**WORLD, "n_pois": 40.0, "seed": 21.0}
    traffic = {**TRAFFIC, "n_device_days": 150.0, "seed": 22.0, "dwell_range": [600.0, 3600.0]}
    (tmp_path / "world.json").write_text(json.dumps(world))
    (tmp_path / "traffic.json").write_text(json.dumps(traffic))
    w, t = load_world_spec(tmp_path / "world.json"), load_traffic_spec(tmp_path / "traffic.json")
    ints = (w.n_pois, w.seed, t.n_device_days, t.seed, *t.dwell_range)
    assert ints == (40, 21, 150, 22, 600, 3600)
    assert all(type(v) is int for v in ints)
    assert set(w.category_shares) == {7, 16, 18}  # ids from JSON object keys


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


def _stage_refnet_raising(error):
    def stage(*args, **kwargs):
        raise error

    return stage


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize(
    "degree, stage, outcome",
    [
        ("3", None, 0),
        ("inf", None, 2),
        ("3", _stage_refnet_raising(InvariantError("broken")), 3),
        ("3", _stage_refnet_raising(ValueError("a pipeline bug")), ValueError),
        ("three", None, SystemExit),  # argparse rejects the value
    ],
    ids=["exit-0", "exit-2", "exit-3", "internal-error", "argparse-exit"],
)
def test_main_leaves_the_collector_as_it_found_it(
    tmp_path, monkeypatch, enabled, degree, stage, outcome
):
    seen = []
    real = stage or pipeline.stage_refnet

    def stage_refnet(*args, **kwargs):
        seen.append(gc.isenabled())  # the stage runs with the collector on
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "stage_refnet", stage_refnet)
    argv = ["refnet", "--kind", "random", "--n", "20", "--avg-degree", degree,
            "--out", str(tmp_path / "ref.csv")]
    was = gc.isenabled()
    gc.enable() if enabled else gc.disable()
    try:
        if isinstance(outcome, int):
            assert main(argv) == outcome
        else:
            with pytest.raises(outcome):
                main(argv)
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()
    assert seen == ([] if outcome is SystemExit else [True])


@pytest.mark.parametrize("kind", ["random", "scale-free"])
@pytest.mark.parametrize("degree", ["inf", "nan"])
def test_refnet_of_a_non_finite_degree_exits_2_naming_it(tmp_path, caplog, kind, degree):
    out_file = tmp_path / "ref.csv"
    assert main(
        ["refnet", "--kind", kind, "--n", "10", "--avg-degree", degree, "--out", str(out_file)]
    ) == 2
    assert f"target average degree must be finite, got {degree}" in caplog.text
    assert not out_file.exists()


@pytest.mark.parametrize(
    "time, offset", [(9_000_000_000_000_000_000, 0), (253_402_300_000, 1), (10**15, 0)]
)
def test_out_of_range_start_time_exits_2_at_ingest(tmp_path, caplog, time, offset):
    stops = tmp_path / "stops.csv"
    stops.write_text(f"device_id,poi_id,start_time,dwell\nd1,a,0,600\nd1,b,{time},600\n")
    pois = tmp_path / "pois.csv"
    pois.write_text("poi_id,name,lat,lon,naics\na,a,0,0,4400\nb,b,0,1,4400\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"utc_offset": offset}))
    out = tmp_path / "out"
    assert main(
        ["run", "--stops", str(stops), "--pois", str(pois), "--out", str(out),
         "--config", str(cfg)]
    ) == 2
    assert f"start_time {time} at UTC offset +{offset} h" in caplog.text
    failed = json.loads((out / "manifest.json").read_text())["artifacts"][-1]
    assert (failed["stage"], failed["error"]) == ("ingest", "SchemaError")


def test_test_only_helpers_are_not_in_the_package():
    removed = {
        ingest: ["local_date"],
        ingest.SequenceTable: ["walks"],
        network: ["build_network", "bisect_left", "pair_network", "poi_pairs"],
        network.PlaceNetwork: ["index"],
        motifs: ["_instance_order", "ClassStats", "MotifCensus", "census_percentages",
                 "_class_counts"],
        stats: ["attach_distances", "DistanceSplit", "DistanceTable", "distance_document"],
        attributes: ["AttributedEntry"],
        metrics: ["NetworkSummary"],
        metrics.DegreeHistogram: ["pdf_at", "ccdf_at", "mean"],
        refnets: ["RNG_ALGORITHM"],
        _fastcount: ["_four_cliques", "N_CLASS_SLOTS"],
    }
    for owner, names in removed.items():
        for name in names:
            assert not hasattr(owner, name), (owner, name)
    ks = inspect.signature(metrics.poisson_reference).parameters["ks"]
    assert ks.default is inspect.Parameter.empty
    assert "scan_xmin" not in inspect.signature(metrics.fit_power_law).parameters


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


@pytest.fixture(scope="module")
def run_dir(synth_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run") / "out"
    assert main(
        ["run", "--stops", str(synth_dir / "stops.csv"), "--pois", str(synth_dir / "pois.csv"),
         "--out", str(out)]
    ) == 0
    return out


def _with_bad_byte(line: int):
    """A file's bytes with a byte that is not UTF-8 at the end of line (1-based)."""
    def edit(data: bytes) -> bytes:
        lines = data.split(b"\n")
        lines[line - 1] += b"\xff"
        return b"\n".join(lines)
    return edit


HEADER_ONLY = b"poi_a,poi_b,weight\n"
EDGELESS = {"label": "2020-02-03", "isolated_nodes": ["p1", "p2"]}
INSTANCES_HEADER = b"local_date,motif_class,nodes,edges,device_count\n"
INSTANCE = b"2020-02-01,M2_1,a|b,a|b,%d\n"
# command -> {input file: its new bytes or an edit of them}, what the error names;
# {name} is the path of that input under the test's directory, {name:N} also a line
BAD_INPUTS = {
    "metrics-sidecar-json": (["metrics", "--network", "{net.csv}"], {"net.meta.json": b"{"},
                             "{net.meta.json} is not valid JSON"),
    "enumerate-sidecar-json": (["motifs", "--mode", "enumerate", "--network", "{net.csv}"],
                               {"net.meta.json": b"{"}, "{net.meta.json} is not valid JSON"),
    "motifs-sidecar-json": (["motifs", "--sequences", "{sequences.csv}", "--network", "{net.csv}"],
                            {"net.meta.json": b"{"}, "{net.meta.json} is not valid JSON"),
    "world-json": (["synth", "--world", "{world.json}", "--traffic", "{traffic.json}"],
                   {"world.json": b'{"n_pois": 40,'}, "world spec {world.json} is not valid JSON"),
    # json.loads raises a plain ValueError for an integer past int()'s 4300-digit limit
    "world-json-long-integer": (["synth", "--world", "{world.json}", "--traffic", "{traffic.json}"],
                                {"world.json": b'{"n_pois": 1' + b"0" * 5000 + b"}"},
                                "world spec {world.json} is not valid JSON"),
    # a lone surrogate escape is valid JSON but no text: it cannot be written as UTF-8
    "sidecar-lone-surrogate": (["metrics", "--network", "{net.csv}"],
                               {"net.meta.json": b'{"isolated_nodes": ["p\\ud800"]}'},
                               "network sidecar {net.meta.json} is not valid JSON"),
    # open() raises a plain ValueError for a path holding NUL
    "config-path-nul": (["run", "--config", "{config.json}"],
                        {"config.json": json.dumps({"stops": "a\0b", "pois": "b"})},
                        "bad stops (must be a string without NUL"),
    # one error lists every bad key of a config or spec
    "config-bad-keys": (["run", "--config", "{config.json}"],
                        {"config.json": json.dumps({"bogus": 1, "min_dwell": "60", "top_k": 1.5})},
                        "config file: unknown key(s) ['bogus']; bad min_dwell (must be a number, "
                        "got '60'); bad top_k (must be an integer, got 1.5)"),
    "world-bad-keys": (["synth", "--world", "{world.json}", "--traffic", "{traffic.json}"],
                       {"world.json": json.dumps({**WORLD, "n_pois": 1.5, "seed": True})},
                       "world spec: bad n_pois (must be an integer, got 1.5); bad seed (must be a "
                       "number, got True)"),
    "sidecar-not-an-object": (["metrics", "--network", "{net.csv}"], {"net.meta.json": b"[]"},
                              "network sidecar: must be a JSON object, got list in "
                              "{net.meta.json}"),
    "traffic-json": (["synth", "--world", "{world.json}", "--traffic", "{traffic.json}"],
                     {"traffic.json": b"[1,"}, "traffic spec {traffic.json} is not valid JSON"),
    "census-json": (["series", "--census-dir", "{census}", "--pois", "{pois.csv}", "--summary",
                     "{summary.json}"], {"census/census.json": b"{"},
                    "census {census/census.json} is not valid JSON"),
    "summary-json": (["series", "--census-dir", "{census}", "--pois", "{pois.csv}", "--summary",
                      "{summary.json}"], {"summary.json": b"}"},
                     "summary {summary.json} is not valid JSON"),
    "stops-utf8": (["ingest", "--stops", "{stops.csv}", "--pois", "{pois.csv}"],
                   {"stops.csv": _with_bad_byte(3)}, "{stops.csv:3}: not UTF-8"),
    "pois-utf8": (["ingest", "--stops", "{stops.csv}", "--pois", "{pois.csv}"],
                  {"pois.csv": _with_bad_byte(2)}, "{pois.csv:2}: not UTF-8"),
    "sequences-utf8": (["network", "--sequences", "{sequences.csv}"],
                       {"sequences.csv": _with_bad_byte(4)}, "{sequences.csv:4}: not UTF-8"),
    "network-utf8": (["metrics", "--network", "{net.csv}"], {"net.csv": _with_bad_byte(5)},
                     "{net.csv:5}: not UTF-8"),
    "instances-utf8": (["attributed", "--instances", "{census/instances.csv}", "--pois",
                        "{pois.csv}"], {"census/instances.csv": _with_bad_byte(2)},
                       "{census/instances.csv:2}: not UTF-8"),
    "spec-utf8": (["synth", "--world", "{world.json}", "--traffic", "{traffic.json}"],
                  {"traffic.json": lambda data: data.replace(b"M2_1", b"M2_\xff")},
                  "traffic spec {traffic.json} is not valid JSON: 'utf-8' codec"),
    "metrics-no-nodes": (["metrics", "--network", "{net.csv}"],
                         {"net.csv": HEADER_ONLY, "net.meta.json": b'{"label": "2020-02-03"}'},
                         "network '2020-02-03' has no edges"),
    "metrics-isolated-nodes": (["metrics", "--network", "{net.csv}"],
                               {"net.csv": HEADER_ONLY, "net.meta.json": json.dumps(EDGELESS)},
                               "network '2020-02-03' has no edges"),
    "enumerate-edgeless": (["motifs", "--mode", "enumerate", "--network", "{net.csv}"],
                           {"net.csv": HEADER_ONLY, "net.meta.json": json.dumps(EDGELESS)},
                           "network '2020-02-03' has no edges"),
    "motifs-no-sequences": (["motifs", "--sequences", "{sequences.csv}"],
                            {"sequences.csv": b"device_id,local_date,stays\n"},
                            "no stay sequences to census"),
    # numpy's default_rng raises a plain ValueError for a negative seed
    "refnet-random-negative-seed": (["refnet", "--kind", "random", "--n", "10", "--avg-degree", "2",
                                     "--seed", "-1"], {}, "seed must be >= 0, got -1"),
    # int64 bounds: a weight, and total_weight * (nodes - 1), which bounds the clustering's sums
    "network-weight-2-63": (["metrics", "--network", "{net.csv}"],
                            {"net.csv": HEADER_ONLY + b"a,b,%d\n" % 2**63},
                            "{net.csv:2}: weight 9223372036854775808 exceeds 2**63 - 1"),
    "network-total-weight": (["metrics", "--network", "{net.csv}"],
                             {"net.csv": HEADER_ONLY + b"a,b,%d\nb,c,%d\n" % (2**63 - 1, 2**63 - 1)},
                             "network {net.csv}: total weight 18446744073709551614 times 2"),
    # a triangle a-b-c with a tail a-d: strength(a) * (degree(a) - 1) wraps in int64
    "network-clustering-sums": (["metrics", "--network", "{net.csv}"],
                                {"net.csv": HEADER_ONLY + b"a,b,%d\na,c,%d\na,d,%d\nb,c,1\n"
                                 % (2**61, 2**61, 2**61)},
                                "network {net.csv}: total weight 6917529027641081857 times 3"),
    "sidecar-isolated-int": (["metrics", "--network", "{net.csv}"],
                             {"net.meta.json": json.dumps({**EDGELESS, "isolated_nodes": 5})},
                             "network sidecar {net.meta.json}: bad isolated_nodes (must be a list "
                             "of strings, got 5)"),
    "sidecar-isolated-ints": (["metrics", "--network", "{net.csv}"],
                              {"net.meta.json": json.dumps({**EDGELESS, "isolated_nodes": [5]})},
                              "network sidecar {net.meta.json}: bad isolated_nodes (must be a list "
                              "of strings, got [5])"),
    "sidecar-no-total-weight": (["motifs", "--sequences", "{sequences.csv}", "--network",
                                 "{net.csv}"],
                                {"net.meta.json": json.dumps({"label": "x", "mode": "consecutive"})},
                                "network sidecar {net.meta.json}: missing total_weight"),
    "sidecar-other-sequences": (["motifs", "--sequences", "{sequences.csv}", "--network",
                                 "{net.csv}"],
                                {"net.meta.json": lambda data: json.dumps(
                                    {**json.loads(data), "total_weight": 5})},
                                "network sidecar {net.meta.json}: total_weight 5 is not the "),
    "census-no-keys": (["series", "--census-dir", "{census}", "--pois", "{pois.csv}", "--summary",
                        "{summary.json}"], {"census/census.json": b"{}"},
                       "census {census/census.json} does not fit the report: census: 'mode' is a "
                       "required property"),
    "summary-no-keys": (["series", "--census-dir", "{census}", "--pois", "{pois.csv}", "--summary",
                         "{summary.json}"], {"summary.json": b"{}"},
                        "summary {summary.json} does not fit the report: summary: 'nodes' is a "
                        "required property"),
    "instances-count-2-63": (["attributed", "--instances", "{census/instances.csv}", "--pois",
                              "{pois.csv}"],
                             {"census/instances.csv": INSTANCES_HEADER + INSTANCE % 2**63},
                             "{census/instances.csv:2}: device_count 9223372036854775808 exceeds "
                             "2**63 - 1"),
    "instances-count-total": (["attributed", "--instances", "{census/instances.csv}", "--pois",
                               "{pois.csv}"],
                              {"census/instances.csv": INSTANCES_HEADER
                               + (INSTANCE % (2**63 - 1)).replace(b"01", b"02", 1)
                               + INSTANCE % (2**63 - 1)},
                              "instances {census/instances.csv}: device counts total "
                              "18446744073709551614, more than 2**63 - 1"),
    # a node or an edge listed twice in a row, in a class row and in an OTHER row
    "instances-repeated-node": (["attributed", "--instances", "{census/instances.csv}", "--pois",
                                 "{pois.csv}"],
                                {"census/instances.csv": INSTANCES_HEADER
                                 + b"2020-02-01,M2_1,p00|p00|p09,p00|p09,1\n"},
                                "{census/instances.csv:2}: node p00 is listed twice"),
    "instances-repeated-edge": (["attributed", "--instances", "{census/instances.csv}", "--pois",
                                 "{pois.csv}"],
                                {"census/instances.csv": INSTANCES_HEADER
                                 + b"2020-02-01,M3_1,p00|p01|p02,p00|p01;p01|p02;p00|p01,1\n"},
                                "{census/instances.csv:2}: edge p00|p01 is listed twice"),
    "instances-other-repeated-edge": (["attributed", "--instances", "{census/instances.csv}",
                                       "--pois", "{pois.csv}"],
                                      {"census/instances.csv": INSTANCES_HEADER
                                       + b"2020-02-01,OTHER,p00|p01|p02|p03|p04,"
                                       b"p00|p01;p01|p02;p02|p03;p03|p04;p01|p00,1\n"},
                                      "{census/instances.csv:2}: edge p01|p00 is listed twice"),
    "instances-other-repeated-node": (["attributed", "--instances", "{census/instances.csv}",
                                       "--pois", "{pois.csv}"],
                                      {"census/instances.csv": INSTANCES_HEADER
                                       + b"2020-02-01,OTHER,p00|p01|p02|p03|p04|p02,"
                                       b"p00|p01;p01|p02;p02|p03;p03|p04,1\n"},
                                      "{census/instances.csv:2}: node p02 is listed twice"),
    "refnet-scale-free-negative-seed": (["refnet", "--kind", "scale-free", "--n", "10",
                                         "--avg-degree", "2", "--seed", "-1"], {},
                                        "seed must be >= 0, got -1"),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_exits_2_with_one_error_naming_it(synth_dir, run_dir, tmp_path, caplog, case):
    command, edits, named = BAD_INPUTS[case]
    inputs = {
        "stops.csv": synth_dir / "stops.csv", "pois.csv": synth_dir / "pois.csv",
        "sequences.csv": run_dir / "ingest" / "sequences.csv",
        "net.csv": run_dir / "networks" / "merged.csv",
        "net.meta.json": run_dir / "networks" / "merged.meta.json",
        "census/instances.csv": run_dir / "census" / "instances.csv",
        "census/census.json": run_dir / "census" / "census.json",
        "summary.json": run_dir / "metrics" / "summary.json",
    }
    (tmp_path / "census").mkdir()
    for name, source in inputs.items():
        (tmp_path / name).write_bytes(source.read_bytes())
    (tmp_path / "world.json").write_text(json.dumps(WORLD))
    (tmp_path / "traffic.json").write_text(json.dumps(TRAFFIC))
    for name, edit in edits.items():
        path = tmp_path / name
        content = edit(path.read_bytes()) if callable(edit) else edit
        path.write_bytes(content.encode() if isinstance(content, str) else content)

    def fill(text: str) -> str:
        return re.sub(r"\{([^}:]+)(:\d+)?\}", lambda m: str(tmp_path / m[1]) + (m[2] or ""), text)

    caplog.clear()
    assert main([fill(arg) for arg in command] + ["--out", str(tmp_path / "out")]) == 2
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and fill(named) in errors[0], errors
    assert "Traceback" not in caplog.text and all(r.exc_info is None for r in caplog.records)
    assert [p for p in (tmp_path / "out").rglob("*") if p.is_file()] == []


@pytest.mark.parametrize("mode", ["trajectory", "enumerate"])
def test_min_count_drops_census_csv_rows_of_the_census_json_rows(synth_dir, run_dir, tmp_path, mode):
    inputs = {
        "trajectory": ["--sequences", str(run_dir / "ingest" / "sequences.csv"),
                       "--pois", str(synth_dir / "pois.csv")],
        "enumerate": ["--mode", "enumerate", "--network", str(run_dir / "networks" / "merged.csv")],
    }[mode]

    def census(n: int) -> tuple[dict, list[str]]:
        out = tmp_path / f"min{n}"
        assert main(["motifs", *inputs, "--min-count", str(n), "--out", str(out)]) == 0
        return json.loads((out / "census.json").read_text()), (out / "census.csv").read_text()

    def formatted(values) -> str:
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerow(values)
        return text.getvalue()

    first, _ = census(1)
    counts = sorted(row["motif_count"] for row in first["classes"] if row["motif_count"])
    n = counts[len(counts) // 2]  # the classes below it go, the class at it stays
    doc, text = census(n)
    assert doc == {**first, "min_count": n}  # all nine classes
    assert len(doc["classes"]) == len(motifs.CLASS_ORDER)
    columns = ("class", "motif_count", "device_count", "flow_count", "percentage",
               "avg_distance_km")
    kept = [row for row in doc["classes"] if row["motif_count"] >= n]
    assert 0 < len(kept) < len(counts)
    totals = doc["totals"]
    assert text == "".join([
        formatted(columns),
        formatted(["GLOBAL", totals["motif_count"], totals["device_count"], totals["flow_count"],
                   None, None]),
        *(formatted([row[c] for c in columns]) for row in kept),
    ])


def test_an_internal_value_error_is_not_bad_input(run_dir, tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("a pipeline bug")

    monkeypatch.setattr(pipeline, "stage_metrics", broken)
    network = run_dir / "networks" / "merged.csv"
    with pytest.raises(ValueError, match="a pipeline bug"):
        main(["metrics", "--network", str(network), "--out", str(tmp_path / "out")])
