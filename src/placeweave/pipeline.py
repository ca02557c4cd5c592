"""Stage functions behind the CLI and `run`.

Each stage's core, `stage_<name>`, takes typed values, writes the stage's
artifact files and returns what the next stage needs: the metrics and
motifs stages return the summary.json and census.json documents they
write, which the series stage embeds in report.json. A stage subcommand
first reads its input files into those values with the stage's loader
(`ingest.read_sequences`, `read_network` or a `load_*` function here; all
read CSV through ingest.CsvRows); ingest parses the raw stops and POI
files itself. `run` calls the cores only and hands each one's values to
the next, reading no artifact back, so a manually chained pipeline writes
byte-identical artifacts to it. No artifact embeds wall-clock state.

Each stage imports the modules it uses in its own body, so a subcommand
loads only its stage's modules: `refnet` loads no census code, and an
enumeration census no distance, attribute or metric code.
"""

from __future__ import annotations

import csv
import datetime as dt
import logging
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterator

import numpy as np

from . import __version__, ingest
from .config import RNG_ALGORITHM, RunConfig, read_json
from .errors import ConfigError, InvariantError, SchemaError
from .ingest import EDGE_SEPARATOR, ID_SEPARATOR, write_csv, write_json
from .network import (
    PlaceNetwork,
    day_networks,
    edge_key,
    read_network,
    read_sidecar,
    sidecar_path,
    write_network,
)

logger = logging.getLogger(__name__)


def _ensure_dir(path: str | Path) -> Path:
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    return path


# -- synth --------------------------------------------------------------------


def stage_synth(world_path: str | Path, traffic_path: str | Path, out_dir: str | Path) -> dict:
    from . import synth

    out = _ensure_dir(out_dir)
    world = synth.load_world_spec(world_path)
    traffic = synth.load_traffic_spec(traffic_path)
    catalog = synth.gen_catalog(world)
    stops = synth.gen_device_days(catalog, traffic)
    synth.write_catalog_csv(catalog, out / "pois.csv")
    synth.write_stops_csv(stops, out / "stops.csv")
    meta = {
        "n_pois": len(catalog),
        "n_stops": len(stops),
        "n_device_days": traffic.n_device_days,
        "world_seed": world.seed,
        "traffic_seed": traffic.seed,
        "rng": RNG_ALGORITHM,
    }
    write_json(meta, out / "synth_meta.json")
    return meta


# -- ingest -------------------------------------------------------------------


def stage_ingest(
    stops_path: str | Path,
    pois_path: str | Path,
    min_dwell: int,
    utc_offset: float,
    out_dir: str | Path,
) -> tuple[ingest.PoiCatalog, ingest.SequenceTable]:
    """Parse the raw inputs and write sequences.csv; returns (catalog, sequences)."""
    out = _ensure_dir(out_dir)
    catalog = ingest.load_poi_catalog(pois_path)
    stops = ingest.parse_stops(stops_path)
    rows_read = len(stops)
    visits, dropped = ingest.filter_cataloged(ingest.filter_visits(stops, min_dwell), catalog)
    del stops  # each step's table is freed once the next exists
    visits_kept = len(visits)
    sequences = ingest.build_stay_sequences(visits, utc_offset)
    del visits
    ingest.write_sequences(sequences, out / "sequences.csv")
    meta = {
        "rows_read": rows_read,
        "visits_kept": visits_kept,
        "dropped_unknown_poi": dropped,
        "sequences": len(sequences),
        "min_dwell": min_dwell,
        "utc_offset": utc_offset,
    }
    write_json(meta, out / "ingest_meta.json")
    return catalog, sequences


# -- network ------------------------------------------------------------------


def stage_network(sequences: ingest.SequenceTable, mode: str, out_dir: str | Path) -> PlaceNetwork:
    """Write each local date's network and the merged one (day_networks); returns the latter."""
    if not len(sequences):
        raise SchemaError("no stay sequences to build networks from")
    out = _ensure_dir(out_dir)
    daily_dir = _ensure_dir(out / "daily")
    daily, merged = day_networks(sequences, mode)
    for days, net in enumerate(daily, 1):  # sequences give at least one day
        write_network(net, daily_dir / f"{net.label}.csv")
    write_network(merged, out / "merged.csv", extra_meta={"days": days})
    return merged


# -- metrics ------------------------------------------------------------------


def stage_metrics(net: PlaceNetwork, out_dir: str | Path) -> dict:
    """Write summary.json, degree_hist.csv and fit.json; returns summary.json's document."""
    from . import metrics

    if not net.n_edges:
        raise SchemaError(f"network {net.label!r} has no edges; its degree metrics are undefined")
    out = _ensure_dir(out_dir)
    summary = metrics.network_summary(net)
    write_json(summary, out / "summary.json")
    hist = metrics.degree_distribution(net)
    write_csv(out / "degree_hist.csv", ("k", "count", "pdf", "ccdf"), hist.curve())
    try:
        fit = metrics.fit_power_law(hist)
        fit_doc = {
            "exponent": fit.exponent,
            "xmin": fit.xmin,
            "ks_distance": fit.ks_distance,
        }
    except ValueError as exc:
        logger.warning("power-law fit skipped: %s", exc)
        fit_doc = None
    pmf = metrics.poisson_reference(summary["average_degree"], hist.support())
    write_json(
        {
            "power_law": fit_doc,
            "poisson": {"lambda": summary["average_degree"], "pmf": [[k, p] for k, p in pmf]},
        },
        out / "fit.json",
    )
    return summary


# -- refnet -------------------------------------------------------------------


def stage_refnet(kind: str, n: int, avg_degree: float, seed: int, out_file: str | Path) -> None:
    from . import refnets

    spec = refnets.RefNetSpec(kind=kind, n=n, target_average_degree=avg_degree, seed=seed)
    net = refnets.generate(spec)
    out_file = Path(out_file)
    _ensure_dir(out_file.parent)
    write_network(
        net,
        out_file,
        extra_meta={
            "rng": RNG_ALGORITHM,
            "seed": seed,
            "kind": kind,
            "target_average_degree": avg_degree,
        },
    )


# -- motif census -------------------------------------------------------------


INSTANCES_COLUMNS = ("local_date", "motif_class", "nodes", "edges", "device_count")


def write_instances_csv(rows: motifs.InstanceRows, path: str | Path) -> None:
    """One line per row, in the table's order: local_date, motif_class,
    nodes ('|'-joined), edges (';'-joined 'a|b' pairs) and device_count,
    written a day at a time: the day's table rows, then its OTHER rows.

    The lines are tokens over one vocabulary (ingest.write_tokens). A table
    row is 19 tokens: its date and class, four node slots ('name|', the last
    'name,'), six edge slots of two tokens ('a|' then 'b;', the last 'b,'),
    "" in each absent slot, and its count ('7\n'). An OTHER row is one
    whole-line token.
    """
    from . import motifs

    pois, n, table = rows.pois, len(rows.pois), rows.table
    days = rows.days()
    dates = [ingest.day_date(day).isoformat() + "," for day in days]
    counts, count = ingest.int_tokens(table.count, "\n")
    date_of = dict(zip(days, dates))
    other = [
        date_of[day] + ",".join((
            motifs.MotifClass.OTHER.value, ID_SEPARATOR.join(names),
            EDGE_SEPARATOR.join(map(ID_SEPARATOR.join, pairs)), str(c),
        )) + "\n"
        for day, names, pairs, c in rows.other
    ]
    other_days = np.array([row[0] for row in rows.other], dtype=np.int64)
    vocab = [
        *(p + ID_SEPARATOR for p in pois), *(p + "," for p in pois),
        *(p + EDGE_SEPARATOR for p in pois),
        "", *(f"{cls}," for cls in motifs.INDEX_CLASS), *dates, *counts, *other,
    ]
    empty = 3 * n
    first_class = empty + 1
    first_date = first_class + len(motifs.INDEX_CLASS)
    first_count = first_date + len(dates)
    first_other = first_count + len(counts)

    def table_tokens(lo: int, hi: int, date: int) -> np.ndarray:
        block = table.take(slice(lo, hi))
        nodes = block.nodes.astype(np.int64)
        last_node = (nodes >= 0).sum(axis=1, keepdims=True) - 1
        slot = np.arange(4)
        node = np.where(slot < last_node, nodes, np.where(slot == last_node, n + nodes, empty))
        has, a, b = block.edges()
        last_edge = np.where(has, np.arange(has.shape[1]), -1).max(axis=1, keepdims=True)
        end = np.where(np.arange(has.shape[1]) == last_edge, n, 2 * n)
        edge = np.stack([np.where(has, a, empty), np.where(has, end + b, empty)], axis=2)
        return np.column_stack((
            np.full(hi - lo, date), first_class + block.cls.astype(np.int64), node,
            edge.reshape(hi - lo, -1), first_count + count[lo:hi],
        )).astype(np.int32).ravel()

    def blocks() -> Iterator[np.ndarray]:
        for i, day in enumerate(days):
            lo, hi = np.searchsorted(rows.day, [day, day + 1]).tolist()
            for start in range(lo, hi, ingest.TOKEN_ROWS):
                yield table_tokens(start, min(start + ingest.TOKEN_ROWS, hi), first_date + i)
            lo, hi = np.searchsorted(other_days, [day, day + 1]).tolist()
            yield np.arange(first_other + lo, first_other + hi, dtype=np.int32)

    ingest.write_tokens(path, INSTANCES_COLUMNS, vocab, blocks())


def read_instances_csv(path: str | Path) -> motifs.InstanceRows:
    """The instance table of an instances.csv file, read as write_instances_csv writes it.

    Each row must name its nodes, each once, edges between two distinct of
    them, each pair once, a device_count in [1, 2**63 - 1] and the class its
    graph has; a row that does not raises RowError naming the file and line.
    The counts must total at most 2**63 - 1, so that every int64 sum of them
    is exact.
    """
    from . import motifs

    rows: list[tuple[int, int, list[str], int, int]] = []
    other: list[motifs.OtherRow] = []
    total = 0
    with ingest.CsvRows(
        path, INSTANCES_COLUMNS, "instances", exact=True, quoting=csv.QUOTE_NONE
    ) as lines:
        for line, (local_date, motif_class, node_field, edge_field, device_count) in lines:
            try:
                day = (dt.date.fromisoformat(local_date) - ingest.EPOCH).days
                listed = node_field.split(ID_SEPARATOR)
                pairs = (pair.split(ID_SEPARATOR) for pair in edge_field.split(EDGE_SEPARATOR))
                edges = [(a, b) for a, b in pairs]
                count = int(device_count)
            except ValueError as exc:
                raise lines.error(line, f"bad instance row: {exc}") from None
            names = sorted(set(listed))
            if len(names) < len(listed):
                repeated = next(v for i, v in enumerate(listed) if v in listed[:i])
                raise lines.error(line, f"node {repeated} is listed twice")
            slot = {v: i for i, v in enumerate(names)}
            seen = set()
            for a, b in edges:
                if a == b or a not in slot or b not in slot:
                    problem = "is a self-loop" if a == b else "has an endpoint outside nodes"
                    raise lines.error(line, f"edge {a}|{b} {problem}")
                key = edge_key(a, b)
                if key in seen:
                    raise lines.error(line, f"edge {a}|{b} is listed twice")
                seen.add(key)
            if count < 1:
                raise lines.error(line, f"device_count {count} is below 1")
            if count > ingest.INT64.max:
                raise lines.error(line, f"device_count {count} exceeds 2**63 - 1")
            total += count
            cls, mask = motifs.OTHER, 0
            if len(names) <= 4:
                mask = sum(int(motifs.PAIR_BIT[slot[a], slot[b]]) for a, b in edges)
                cls = int(motifs.MASK_CLASS[len(names), mask])
            if motifs.INDEX_CLASS[cls].value != motif_class:
                problem = f"row classifies as {motifs.INDEX_CLASS[cls]} but claims {motif_class}"
                raise lines.error(line, problem)
            if cls == motifs.OTHER:
                pairs = tuple(sorted(seen))
                other.append((day, tuple(names), pairs, count))
            else:
                rows.append((day, cls, names, mask, count))
    if total > ingest.INT64.max:
        raise SchemaError(f"instances {path}: device counts total {total}, more than 2**63 - 1")
    pois, code = ingest._intern([v for _, _, names, _, _ in rows for v in names])
    nodes = np.full((len(rows), 4), -1, dtype=np.int32)  # -1 in each slot past the nodes
    nodes[np.arange(4) < np.array([len(names) for _, _, names, _, _ in rows])[:, None]] = code
    columns = np.array([(d, c, m, n) for d, c, _, m, n in rows], dtype=np.int64).reshape(-1, 4)
    day, cls, mask, count = columns.T
    return motifs.InstanceRows.tally(pois, day, cls, nodes, mask, count, other)


def write_census_csv(doc: dict, path: str | Path, min_count: int) -> None:
    """census.json's document as CSV: a GLOBAL row of its totals, then each class
    row whose motif_count is at least min_count."""
    columns = ("class", "motif_count", "device_count", "flow_count", "percentage",
               "avg_distance_km")
    rows = [["GLOBAL", *(doc["totals"][c] for c in columns[1:4]), None, None]]
    rows += [[row[c] for c in columns] for row in doc["classes"] if row["motif_count"] >= min_count]
    write_csv(path, columns, rows)


@dataclass
class InstanceTable:
    """Motif-instance rows and the POI catalog.

    distances and keys, one entry per instance in rows.instances, are
    computed on first use and then shared, as is each weighting's
    whole-period distance table, so each is computed once per run.
    """

    rows: motifs.InstanceRows
    catalog: ingest.PoiCatalog
    _distance_tables: dict[str, dict] = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def distances(self) -> np.ndarray:
        from . import stats

        return stats.instance_distances(self.rows, self.catalog)

    @cached_property
    def keys(self) -> np.ndarray:
        from . import attributes

        return attributes.canonical_keys(self.rows, self.catalog)

    def distance_table(self, weighting: str) -> dict:
        """The whole-period per-class distance table under one weighting."""
        from . import stats

        if weighting not in self._distance_tables:
            self._distance_tables[weighting] = stats.class_avg_distance(
                self.rows.instances, self.distances, weighting
            )
        return self._distance_tables[weighting]


def load_instance_table(instances_path: str | Path, pois_path: str | Path) -> InstanceTable:
    rows = read_instances_csv(instances_path)
    if not len(rows):
        raise SchemaError(f"no instances in {instances_path}")
    return InstanceTable(rows, ingest.load_poi_catalog(pois_path))


def load_motifs_inputs(
    mode: str,
    network_path: str | Path | None = None,
    sequences_path: str | Path | None = None,
    pois_path: str | Path | None = None,
) -> dict:
    """stage_motifs keyword arguments from the motifs subcommand's files.

    Only an enumeration census reads the network, and the flow check its sidecar:
    a consecutive-mode total weight other than the sequences' step count is a SchemaError.
    """
    meta = read_sidecar(network_path) if network_path and sequences_path else {}
    sequences = ingest.read_sequences(sequences_path) if sequences_path else None
    flow_weight = meta["total_weight"] if meta.get("mode") == "consecutive" else None
    if flow_weight is not None and flow_weight != (steps := len(sequences.stays) - len(sequences)):
        raise SchemaError(f"network sidecar {sidecar_path(network_path)}: total_weight "
                          f"{flow_weight} is not the {steps} walk steps of {sequences_path}")
    return {
        "sequences": sequences,
        "catalog": ingest.load_poi_catalog(pois_path) if pois_path else None,
        "network": read_network(network_path) if network_path and mode == "enumerate" else None,
        "flow_weight": flow_weight,
    }


def stage_motifs(
    out_dir: str | Path,
    mode: str,
    sequences: ingest.SequenceTable | None = None,
    catalog: ingest.PoiCatalog | None = None,
    network: PlaceNetwork | None = None,
    flow_weight: int | None = None,
    min_count: int = 1,
    weighting: str = "devices",
) -> tuple[dict, InstanceTable | None]:
    """Write the census; returns census.json's document and, given sequences
    and a catalog, their instance table.

    flow_weight is the total weight of the consecutive-mode network built
    from the same sequences: one unit per walk step, so it must equal the
    census's flow count (InvariantError otherwise).
    """
    from . import motifs

    if mode == "trajectory":
        if sequences is None:
            raise SchemaError("trajectory census requires --sequences")
        if not len(sequences):
            raise SchemaError("no stay sequences to census")
    elif mode == "enumerate":
        if network is None:
            raise SchemaError("enumeration census requires --network")
        if not network.n_edges:
            raise SchemaError(f"network {network.label!r} has no edges to census")
    else:
        raise SchemaError(f"unknown census mode {mode!r}")
    out = _ensure_dir(out_dir)
    instances: InstanceTable | None = None
    if sequences is not None:
        traj = motifs.classify_trajectories(sequences)
        write_instances_csv(traj.rows, out / "instances.csv")
        if flow_weight is not None and flow_weight != traj.total_flows:
            raise InvariantError(
                f"trajectory census counts {traj.total_flows} flows but the consecutive-mode "
                f"network built from the same sequences has total weight {flow_weight}"
            )
        if catalog is not None:
            instances = InstanceTable(traj.rows, catalog)

    if mode == "trajectory":
        doc = traj.document(None if instances is None else instances.distance_table(weighting))
    else:
        counts = motifs.enumeration_census(network)
        doc = motifs.census_document(mode, counts, sum(counts.values()))
    doc["min_count"] = min_count
    write_census_csv(doc, out / "census.csv", min_count)
    write_json(doc, out / "census.json")
    return doc, instances


# -- attributed ---------------------------------------------------------------


def stage_attributed(instances: InstanceTable, top_k: int, out_dir: str | Path) -> None:
    from . import attributes

    out = _ensure_dir(out_dir)
    ranked = attributes.attributed_census(instances.rows, instances.keys, top_k=top_k)
    columns = ("class", "labels", "label_names", "device_count", "share", "same_category")
    write_csv(out / "attributed_census.csv", columns, [[row[c] for c in columns] for row in ranked])
    tally, unresolved = attributes.endpoint_counts(instances.rows, instances.catalog)
    for digits in (2, 4):
        ranked_cats = attributes.category_frequency(tally, instances.catalog, digits=digits)
        rows = ((rank, *pair) for rank, pair in enumerate(ranked_cats, start=1))
        write_csv(out / f"category_freq_{digits}digit.csv", ("rank", "label", "share"), rows)
    write_json({"top_k": top_k, "unresolved_endpoints": unresolved}, out / "attributed_meta.json")


# -- series and report --------------------------------------------------------


# Rows of attributed_distance.csv: the attributed keys of the longest distances.
TOP_DISTANCE = 20


def _write_series_csv(series, path: Path) -> None:
    rows = ((point.date.isoformat(), point.value, point.day_type) for point in series)
    write_csv(path, ("date", "value", "day_type"), rows)


def _read_report_part(path: str | Path, part: str) -> dict:
    """The JSON object at path, checked against the report schema's part of that name."""
    from . import stats

    doc = read_json(path, part)
    problem = stats._schema_problem(doc, stats.REPORT_SCHEMA["properties"][part], part)
    if problem:
        raise SchemaError(f"{part} {path} does not fit the report: {problem}")
    return doc


def load_series_inputs(
    census_dir: str | Path,
    pois_path: str | Path,
    out_dir: str | Path,
    summary_path: str | Path | None = None,
) -> tuple[InstanceTable, dict, dict]:
    """The instance table, census document and summary document; the
    summary defaults to the metrics stage's next to out_dir. Each document
    must fit its part of stats.REPORT_SCHEMA (SchemaError otherwise)."""
    census_dir = Path(census_dir)
    instances = load_instance_table(census_dir / "instances.csv", pois_path)
    census_doc = _read_report_part(census_dir / "census.json", "census")
    if summary_path is None:
        summary_path = Path(out_dir).parent / "metrics" / "summary.json"
    return instances, census_doc, _read_report_part(summary_path, "summary")


def stage_series(
    instances: InstanceTable,
    census_doc: dict,
    summary_doc: dict,
    out_dir: str | Path,
    config: RunConfig,
    window: int = 7,
) -> dict:
    from . import attributes, motifs, stats

    if window < 1:
        raise ConfigError(f"window must be at least 1, got {window}")
    out = _ensure_dir(out_dir)
    weighting = config.distance_weighting
    rows, distances = instances.rows, instances.distances

    series_files: list[str] = []
    if len(rows.days()) >= 2:
        counts, dists = stats.daily_census_series(rows, distances, weighting)
        for cls in motifs.CLASS_ORDER:
            count_series = counts[cls]
            name = f"counts_{cls.value}.csv"
            _write_series_csv(count_series, out / name)
            series_files.append(name)
            if len(count_series) >= 2:
                name = f"pctchange_{cls.value}.csv"
                _write_series_csv(stats.pct_change_series(count_series), out / name)
                series_files.append(name)
            if len(count_series) >= window:
                name = f"movavg_{cls.value}.csv"
                _write_series_csv(stats.moving_average(count_series, window), out / name)
                series_files.append(name)
            if dists[cls]:
                name = f"distances_{cls.value}.csv"
                _write_series_csv(dists[cls], out / name)
                series_files.append(name)
    else:
        logger.warning("fewer than 2 days of instances; daily series skipped")

    # Whole-period distance tables.
    table = instances.distance_table(weighting)
    classes = [{"class": cls.value, **table[cls]} for cls in motifs.CLASS_ORDER if cls in table]
    write_csv(out / "distance_table.csv", ("class", "split", "km"), [
        (row["class"], split.removesuffix("_km"), row[split])
        for row in classes for split in stats.SPLITS
    ])
    # per attributed key, its instances in instance order
    by_key = np.argsort(instances.keys, kind="stable")
    attr_table = stats.class_avg_distance(
        rows.instances.take(by_key), distances[by_key], weighting, groups=instances.keys[by_key]
    )
    top_rows = sorted(
        ((attributes.attributed_key(key), row) for key, row in attr_table.items()),
        key=lambda kv: (-(kv[1]["total_km"] or 0.0), kv[0].motif_class.value, kv[0].labels),
    )[:TOP_DISTANCE]
    write_csv(out / "attributed_distance.csv", ("class", "labels", *stats.SPLITS), [
        (key.motif_class.value, key.label_field, *(row[s] for s in stats.SPLITS))
        for key, row in top_rows
    ])

    report = stats.build_report(
        summary=summary_doc,
        census=census_doc,
        distances={"weighting": weighting, "classes": classes},
        series_files=series_files,
        config=config.analysis_dict(),
        tool_version=__version__,
    )
    write_json(report, out / "report.json")
    return report


# -- full run -----------------------------------------------------------------


def run_pipeline(config: RunConfig) -> Path:
    """Execute ingest through series under config.out; returns the report path.

    manifest.json lists every completed stage with its paths; when a stage
    raises, its entry names the stage and the error class and message, and
    the manifest status is "partial".
    """
    config.validate()
    if not (config.stops and config.pois and config.out):
        raise SchemaError("run requires stops, pois and out paths")
    out = _ensure_dir(config.out)
    manifest: list[dict] = []

    @contextmanager
    def step(stage: str, *paths: str):
        try:
            yield
        except Exception as exc:
            manifest.append(
                {"stage": stage, "status": "failed", "error": type(exc).__name__, "message": str(exc)}
            )
            write_json({"artifacts": manifest, "status": "partial"}, out / "manifest.json")
            raise
        manifest.append({"stage": stage, "status": "complete", "paths": sorted(paths)})

    with step("ingest", "ingest/sequences.csv", "ingest/ingest_meta.json"):
        catalog, sequences = stage_ingest(
            config.stops, config.pois, config.min_dwell, config.utc_offset, out / "ingest"
        )

    with step("network", "networks/merged.csv", "networks/daily"):
        merged = stage_network(sequences, config.network_mode, out / "networks")

    with step("metrics", "metrics/summary.json", "metrics/degree_hist.csv", "metrics/fit.json"):
        summary = stage_metrics(merged, out / "metrics")

    # unless it enumerates, the motifs stage needs only the network's flow weight:
    # free the network before it runs
    flow_weight = merged.total_weight if merged.mode == "consecutive" else None
    network = merged if config.census_mode == "enumerate" else None
    del merged
    with step("motifs", "census/census.csv", "census/census.json", "census/instances.csv"):
        census_doc, instances = stage_motifs(
            out / "census",
            mode=config.census_mode,
            sequences=sequences,
            catalog=catalog,
            network=network,
            flow_weight=flow_weight,
            weighting=config.distance_weighting,
        )
    del sequences, network  # no later stage reads them

    with step("attributed", "attributed/attributed_census.csv"):
        stage_attributed(instances, config.top_k, out / "attributed")

    with step("series", "series/report.json", "series/distance_table.csv"):
        report = stage_series(instances, census_doc, summary, out / "series", config)

    report_path = out / "report.json"
    with step("report", "report.json"):
        write_json(report, report_path)
    write_json({"artifacts": manifest, "status": "complete"}, out / "manifest.json")
    return report_path
