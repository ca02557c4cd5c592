#!/usr/bin/env python3
"""placeweave benchmark: the command line end to end on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. Every job is one ``placeweave`` CLI command
in a fresh interpreter that imports the package from ``src``. Jobs run one at
a time with ``--threads 2``: a closed loop with one client. The benchmark
generates the inputs from ``--seed`` (the set-up, timed as ``setup_s``), runs
jobs for ``--seconds``, and checks every job's outputs. With ``--trace 1`` it
then runs the set-up and one job again under ``tracer.py``, which times the
public functions of each module from outside, and reports the per-layer
metrics instead of the end-to-end ones.

The last line of standard output is the result as JSON. The line before it is
the detail: host facts, sample counts, the tail percentile, output digests,
the checks that failed, and in a traced run the engine, the absent targets
and the self time of every span. ``perfbench/README.md`` describes the
workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402

THREADS = 2
SETUPS = 3  # set-ups per invocation; setup_s is their median
MIN_JOBS = 2  # so that every invocation compares two jobs' output trees
BUDGET_S = 170.0  # every child is killed once the invocation has run this long
CHILD = "import sys; sys.path.insert(0, sys.argv.pop(1)); from placeweave.cli import main; sys.exit(main(sys.argv[1:]))"
STAGES = ("ingest", "network", "metrics", "motifs", "attributed", "series")
ENGINE_PROBES = {"_fastcount.census_counts": "numba", "motifs.iter_induced_instances": "python"}
SPECIAL_LAYER_METRICS = {
    "package.import_s",
    "trace.overhead_s",
    "trace.unattributed_s",
    "stats.distance_useful_ratio",
    "motifs.classify_useful_ratio",
    "motifs.subgraphs_per_s",
}
SETUP_LAYER_METRICS = {"synth.gen_device_days_s", "refnets.gen_scale_free_network_s"}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


# -- workloads ------------------------------------------------------------------


class Workload:
    census_file = "census.json"  # where the job writes census.json, under --out

    def census(self, out: Path) -> dict:
        return _read_json(out / self.census_file)

    def instances(self, out: Path) -> int:
        """Distinct motif instances (or subgraphs) in the job's census."""
        return self.census(out)["totals"]["motif_count"]


class Trajectory(Workload):
    """Synthetic stays (``synth``) through the full pipeline (``run``)."""

    census_file = "census/census.json"

    def __init__(self, world: dict, traffic: dict):
        self.world = world
        self.traffic = traffic

    def write_inputs(self, work: Path, seed: int) -> None:
        world = dict(self.world, seed=self.world["seed"] + seed)
        traffic = dict(self.traffic, seed=self.traffic["seed"] + seed)
        (work / "world.json").write_text(json.dumps(world), encoding="utf-8")
        (work / "traffic.json").write_text(json.dumps(traffic), encoding="utf-8")

    def setup_args(self, out: str, seed: int) -> list[str]:
        return ["synth", "--world", "world.json", "--traffic", "traffic.json", "--out", out]

    def job_args(self, inputs: str, out: str) -> list[str]:
        return [
            "run", "--stops", f"{inputs}/stops.csv", "--pois", f"{inputs}/pois.csv",
            "--out", out, "--threads", str(THREADS),
        ]

    def expected(self, work: Path, inputs: Path) -> dict:
        """Planted per-class device-day counts, from the program's own generator."""
        from placeweave import synth

        world = synth.load_world_spec(work / "world.json")
        traffic = synth.load_traffic_spec(work / "traffic.json")
        plan = synth.gen_traffic_plan(synth.gen_catalog(world), traffic)
        return {"planted": Counter(p.motif_class.value for p in plan)}

    def check(self, out: Path, expected: dict) -> list[str]:
        census = self.census(out)
        found = {row["class"]: row["device_count"] for row in census["classes"]}
        planted = expected["planted"]
        return [
            f"{cls}: device_count {found.get(cls)} != planted {planted.get(cls, 0)}"
            for cls in sorted(set(found) | set(planted))
            if found.get(cls) != planted.get(cls, 0)
        ]

    def items(self, out: Path) -> int:
        return self.traffic["n_device_days"]

    def classified(self, out: Path) -> int:
        """Distinct instances that need a classification: all of them."""
        return self.instances(out)

    def merged_edges(self, out: Path) -> int:
        return _read_json(out / "metrics" / "summary.json")["edges"]


class Enumerate(Workload):
    """A scale-free reference network (``refnet``) through the exact census.

    The workload seed adds ``seed % 16`` nodes to the network, generated from
    one fixed generator seed. Preferential attachment grows one random stream
    node by node, so every workload seed gives a different network that holds
    the seed-0 network, and the census work stays within a few percent. A new
    generator seed per workload seed would move the 4-node census by 15 % or
    more, because the few largest hubs dominate it.
    """

    def __init__(self, n: int, avg_degree: int, seed: int):
        self.n = n
        self.avg_degree = avg_degree
        self.seed = seed

    def write_inputs(self, work: Path, seed: int) -> None:
        pass

    def setup_args(self, out: str, seed: int) -> list[str]:
        return [
            "refnet", "--kind", "scale-free", "--n", str(self.n + seed % 16),
            "--avg-degree", str(self.avg_degree), "--seed", str(self.seed),
            "--out", f"{out}/network.csv",
        ]

    def job_args(self, inputs: str, out: str) -> list[str]:
        return [
            "motifs", "--mode", "enumerate", "--network", f"{inputs}/network.csv",
            "--out", out, "--threads", str(THREADS),
        ]

    def expected(self, work: Path, inputs: Path) -> dict:
        with open(inputs / "network.csv", encoding="utf-8") as fh:
            edges = sum(1 for line in fh if line.strip()) - 1
        return {"edges": edges}

    def check(self, out: Path, expected: dict) -> list[str]:
        census = self.census(out)
        counts = {row["class"]: row["motif_count"] for row in census["classes"]}
        problems = []
        if counts.get("M2_1") != expected["edges"]:
            problems.append(f"M2_1 {counts.get('M2_1')} != {expected['edges']} edges")
        if sum(counts.values()) != census["totals"]["motif_count"]:
            problems.append("class counts do not sum to the GLOBAL count")
        pinned = expected.get("census")
        if pinned is not None:
            counts["GLOBAL"] = census["totals"]["motif_count"]
            problems += [
                f"{cls}: {counts.get(cls)} != pinned {want}"
                for cls, want in sorted(pinned.items())
                if counts.get(cls) != want
            ]
        return problems

    def items(self, out: Path) -> int:
        return self.instances(out)

    def classified(self, out: Path) -> int:
        """Subgraphs that need a classification: those of three or four nodes."""
        census = self.census(out)
        edges = {row["class"]: row["motif_count"] for row in census["classes"]}["M2_1"]
        return census["totals"]["motif_count"] - edges

    def merged_edges(self, out: Path) -> int:
        return 0


README_CLASS_MIX = {
    "M2_1": 0.2, "M3_1": 0.1, "M3_2": 0.1, "M4_1": 0.1, "M4_2": 0.1,
    "M4_3": 0.1, "M4_4": 0.1, "M4_5": 0.1, "M4_6": 0.1,
}

# One readme job takes about 7 s on a 2-core host, so that one invocation,
# three set-ups included, takes about 40 s. The README world is used
# verbatim; its traffic keeps the README class mix and dates.
WORKLOADS = {
    # Dense merged network (500 POIs, about 50k edges): clustering is a large share.
    "readme": Trajectory(
        world={"n_pois": 500, "bbox": [29.5, 30.0, -95.8, -95.2],
               "category_shares": {"7": 0.4, "18": 0.3, "16": 0.3}, "seed": 1},
        traffic={"n_device_days": 20000, "class_mix": README_CLASS_MIX,
                 "date_range": ["2020-02-01", "2020-02-28"], "seed": 2},
    ),
    # The only workload that enters exact enumeration (1.45M subgraphs at seed 0).
    "enumerate_ba": Enumerate(n=1200, avg_degree=6, seed=5),
}


# -- processes and files ----------------------------------------------------------


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return self.end - time.monotonic()


def spawn(cmd: list[str], cwd: Path, log: Path, deadline: Deadline) -> dict:
    """Run one child to completion; wall from spawn to exit, usage from wait4."""
    if deadline.left() <= 0:
        raise BenchError("time budget spent before the next child could start")
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(deadline.left(), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    return {
        "rc": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "log": log,
    }


def _read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def tree_digest(root: Path) -> str:
    """sha256 over every file's relative path and bytes, in sorted order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def log_tail(log: Path, lines: int = 5) -> str:
    text = log.read_text(encoding="utf-8", errors="replace").splitlines()
    return " | ".join(text[-lines:])


# -- host facts -------------------------------------------------------------------


def resolve_engine() -> str:
    """Which engine enumerate_induced(engine="auto") runs, seen from its calls."""
    from placeweave import motifs, refnets

    net = refnets.generate(refnets.RefNetSpec(kind="scale_free", n=12, target_average_degree=4, seed=0))
    tracer = Tracer()
    tracer.install([], list(ENGINE_PROBES))
    try:
        motifs.enumerate_induced(net, 4)
    finally:
        tracer.restore()
    return engine_label(tracer.call_counts())


def engine_label(counts: dict) -> str:
    ran = [label for target, label in ENGINE_PROBES.items() if counts.get(target)]
    return "+".join(ran) or "none"


def host_facts() -> dict:
    import numpy
    import scipy

    try:
        import numba

        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    try:
        engine = resolve_engine()
    except Exception as exc:  # the probe must not hide the measured result
        engine = f"unknown ({type(exc).__name__}: {exc})"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "ram_gb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": numba_version,
        "enumerate_auto_engine": engine,
    }


# -- per-layer metrics from a trace ---------------------------------------------------


def span_table(trace: dict) -> dict:
    """Per span name: calls, inclusive time (outermost spans only) and self time."""
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    table: dict[str, dict] = {}
    for i, (name, parent, start, end, rss_kb) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0, "rss_mb": 0.0})
        row["calls"] += 1
        row["self_s"] += (end - start) - child_time[i]
        row["rss_mb"] = max(row["rss_mb"], rss_kb / 1024.0)
        ancestor = parent
        while ancestor is not None and spans[ancestor][0] != name:
            ancestor = spans[ancestor][1]
        if ancestor is None:
            row["inclusive_s"] += end - start
    return table


def tracer_targets(layer_names: list[str]) -> tuple[list[str], list[str]]:
    spans, counts = [], list(ENGINE_PROBES)
    for name in layer_names:
        if name in SPECIAL_LAYER_METRICS:
            continue
        if name.endswith("_rss_mb"):
            spans.append(name[: -len("_rss_mb")])
        elif name.endswith("_s"):
            spans.append(name[: -len("_s")])
    for name in layer_names:
        base = name[: -len(".calls")] if name.endswith(".calls") else None
        if base and base not in spans:
            counts.append(base)
    return sorted(set(spans)), sorted(set(counts))


def layer_metrics(
    names: list[str], setup_trace: dict, job_trace: dict, workload, out: Path,
    untraced_wall: float, traced_wall: float,
) -> dict:
    """Per-layer metrics of the traced job; set-up functions from the traced set-up."""
    job, setup = span_table(job_trace), span_table(setup_trace)

    def span(target: str, key: str) -> float:
        table = setup if f"{target}_s" in SETUP_LAYER_METRICS else job
        return table[target][key] if target in table else 0

    def calls(target: str) -> int:
        return span(target, "calls") + job_trace["counts"].get(target, 0)

    import_s = job_trace["import_s"]
    stage_s = sum(span(f"pipeline.stage_{stage}", "inclusive_s") for stage in STAGES)
    haversine = calls("stats.haversine_km")
    classify = calls("motifs.classify_graph")
    enumerate_s = span("motifs.enumerate_induced", "inclusive_s")
    special = {
        "package.import_s": import_s,
        "trace.overhead_s": traced_wall - untraced_wall,
        # Spans and wall from the same traced run, so tracing cost cancels.
        "trace.unattributed_s": traced_wall - import_s - stage_s,
        "stats.distance_useful_ratio": workload.merged_edges(out) / haversine if haversine else 0.0,
        "motifs.classify_useful_ratio": workload.classified(out) / classify if classify else 0.0,
        "motifs.subgraphs_per_s": workload.instances(out) / enumerate_s if enumerate_s else 0.0,
    }
    metrics = {}
    for name in names:
        if name in special:
            metrics[name] = special[name]
        elif name.endswith("_rss_mb"):
            metrics[name] = span(name[: -len("_rss_mb")], "rss_mb")
        elif name.endswith(".calls"):
            metrics[name] = calls(name[: -len(".calls")])
        elif name.endswith("_s"):
            metrics[name] = span(name[: -len("_s")], "inclusive_s")
        else:
            raise BenchError(f"no rule derives per-layer metric {name!r}")
    return metrics


# -- the measurement ----------------------------------------------------------------


def tail(values: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    return {"percentile": 100.0 * (len(values) - 10) / len(values), "value": ordered[-11]}


def measure(args, root: Path, work: Path, bench: dict, pins: dict) -> tuple[dict, dict]:
    deadline = Deadline(BUDGET_S)
    src = root / "src"
    workload = WORKLOADS[args.workload]
    seed_pins = pins["digests"].get(args.workload, {}).get(str(args.seed), {})
    problems: list[str] = []
    untraced = [sys.executable, "-c", CHILD, str(src)]

    workload.write_inputs(work, args.seed)
    setups = []
    for k in range(SETUPS):
        run = spawn(untraced + workload.setup_args(f"setup-{k}", args.seed), work, work / f"setup-{k}.log", deadline)
        if run["rc"] != 0:
            raise BenchError(f"set-up exited {run['rc']}: {log_tail(run['log'])}")
        run["digest"] = tree_digest(work / f"setup-{k}")
        setups.append(run)
    setup_digests = {run["digest"] for run in setups}
    if len(setup_digests) != 1:
        problems.append("set-up outputs differ between set-ups")
    if seed_pins.get("setup") and seed_pins["setup"] not in setup_digests:
        problems.append("set-up output differs from the pinned digest")

    sys.path.insert(0, str(src))
    host = host_facts()
    expected = workload.expected(work, work / "setup-0")
    pinned_census = pins["census"].get(args.workload, {}).get(str(args.seed))
    if pinned_census is not None:
        expected["census"] = pinned_census

    def job(cmd: list[str], out: str) -> dict:
        run = spawn(cmd + workload.job_args("setup-0", out), work, work / f"{out}.log", deadline)
        run["problems"] = [] if run["rc"] == 0 else [f"exit {run['rc']}: {log_tail(run['log'])}"]
        if run["rc"] == 0:
            run["digest"] = tree_digest(work / out)
            try:
                run["problems"] += workload.check(work / out, expected)
                run["items"] = workload.items(work / out)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                run["problems"].append(f"unreadable output: {type(exc).__name__}: {exc}")
        return run

    jobs = []
    loop_start = time.perf_counter()
    while len(jobs) < MIN_JOBS or time.perf_counter() - loop_start < args.seconds:
        out = f"out-{len(jobs)}"
        jobs.append(job(untraced, out))
        shutil.rmtree(work / out, ignore_errors=True)

    traced = None
    if args.trace:
        layer_names = [m["name"] for m in bench["per_layer"]]
        span_targets, count_targets = tracer_targets(layer_names)
        traces = []
        for name, kind in (("traced-setup", "setup"), ("traced-out", "job")):
            plan = {"src": str(src), "trace": str(work / f"{name}.trace.json"),
                    "spans": span_targets, "counts": count_targets}
            (work / f"{name}.plan.json").write_text(json.dumps(plan), encoding="utf-8")
            cmd = [sys.executable, str(HERE / "tracer.py"), str(work / f"{name}.plan.json"), "--"]
            if kind == "setup":
                run = spawn(cmd + workload.setup_args(name, args.seed), work, work / f"{name}.log", deadline)
                if run["rc"] != 0 or tree_digest(work / name) not in setup_digests:
                    problems.append("traced set-up failed or changed its output")
            else:
                run = job(cmd, name)
                jobs.append(run)
                if run["problems"]:
                    raise BenchError(f"traced job failed: {'; '.join(run['problems'])}")
            if not (work / f"{name}.trace.json").is_file():
                raise BenchError(f"traced {kind} wrote no trace: {log_tail(run['log'])}")
            traces.append(_read_json(work / f"{name}.trace.json"))
        traced = {"run": run, "traces": traces, "layer_names": layer_names}

    job_digests = [run["digest"] for run in jobs if "digest" in run]
    reference = seed_pins.get("job") or (job_digests[0] if job_digests else None)
    for run in jobs:
        if run.get("digest") not in (None, reference):
            run["problems"].append("output tree differs from " + ("the pinned digest" if seed_pins.get("job") else "the first run"))
    failed = [run for run in jobs if run["problems"]]
    for run in failed:
        problems += run["problems"]
    # A job that exits 0 but fails a check is still timed; the result then
    # reads "correct": false.
    timed = [run for run in jobs if "items" in run and run is not (traced or {}).get("run")]
    if not timed:
        raise BenchError("no job produced a readable output: " + "; ".join(problems[:5]))

    walls = [run["wall_s"] for run in timed]
    wall_median = statistics.median(walls)
    if traced is None:
        metrics = {
            "wall_s": wall_median,
            "cpu_s": statistics.median(run["cpu_s"] for run in timed),
            "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in timed),
            "items_per_s": statistics.median(run["items"] / run["wall_s"] for run in timed),
            "setup_s": statistics.median(run["wall_s"] for run in setups),
        }
        kinds = bench["end_to_end"]
    else:
        metrics = layer_metrics(
            traced["layer_names"], *traced["traces"], workload, work / "traced-out",
            wall_median, traced["run"]["wall_s"],
        )
        kinds = bench["per_layer"]
    if set(metrics) != {m["name"] for m in kinds}:
        raise BenchError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "host": host,
        "closed_loop": {"clients": 1, "threads": THREADS},
        "samples": {"jobs": len(timed), "setups": len(setups)},
        "wall_s": {"median": wall_median, "tail": tail(walls), "all": walls},
        "setup_s": [run["wall_s"] for run in setups],
        "failed_frac": len(failed) / len(jobs),
        "digests": {"setup": sorted(setup_digests), "job": sorted(set(job_digests))},
        "problems": problems,
    }
    if traced is not None:
        detail["engine"] = engine_label(traced["traces"][-1]["counts"])
        detail["absent"] = sorted({name for t in traced["traces"] for name in t["absent"]})
        detail["spans"] = {
            kind: span_table(t) for kind, t in zip(("setup", "job"), traced["traces"])
        }
    result = {
        "correct": not problems,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in kinds},
    }
    return result, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "placeweave" / "cli.py").is_file():
        print("perfbench: run from the repository root; src/placeweave/cli.py not found", file=sys.stderr)
        return 2
    bench = _read_json(root / "BENCHMARK.json")
    pins = _read_json(HERE / "baseline.json")
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result, detail = measure(args, root, work, bench, pins)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another invocation is still using it
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
