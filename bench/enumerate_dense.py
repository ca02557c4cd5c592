"""The enumeration census on the README world's dense networks, as fresh processes.

    python3 bench/enumerate_dense.py

Run it from the repository root. For 50,000 and 200,000 device-days it
writes the README world and a traffic spec with the README class mix and
dates, runs `placeweave synth`, and then `placeweave run` with
`census_mode=enumerate` under each network mode, each step a fresh
process, under `.bench_enumerate_work/` (removed at the end). The merged
networks of this world are dense: 72% of all POI pairs are edges at 50k
device-days under the consecutive mode, 99% at 200k. The processes
compile their bytecode into `.bench_enumerate_work/pycache`, their
PYTHONPYCACHEPREFIX, fresh for the invocation and removed with the work
directory. Wall time runs from spawn to exit; CPU time and peak RSS come
from `os.wait4` (`spawn` of bench/one_million.py). The result goes to
`BENCH_enumerate.json` at the root: host facts, each step's measurements,
each run's `--out` sha256 and M4_1 count, and each bound met or missed. It
exits 1 if a bound is missed.
"""

from __future__ import annotations

import json
import shutil
import sys

from one_million import ROOT, TRAFFIC, WORLD, host_facts, spawn, tree_digest

WORK = ROOT / ".bench_enumerate_work"
DEVICE_DAYS = (50_000, 200_000)
NETWORK_MODES = ("consecutive", "covisitation")
# wall seconds of each run, and peak RSS of any step, as in bench/one_million.py
BOUNDS = {"run_wall_s": 90.0, "peak_rss_mb": 1536.0}


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    sizes = []
    try:
        (WORK / "world.json").write_text(json.dumps(WORLD), encoding="utf-8")
        for device_days in DEVICE_DAYS:
            traffic = {**TRAFFIC, "n_device_days": device_days}
            (WORK / "traffic.json").write_text(json.dumps(traffic), encoding="utf-8")
            synth = spawn(["synth", "--world", "world.json", "--traffic", "traffic.json",
                           "--out", "data"], cwd=WORK)
            runs = {}
            for mode in NETWORK_MODES:
                config = {"network_mode": mode, "census_mode": "enumerate"}
                (WORK / "config.json").write_text(json.dumps(config), encoding="utf-8")
                run = spawn(["run", "--config", "config.json", "--stops", "data/stops.csv",
                             "--pois", "data/pois.csv", "--out", "out"], cwd=WORK)
                census = json.loads((WORK / "out" / "census" / "census.json").read_text())
                runs[mode] = {
                    **run,
                    "out_sha256": tree_digest(WORK / "out"),
                    "M4_1": next(c["motif_count"] for c in census["classes"]
                                 if c["class"] == "M4_1"),
                }
                shutil.rmtree(WORK / "out")
            shutil.rmtree(WORK / "data")
            sizes.append({"n_device_days": device_days, "synth": synth, "run": runs})
            print(json.dumps(sizes[-1]), file=sys.stderr)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    worst = {
        "run_wall_s": max(r["wall_s"] for s in sizes for r in s["run"].values()),
        "peak_rss_mb": max(step["peak_rss_mb"] for s in sizes
                           for step in (s["synth"], *s["run"].values())),
    }
    result = {
        "host": host_facts(),
        "world": WORLD,
        "traffic": {k: v for k, v in TRAFFIC.items() if k != "n_device_days"},
        "sizes": sizes,
        "bounds": {
            name: {"bound": bound, "worst": worst[name], "met": worst[name] < bound}
            for name, bound in BOUNDS.items()
        },
    }
    (ROOT / "BENCH_enumerate.json").write_text(json.dumps(result, indent=2) + "\n",
                                               encoding="utf-8")
    print(json.dumps(result["bounds"]))
    return 0 if all(b["met"] for b in result["bounds"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
