"""One million device-days through `synth` and `run`, measured twice.

    python3 bench/one_million.py

Run it from the repository root. It writes the README world and a traffic
spec with the README class mix and dates at 1,000,000 device-days, then
runs `placeweave synth` and `placeweave run --threads 2` as fresh
processes, twice, under `.bench_1m_work/` (made empty at the start and
removed at the end). The processes compile their bytecode into
`.bench_1m_work/pycache`, their PYTHONPYCACHEPREFIX, and run without
PYTHONDONTWRITEBYTECODE: the first pays to compile, the rest reuse it, no
stale bytecode enters, and no `__pycache__` lands in the tree. Wall time
runs from spawn to exit; CPU time and peak RSS come from `os.wait4`. The
result goes to `BENCH_1m.json` at the root: host facts, each step's
measurements, the sha256 of each `synth` and `run --out` tree, whether the
two repetitions produced the same trees, and each bound met or missed.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_1m_work"
CHILD = "import sys; sys.path.insert(0, sys.argv.pop(1)); from placeweave.cli import main; sys.exit(main(sys.argv[1:]))"
THREADS = 2
REPEATS = 2

WORLD = {"n_pois": 500, "bbox": [29.5, 30.0, -95.8, -95.2],
         "category_shares": {"7": 0.4, "18": 0.3, "16": 0.3}, "seed": 1}
TRAFFIC = {
    "n_device_days": 1_000_000,
    "class_mix": {"M2_1": 0.2, "M3_1": 0.1, "M3_2": 0.1, "M4_1": 0.1, "M4_2": 0.1,
                  "M4_3": 0.1, "M4_4": 0.1, "M4_5": 0.1, "M4_6": 0.1},
    "date_range": ["2020-02-01", "2020-02-28"],
    "seed": 2,
}
# wall seconds per step, and peak RSS of any step
BOUNDS = {"synth_wall_s": 60.0, "run_wall_s": 90.0, "peak_rss_mb": 1536.0}


def spawn(args: list[str], cwd: Path = WORK) -> dict:
    """One placeweave CLI process in the work directory cwd to completion,
    its bytecode cached under cwd/pycache; usage from os.wait4."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", CHILD, str(ROOT / "src"), *args], cwd=cwd,
        env={**env, "PYTHONPYCACHEPREFIX": str(cwd / "pycache")},
    )
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    rc = os.waitstatus_to_exitcode(status)
    if rc != 0:
        raise SystemExit(f"placeweave {' '.join(args[:1])} exited {rc}")
    return {
        "wall_s": round(wall, 3),
        "cpu_s": round(usage.ru_utime + usage.ru_stime, 3),
        "peak_rss_mb": round(usage.ru_maxrss / 1024.0, 1),
    }


def tree_digest(root: Path) -> str:
    """sha256 over every file's relative path and bytes, in sorted order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def host_facts() -> dict:
    import numpy

    model = next(
        (line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    facts = {
        "date": dt.date.today().isoformat(),
        "cpu": model,
        "nproc": len(os.sched_getaffinity(0)),
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 1),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    try:  # the program does not need scipy; the tests' oracles do
        import scipy
    except ImportError:
        return facts
    return {**facts, "scipy": scipy.__version__}


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        (WORK / "world.json").write_text(json.dumps(WORLD), encoding="utf-8")
        (WORK / "traffic.json").write_text(json.dumps(TRAFFIC), encoding="utf-8")
        runs = []
        for k in range(REPEATS):
            data, out = f"data{k}", f"out{k}"
            synth = spawn(["synth", "--world", "world.json", "--traffic", "traffic.json",
                           "--out", data])
            run = spawn(["run", "--stops", f"{data}/stops.csv", "--pois", f"{data}/pois.csv",
                         "--out", out, "--threads", str(THREADS)])
            runs.append({
                "synth": synth,
                "run": run,
                "synth_sha256": tree_digest(WORK / data),
                "out_sha256": tree_digest(WORK / out),
            })
            shutil.rmtree(WORK / data)
            shutil.rmtree(WORK / out)
            print(json.dumps(runs[-1]), file=sys.stderr)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    worst = {
        "synth_wall_s": max(r["synth"]["wall_s"] for r in runs),
        "run_wall_s": max(r["run"]["wall_s"] for r in runs),
        "peak_rss_mb": max(r[step]["peak_rss_mb"] for r in runs for step in ("synth", "run")),
    }
    result = {
        "host": host_facts(),
        "world": WORLD,
        "traffic": TRAFFIC,
        "threads": THREADS,
        "runs": runs,
        "reproduced": len({(r["synth_sha256"], r["out_sha256"]) for r in runs}) == 1,
        "bounds": {
            name: {"bound": bound, "worst": worst[name], "met": worst[name] < bound}
            for name, bound in BOUNDS.items()
        },
    }
    (ROOT / "BENCH_1m.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result["bounds"]))
    return 0 if result["reproduced"] else 1


if __name__ == "__main__":
    sys.exit(main())
