"""Alternating benchmark runs of two checkouts, summarised by the claim rule.

    python3 bench/pairs.py PARENT_DIR CHANGE_DIR --workload W [--pairs 10] [--seed 0]

Each directory is a checkout of the repository. Pair i runs
`perfbench/run.py --workload W --seed S --seconds R` once in each checkout,
the parent first in even pairs and the change first in odd ones, where R is
`run_seconds` of the change's BENCHMARK.json. Every run is a fresh process
started in its checkout's root; the result is the last line of its output.
Each checkout compiles its bytecode into a PYTHONPYCACHEPREFIX directory of
its own, made empty for the session and removed at its end, so both sides
start from no bytecode, pay to compile it once, and no `__pycache__` lands
in either tree.

For each end-to-end metric of the change's BENCHMARK.json the summary gives
each side's median and quartiles (statistics.quantiles, inclusive method),
the change of the median, and the change's wins: the pairs in which it reads
better in the metric's direction, ties counting for neither. A gain may be
claimed when the change wins at least nine tenths of the pairs and the
medians differ, in that direction, by more than the parent's interquartile
range. A pair enters the summary only when both of its runs exited 0, read
"correct": true and had no failed job; the script exits 1 if any run did not.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of at least two values."""
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(parent: list[dict], change: list[dict], metrics: list[dict]) -> list[dict]:
    """One row per metric from the per-pair values of each side.

    parent[i] and change[i] map metric names to the values of pair i; each
    entry of metrics is an end_to_end entry of BENCHMARK.json (name, unit,
    better).
    """
    rows = []
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        before = [run[name] for run in parent]
        after = [run[name] for run in change]
        p_q1, p_median, p_q3 = quartiles(before)
        c_q1, c_median, c_q3 = quartiles(after)
        wins = sum(sign * (a - b) > 0 for a, b in zip(after, before))
        rows.append({
            "name": name,
            "unit": metric["unit"],
            "parent": (p_q1, p_median, p_q3),
            "change": (c_q1, c_median, c_q3),
            "relative": c_median / p_median - 1 if p_median else float("nan"),
            "wins": wins,
            "pairs": len(before),
            "claim": 10 * wins >= 9 * len(before) and sign * (c_median - p_median) > p_q3 - p_q1,
        })
    return rows


def run_once(
    checkout: Path, workload: str, seed: int, seconds: float, pycache: Path
) -> tuple[dict | None, str]:
    """The result line of one benchmark invocation in checkout, its bytecode
    cached under pycache, and '', or None and a problem."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, env={**env, "PYTHONPYCACHEPREFIX": str(pycache)},
        capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"{checkout}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        return None, f"{checkout}: {lines[-1]}"
    return result, ""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    bench = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    sides = {"parent": args.parent, "change": args.change}
    values: dict[str, list[dict]] = {"parent": [], "change": []}
    problems = []
    with tempfile.TemporaryDirectory(prefix="pairs-pycache-") as cache:
        for i in range(args.pairs):
            results = {}
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                results[side], problem = run_once(
                    sides[side], args.workload, args.seed, bench["run_seconds"],
                    Path(cache) / side,
                )
                if problem:
                    problems.append(f"pair {i}: {problem}")
                print(f"pair {i} {side}: {problem or json.dumps(results[side])}",
                      file=sys.stderr, flush=True)
            if all(results.values()):
                for side, result in results.items():
                    values[side].append({k: m["value"] for k, m in result["metrics"].items()})
    if len(values["parent"]) >= 2:
        print(f"{args.workload}: {len(values['parent'])} pairs, seed {args.seed}")
        print("metric        unit  parent q1 / median / q3      change q1 / median / q3"
              "      median  wins   claim")
        for row in summarize(values["parent"], values["change"], bench["end_to_end"]):
            parent, change = ("{:8.4g} {:8.4g} {:8.4g}".format(*row[side])
                              for side in ("parent", "change"))
            print(f"{row['name']:13s} {row['unit']:5s} {parent}   {change}   "
                  f"{row['relative']:+7.1%}  {row['wins']:2d}/{row['pairs']:<2d}  "
                  f"{'yes' if row['claim'] else 'no'}")
    for problem in problems:
        print(f"pairs: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
