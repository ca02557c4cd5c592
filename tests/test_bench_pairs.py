import importlib.util
import json
from pathlib import Path

import pytest

PAIRS = Path(__file__).resolve().parents[1] / "bench" / "pairs.py"
spec = importlib.util.spec_from_file_location("pairs", PAIRS)
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)

METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def runs(name: str, values: list[float]) -> list[dict]:
    return [{name: v} for v in values]


def row(parent: list[float], change: list[float], metric: dict) -> dict:
    name = metric["name"]
    (summary,) = pairs.summarize(runs(name, parent), runs(name, change), [metric])
    return summary


def test_summary_gives_quartiles_medians_and_the_relative_change():
    summary = row([1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 1.0, 1.5, 2.0, 2.5], METRICS[0])
    assert summary["parent"] == (2.0, 3.0, 4.0)
    assert summary["change"] == (1.0, 1.5, 2.0)
    assert summary["relative"] == pytest.approx(-0.5)
    assert (summary["name"], summary["unit"], summary["pairs"]) == ("wall_s", "s", 5)


@pytest.mark.parametrize(
    "parent, change, metric, wins, claim",
    [
        # lower is better: ten wins and a gap of 1.0 past an IQR of 0.045
        ([1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09],
         [0.00, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09], 0, 10, True),
        # nine wins of ten still claim; the loss is the pair where the change is slower
        ([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
         [0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 1.5], 0, 9, True),
        # eight wins and two ties: no claim however large the gap
        ([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
         [0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 1.0, 1.0], 0, 8, False),
        # every pair won, but the medians (1.0 and 0.95) lie within the parent's IQR of 0.075
        ([0.9, 0.95, 1.0, 1.0, 1.05, 1.1], [0.85, 0.9, 0.95, 0.95, 1.0, 1.05], 0, 6, False),
        # higher is better: a faster rate wins, a lower median is no claim
        ([10, 11, 12, 13], [20, 21, 22, 23], 1, 4, True),
        ([10, 11, 12, 13], [5, 6, 7, 8], 1, 0, False),
    ],
)
def test_summary_counts_wins_in_the_metric_direction_and_applies_the_claim_rule(
    parent, change, metric, wins, claim
):
    summary = row(parent, change, METRICS[metric])
    assert (summary["wins"], summary["claim"]) == (wins, claim)


# Logs, to runs.log at the checkout root, the bytecode cache prefix it runs under and
# whether helper.py's bytecode was already cached there, then imports helper.
RUN_PY = """\
import json, os, sys
from importlib.util import cache_from_source
here = os.path.dirname(os.path.abspath(__file__))
cached = os.path.exists(cache_from_source(os.path.join(here, "helper.py")))
import helper
with open(os.path.join(here, os.pardir, "runs.log"), "a") as log:
    log.write(json.dumps([sys.pycache_prefix, cached]) + "\\n")
"""


def checkout(root: Path, correct: bool) -> Path:
    """A directory whose perfbench/run.py logs its bytecode cache and prints one
    fixed result line."""
    result = {"correct": correct, "failed": 0, "metrics": {"wall_s": {"value": 1.0}}}
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "helper.py").write_text("")
    (root / "perfbench" / "run.py").write_text(
        RUN_PY + f"print({json.dumps(json.dumps(result))})\n"
    )
    (root / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 1, "end_to_end": METRICS[:1]}))
    return root


@pytest.mark.parametrize("correct, code, summary", [(True, 0, True), (False, 1, False)])
def test_only_pairs_of_correct_runs_enter_the_summary(tmp_path, capsys, correct, code, summary):
    parent, change = checkout(tmp_path / "parent", True), checkout(tmp_path / "change", correct)
    assert pairs.main([str(parent), str(change), "--workload", "w", "--pairs", "2"]) == code
    out, err = capsys.readouterr()
    assert ("w: 2 pairs" in out) == summary and ("wall_s" in out) == summary
    assert ("correct" in err and "false" in err) != correct


def test_each_side_compiles_once_into_a_cache_of_its_own_outside_its_checkout(
    tmp_path, monkeypatch
):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")  # the runs write bytecode even so
    parent, change = checkout(tmp_path / "parent", True), checkout(tmp_path / "change", True)
    assert pairs.main([str(parent), str(change), "--workload", "w", "--pairs", "3"]) == 0
    prefixes = []
    for side in (parent, change):
        runs = [json.loads(line) for line in (side / "runs.log").read_text().splitlines()]
        (prefix,) = {prefix for prefix, _ in runs}
        assert prefix is not None and not Path(prefix).exists()  # removed at the end
        assert [cached for _, cached in runs] == [False, True, True]
        assert not list(side.rglob("__pycache__"))
        prefixes.append(prefix)
    assert prefixes[0] != prefixes[1]
