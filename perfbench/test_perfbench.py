"""Checks of the benchmark's own tracing and digest code.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_wrappers_replace_names_bound_by_import_and_restore():
    from placeweave import motifs, network, pipeline

    original = network.read_network
    tracer = Tracer()
    tracer.install(["network.read_network"], ["network.csr_adjacency", "network.no_such_fn"])
    try:
        assert pipeline.read_network is network.read_network is not original
        assert motifs.csr_adjacency is network.csr_adjacency
        net = network.PlaceNetwork()
        net.add_edge("a", "b")
        motifs.csr_adjacency(net)
        assert tracer.call_counts() == {"network.csr_adjacency": 1}
        assert tracer.absent == ["network.no_such_fn"]
    finally:
        tracer.restore()
    assert pipeline.read_network is original


def test_span_table_self_time_and_recursion():
    trace = {
        "spans": [
            ["outer", None, 0.0, 10.0, 1024],
            ["inner", 0, 1.0, 4.0, 2048],
            ["inner", 1, 2.0, 3.0, 2048],
        ]
    }
    table = run.span_table(trace)
    assert table["outer"] == {"calls": 1, "inclusive_s": 10.0, "self_s": 7.0, "rss_mb": 1.0}
    # the nested call is not counted twice in inclusive time
    assert table["inner"] == {"calls": 2, "inclusive_s": 3.0, "self_s": 3.0, "rss_mb": 2.0}


def test_tree_digest_covers_names_and_bytes(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "x.csv").write_text("1\n")
    first = run.tree_digest(tmp_path)
    (tmp_path / "a" / "x.csv").write_text("2\n")
    assert run.tree_digest(tmp_path) != first
    (tmp_path / "a" / "x.csv").write_text("1\n")
    assert run.tree_digest(tmp_path) == first
    (tmp_path / "a" / "x.csv").rename(tmp_path / "a" / "y.csv")
    assert run.tree_digest(tmp_path) != first


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(10))) is None
    assert run.tail(list(range(20))) == {"percentile": 50.0, "value": 9}
