import datetime as dt
import hashlib
import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import (
    brute_force_classify,
    brute_force_enumerate,
    esu_enumerate,
    instance_from_edges,
    iter_induced_instances,
    network,
    trajectory_instance,
)
from placeweave import _fastcount
from placeweave.errors import InvariantError
from placeweave.motifs import (
    CLASS_INDEX,
    CLASS_ORDER,
    INDEX_CLASS,
    MASK_CLASS,
    ClassStats,
    MotifCensus,
    MotifClass,
    census_percentages,
    classify_graph,
    classify_trajectories,
    enumerate_induced,
    enumeration_census,
)
from placeweave.network import PlaceNetwork, csr_adjacency
from placeweave.refnets import RefNetSpec, gen_scale_free_network
from test_metrics import loaded_modules

# The closed-form census and the ESU oracle, each checked on the same graphs.
COUNTERS = pytest.mark.parametrize(
    "count", [enumerate_induced, esu_enumerate], ids=["closed", "python"]
)


def ring(n):
    return network({(f"p{i}", f"p{(i + 1) % n}"): 1 for i in range(n)})


def complete(n):
    return network({(f"p{i}", f"p{j}"): 1 for i, j in itertools.combinations(range(n), 2)})


def star(leaves):
    return network({("hub", f"leaf{i}"): 1 for i in range(leaves)})


def random_net(n, p, seed):
    rng = random.Random(seed)
    nodes = [f"p{i:02d}" for i in range(n)]
    pairs = itertools.combinations(nodes, 2)
    return network({(a, b): 1 for a, b in pairs if rng.random() < p}, nodes=nodes)


# -- classification -----------------------------------------------------------


def test_classify_triangle():
    assert classify_graph(3, [("a", "b"), ("b", "c"), ("c", "a")]) is MotifClass.M3_2


def test_classify_tailed_triangle_by_degree_sequence():
    edges = [("a", "b"), ("b", "c"), ("c", "a"), ("a", "d")]
    assert classify_graph(4, edges) is MotifClass.M4_4


def test_classify_disconnected_is_other():
    assert classify_graph(4, [("a", "b"), ("c", "d")]) is MotifClass.OTHER


def test_classify_isolated_vertex_is_other():
    assert classify_graph(3, [("a", "b")]) is MotifClass.OTHER


def test_classify_rejects_bad_sizes_and_loops():
    with pytest.raises(ValueError):
        classify_graph(5, [])
    with pytest.raises(ValueError):
        classify_graph(2, [("a", "a")])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_classify_agrees_with_isomorphism_oracle(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        assert classify_graph(n, edges) is brute_force_classify(n, edges), edges


def test_class_attributes():
    sizes = [c.size for c in CLASS_ORDER]
    edges = [c.edge_count for c in CLASS_ORDER]
    assert sizes == [2, 3, 3, 4, 4, 4, 4, 4, 4]
    assert edges == [1, 2, 3, 6, 5, 4, 4, 3, 3]


# -- enumeration --------------------------------------------------------------


@COUNTERS
def test_enumerate_complete_graph(count):
    k4 = complete(4)
    assert count(k4, 4) == {MotifClass.M4_1: 1}
    assert count(k4, 3) == {MotifClass.M3_2: 4}
    assert count(k4, 2) == {MotifClass.M2_1: 6}


@COUNTERS
def test_enumerate_five_cycle(count):
    c5 = ring(5)
    expected3 = brute_force_enumerate(c5, 3)
    expected4 = brute_force_enumerate(c5, 4)
    assert expected3 == {MotifClass.M3_1: 5}
    assert expected4 == {MotifClass.M4_5: 5}
    assert count(c5, 3) == expected3
    assert count(c5, 4) == expected4


@COUNTERS
def test_enumerate_four_star(count):
    k14 = star(4)
    expected3 = brute_force_enumerate(k14, 3)
    expected4 = brute_force_enumerate(k14, 4)
    assert expected3 == {MotifClass.M3_1: 6}
    assert expected4 == {MotifClass.M4_6: 4}
    assert count(k14, 3) == expected3
    assert count(k14, 4) == expected4


BRUTE_FORCE_NETS = [
    *(pytest.param(random_net(14, 0.22, seed), id=str(seed)) for seed in range(6)),
    pytest.param(PlaceNetwork(), id="empty"),
    pytest.param(network({("a", "b"): 1}), id="edge"),
]


@COUNTERS
@pytest.mark.parametrize("net", BRUTE_FORCE_NETS)
def test_enumerate_matches_brute_force(count, net):
    for k in (2, 3, 4):
        assert count(net, k) == brute_force_enumerate(net, k)


def test_enumerate_invariant_under_relabeling():
    net = random_net(12, 0.3, 5)
    rng = random.Random(1)
    names = net.names
    shuffled = names[:]
    rng.shuffle(shuffled)
    mapping = dict(zip(names, shuffled))
    relabeled = network(
        {
            tuple(sorted((mapping[a], mapping[b]))): w
            for (a, b), w in oracles.edge_weights(net).items()
        },
        nodes=[mapping[n] for n in names],
    )
    for k in (3, 4):
        assert enumerate_induced(net, k) == enumerate_induced(relabeled, k)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 9).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2),
        )
    )
)
def test_closed_engine_matches_brute_force_on_any_small_graph(graph):
    # One coin per node pair: dense draws (cliques, diamonds) and isolated
    # nodes both occur.
    n, coins = graph
    pairs = itertools.combinations(range(n), 2)
    net = network(
        {(f"p{a}", f"p{b}"): 1 for (a, b), coin in zip(pairs, coins) if coin},
        nodes=[f"p{i}" for i in range(n)],
    )
    for k in (3, 4):
        assert enumerate_induced(net, k) == brute_force_enumerate(net, k)


def test_closed_form_equals_esu_oracle():
    net = random_net(14, 0.3, 2)
    for k in (3, 4):
        assert enumerate_induced(net, k) == esu_enumerate(net, k)


def test_closed_engine_rejects_negative_induced_count(monkeypatch):
    # One 4-clique more than the graph holds drives the diamond count below 0.
    monkeypatch.setattr(_fastcount, "_four_cliques", lambda *args: 1)
    with pytest.raises(InvariantError):
        enumerate_induced(ring(5), 4)


def test_closed_engine_exact_when_terms_leave_int64(monkeypatch):
    # Force the Python-int paths that hubs of a million neighbours would take.
    net = random_net(14, 0.5, 1)
    expected = {k: brute_force_enumerate(net, k) for k in (3, 4)}
    monkeypatch.setattr(_fastcount, "_EXACT_DEGREE", 1)
    monkeypatch.setattr(_fastcount, "_INT64_MAX", 7)
    for k in (3, 4):
        assert enumerate_induced(net, k) == expected[k]


def complete_bipartite(a, b):
    return network({(f"l{i}", f"r{j}"): 1 for i in range(a) for j in range(b)})


def grid(side):
    cell = [[f"g{r}{c}" for c in range(side)] for r in range(side)]
    right = {(cell[r][c], cell[r][c + 1]): 1 for r in range(side) for c in range(side - 1)}
    down = {(cell[r][c], cell[r + 1][c]): 1 for r in range(side - 1) for c in range(side)}
    return network({**right, **down})


@pytest.mark.parametrize(
    "net",
    [
        pytest.param(complete_bipartite(5, 6), id="K5,6"),
        pytest.param(grid(6), id="grid6x6"),
        pytest.param(gen_scale_free_network(RefNetSpec("scale_free", 30, 6, 3)), id="scale-free"),
    ],
)
def test_closed_engine_slices_give_the_unsliced_counts(monkeypatch, net):
    # Slices of 64 candidates split every kernel's pass over the graph into
    # many blocks, so each block's offsets must line up with the whole.
    _, indptr, indices = csr_adjacency(net)
    whole = _fastcount.census_counts(indptr, indices, 4)
    monkeypatch.setattr(_fastcount, "_SLICE", 64)
    sliced = _fastcount.census_counts(indptr, indices, 4)
    assert sliced.tolist() == whole.tolist()
    expected = brute_force_enumerate(net, 4)
    assert expected[MotifClass.M4_3] > 0
    assert {INDEX_CLASS[i]: int(c) for i, c in enumerate(sliced) if c} == expected


def test_enumeration_loads_no_scipy(tmp_path):
    # The closed-form census is numpy only; scipy is for the metrics stage.
    code = (
        "import sys; from placeweave import cli, motifs, refnets; "
        "motifs.enumerate_induced(refnets.gen_scale_free_network("
        "refnets.RefNetSpec('scale_free', 60, 4, 9)), 4); "
        "assert cli.main(['refnet', '--kind', 'scale-free', '--n', '60', '--avg-degree', '4', "
        "'--seed', '9', '--out', 'ref.csv']) == 0; "
        "assert cli.main(['motifs', '--network', 'ref.csv', '--mode', 'enumerate', "
        "'--out', 'census']) == 0; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    assert loaded_modules(code, cwd=tmp_path).splitlines()[-1] == "[]"


def placeweave_modules(statements: str, cwd) -> set[str]:
    """The placeweave submodules a fresh interpreter holds after running statements."""
    code = (
        f"import sys; {statements}; "
        "print(*sorted(m.partition('.')[2] for m in sys.modules if m.startswith('placeweave.')))"
    )
    return set(loaded_modules(code, cwd=cwd).split())


def test_each_command_loads_only_its_own_stage_modules(tmp_path):
    # The package namespace is empty and each stage imports its modules where it runs.
    assert placeweave_modules("import placeweave", tmp_path) == set()
    parser = "from placeweave import cli; cli.build_parser(); assert 'numpy' not in sys.modules"
    assert placeweave_modules(parser, tmp_path) == {"cli", "config", "errors"}
    refnet = placeweave_modules(
        "from placeweave.cli import main; assert main(['refnet', '--kind', 'scale-free', "
        "'--n', '60', '--avg-degree', '4', '--seed', '9', '--out', 'ref.csv']) == 0",
        tmp_path,
    )
    assert "refnets" in refnet
    assert not refnet & {"motifs", "_fastcount", "stats", "metrics", "attributes", "synth",
                         "_pcg64"}
    census = placeweave_modules(
        "from placeweave.cli import main; assert main(['motifs', '--network', 'ref.csv', "
        "'--mode', 'enumerate', '--out', 'census']) == 0",
        tmp_path,
    )
    assert {"motifs", "_fastcount"} <= census
    assert not census & {"stats", "metrics", "attributes", "synth", "_pcg64", "refnets"}
    world = {"n_pois": 40, "bbox": [29.5, 30.0, -95.8, -95.2],
             "category_shares": {"7": 0.5, "18": 0.5}, "seed": 1}
    traffic = {"n_device_days": 50, "class_mix": {"M2_1": 0.5, "M4_3": 0.5},
               "date_range": ["2020-02-01", "2020-02-02"], "seed": 2}
    (tmp_path / "world.json").write_text(json.dumps(world), encoding="utf-8")
    (tmp_path / "traffic.json").write_text(json.dumps(traffic), encoding="utf-8")
    synth = placeweave_modules(
        "from placeweave.cli import main; assert main(['synth', '--world', 'world.json', "
        "'--traffic', 'traffic.json', '--out', 'data']) == 0",
        tmp_path,
    )
    assert {"synth", "_pcg64"} <= synth
    assert not synth & {"stats", "refnets", "metrics", "_fastcount"}


# Prints the OpenBLAS idle timeout in the environment when numpy first loads.
WATCH_NUMPY_IMPORT = """
import os, sys

class Watch:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            print("at numpy import:", os.environ.get("OPENBLAS_THREAD_TIMEOUT"))

sys.meta_path.insert(0, Watch())
"""


@pytest.mark.parametrize("preset, expected", [(None, "4"), ("9", "9")], ids=["unset", "preset"])
def test_main_sets_the_blas_idle_timeout_before_numpy_loads(tmp_path, preset, expected):
    setup = (f"os.environ['OPENBLAS_THREAD_TIMEOUT'] = {preset!r}" if preset
             else "os.environ.pop('OPENBLAS_THREAD_TIMEOUT', None)")
    code = WATCH_NUMPY_IMPORT + (
        f"{setup}\n"
        "from placeweave.cli import main\n"
        "assert main(['refnet', '--kind', 'scale-free', '--n', '60', '--avg-degree', '4', "
        "'--seed', '9', '--out', 'ref.csv']) == 0\n"
        "print('after main:', os.environ['OPENBLAS_THREAD_TIMEOUT'])\n"
    )
    # numpy loads once, inside main, and the value set by then is kept
    assert loaded_modules(code, cwd=tmp_path).splitlines() == [
        f"at numpy import: {expected}", f"after main: {expected}"
    ]


def test_imports_and_parser_leave_the_environment_untouched(tmp_path):
    code = (
        "import os; os.environ.pop('OPENBLAS_THREAD_TIMEOUT', None); before = dict(os.environ); "
        "import placeweave, placeweave.pipeline; from placeweave import cli; cli.build_parser(); "
        "print(dict(os.environ) == before)"
    )
    assert loaded_modules(code, cwd=tmp_path) == "True"


def test_instance_stream_matches_counts():
    net = random_net(12, 0.3, 3)
    insts = list(iter_induced_instances(net, 3))
    assert len({(i.nodes, i.edges) for i in insts}) == len(insts)
    counts = {}
    for inst in insts:
        counts[inst.motif_class] = counts.get(inst.motif_class, 0) + 1
    assert counts == enumerate_induced(net, 3)


@pytest.mark.parametrize(
    "net",
    [
        *(pytest.param(random_net(11, p, seed), id=f"random-{p}-{seed}")
          for p, seed in ((0.2, 4), (0.45, 5), (0.8, 6))),
        pytest.param(network({}, nodes=["a", "b", "c"]), id="edge-free"),
        pytest.param(PlaceNetwork(), id="empty"),
        pytest.param(
            network({(a, b): 1 for a, b in ("bc", "bd", "cd", "cf", "df", "fg")},
                    nodes=["a", "e", "h"]),
            id="isolated-nodes",
        ),
    ],
)
def test_enumeration_census_lists_triangles_once(monkeypatch, net):
    calls = []

    def triangles(*args):
        calls.append(args)
        return real(*args)

    real = _fastcount._triangles
    monkeypatch.setattr(_fastcount, "_triangles", triangles)
    census = enumeration_census(net)
    assert len(calls) == (1 if net.n_nodes else 0)
    expected = {}
    for k in (2, 3, 4):
        expected.update(brute_force_enumerate(net, k))
    assert {c: s.motif_count for c, s in census.classes.items() if s.motif_count} == expected
    assert list(census.classes) == list(CLASS_ORDER)
    assert census.total_motifs == sum(expected.values())
    # the CSR entry point of criterion 9 gives the same 3- and 4-node slots
    _, indptr, indices = csr_adjacency(net)
    for k in (3, 4):
        size_k = [c for c in CLASS_ORDER if c.size == k]
        slots = _fastcount.census_counts(indptr, indices, k)
        assert [slots[CLASS_INDEX[c]] for c in size_k] == [
            census.classes[c].motif_count for c in size_k
        ]


def test_enumerate_rejects_bad_k():
    with pytest.raises(ValueError):
        enumerate_induced(complete(3), 5)


# -- trajectory census --------------------------------------------------------

MON = dt.date(2020, 2, 3)
SAT = dt.date(2020, 2, 1)


def seq(*stays, device="d1", day=MON):
    return oracles.Walk(device, day, tuple(stays))


def classify(seqs):
    return classify_trajectories(oracles.sequence_table(seqs))


def test_two_devices_one_edge_instance():
    census = classify([seq("p1", "p2"), seq("p1", "p2", device="d2")])
    stats = census.census().classes[MotifClass.M2_1]
    assert (stats.motif_count, stats.device_count, stats.flow_count) == (1, 2, 2)


def test_triangle_walk_flow_identity():
    census = classify([seq("p1", "p2", "p3", "p1")]).census()
    stats = census.classes[MotifClass.M3_2]
    assert stats.flow_count == stats.device_count * MotifClass.M3_2.edge_count == 3


def test_oversize_walk_counts_only_in_totals():
    walk = seq("p1", "p2", "p3", "p4", "p5")
    census = classify([walk])
    doc = census.census()
    assert doc.total_motifs == 1
    assert doc.total_devices == 1
    assert doc.total_flows == 4
    assert all(stats.motif_count == 0 for stats in doc.classes.values())


def test_flow_identity_holds_for_every_class():
    walks = {
        MotifClass.M2_1: ("a", "b"),
        MotifClass.M3_1: ("a", "b", "c"),
        MotifClass.M3_2: ("a", "b", "c", "a"),
        MotifClass.M4_1: ("a", "b", "c", "d", "a", "c", "b", "d"),
        MotifClass.M4_2: ("a", "c", "b", "d", "a", "b"),
        MotifClass.M4_3: ("a", "b", "c", "d", "a"),
        MotifClass.M4_4: ("d", "a", "b", "c", "a"),
        MotifClass.M4_5: ("a", "b", "c", "d"),
        MotifClass.M4_6: ("b", "a", "c", "a", "d"),
    }
    seqs = [
        seq(*walk, device=f"d{i}-{j}")
        for i, walk in enumerate(walks.values())
        for j in range(i + 1)
    ]
    census = classify(seqs).census()
    for i, cls in enumerate(walks):
        stats = census.classes[cls]
        assert stats.device_count == i + 1, cls
        assert stats.flow_count == stats.device_count * cls.edge_count
    assert sum(s.device_count for s in census.classes.values()) == census.total_devices


@pytest.mark.parametrize("walk", [("a", "a", "b"), ("a", "b", "c", "d", "e", "e")])
def test_consecutive_repeat_in_a_walk_rejected(walk):
    with pytest.raises(ValueError, match="repeats a stay"):
        classify([seq(*walk)])


def test_one_stay_walk_rejected():
    # walk 0 has no step; it must not take walk 1's step bits as its own
    with pytest.raises(ValueError, match="shorter than 2 stays: device 'd1' on 2020-02-03"):
        classify([seq("p0"), seq("p1", "p2", device="d2")])


def test_distinct_edge_sets_are_distinct_instances():
    # Same POI set, different traversal graph: a path and a star.
    census = classify(
        [seq("a", "b", "c"), seq("a", "b", "a", "c", device="d2")]
    )
    assert census.census().total_motifs == 2


def test_weekday_weekend_split():
    census = classify([seq("a", "b"), seq("a", "b", device="d2", day=SAT)])
    rec = oracles.table_instances(census.rows)[trajectory_instance(("a", "b"))]
    assert (rec.weekday_count, rec.weekend_count, rec.device_count) == (1, 1, 2)


def _no_repeats(stays):
    return tuple(v for i, v in enumerate(stays) if i == 0 or stays[i - 1] != v)


walks = st.lists(st.sampled_from(["p1", "p2", "p3", "p4", "p5"]), min_size=2, max_size=7).map(
    _no_repeats
).filter(lambda stays: len(stays) >= 2)
days = st.sampled_from([SAT, dt.date(2020, 2, 2), MON, dt.date(2020, 2, 4)])


@settings(max_examples=150)
@given(st.lists(st.tuples(days, walks), max_size=30))
def test_trajectory_rows_tally_like_brute_force(day_walks):
    seqs = [seq(*walk, device=f"d{i}", day=day) for i, (day, walk) in enumerate(day_walks)]
    expected = {}
    for s in seqs:
        rec = expected.setdefault(trajectory_instance(s.stays), oracles.InstanceRecord())
        rec.device_count += 1
        if s.local_date.weekday() >= 5:
            rec.weekend_count += 1
        else:
            rec.weekday_count += 1
    census = classify(seqs)
    rows = oracles.table_rows(census.rows)
    assert oracles.aggregate_instances(rows) == expected
    assert oracles.table_instances(census.rows) == {
        inst: rec for inst, rec in expected.items() if inst.motif_class is not MotifClass.OTHER
    }
    assert sum(count for *_, count in rows) == census.total_device_days == len(seqs)
    assert len({(day, inst) for day, inst, _ in rows}) == len(rows)
    assert census.total_flows == sum(len(s.stays) - 1 for s in seqs)


def test_mask_class_table_equals_classify_graph():
    for n in (2, 3, 4):
        for mask in range(64):
            edges = [pair for bit, pair in enumerate(oracles.SLOT_PAIRS) if mask >> bit & 1]
            try:
                want = CLASS_INDEX[classify_graph(n, edges)]
            except ValueError:  # more vertices than n
                want = -1
            assert MASK_CLASS[n, mask] == want, (n, mask)


def test_mask_class_table_bytes_are_pinned():
    """The (node count, edge mask) class table, pinned byte for byte:
    instances.csv rows and their order depend on it."""
    digest = hashlib.sha256(MASK_CLASS.tobytes()).hexdigest()
    assert (MASK_CLASS.dtype, MASK_CLASS.shape) == (np.int8, (5, 64))
    assert digest == "08b51e5b4260b171c72cae05a88ceda2372b10d9b15e108ffe07b071c998226e"


pairs = st.lists(
    st.tuples(st.sampled_from("abcde"), st.sampled_from("abcde")).filter(lambda e: e[0] != e[1]),
    min_size=1,
    max_size=6,
)


@settings(max_examples=150)
@given(pairs, st.randoms())
def test_instance_from_edges_is_canonical(edges, rnd):
    nodes = [v for edge in edges for v in edge]
    respelled = [edge[::-1] if rnd.random() < 0.5 else edge for edge in edges]
    respelled += rnd.choices(respelled, k=rnd.randint(0, 3))
    rnd.shuffle(respelled)
    shuffled = rnd.sample(nodes, k=len(nodes))
    a = instance_from_edges(nodes, edges)
    b = instance_from_edges(shuffled, respelled)
    assert a == b and hash(a) == hash(b)
    assert a.edges == tuple(sorted({tuple(sorted(edge)) for edge in edges}))


# -- percentage arithmetic at county scale -------------------------------------

COUNTY_MOTIF_COUNTS = {
    MotifClass.M2_1: 1210,
    MotifClass.M3_1: 1441,
    MotifClass.M3_2: 13007,
    MotifClass.M4_1: 29304,
    MotifClass.M4_2: 24045,
    MotifClass.M4_3: 6418,
    MotifClass.M4_4: 34,
    MotifClass.M4_5: 256,
    MotifClass.M4_6: 375,
}
COUNTY_TOTAL_MOTIFS = 85237


def county_census():
    classes = {
        cls: ClassStats(motif_count=COUNTY_MOTIF_COUNTS[cls], device_count=0, flow_count=0)
        for cls in CLASS_ORDER
    }
    return MotifCensus(
        classes=classes,
        total_motifs=COUNTY_TOTAL_MOTIFS,
        total_devices=405562,
        total_flows=1735489,
        mode="trajectory",
    )


def test_percentage_single_class_two_decimals():
    census = census_percentages(county_census())
    assert round(census.classes[MotifClass.M2_1].percentage, 2) == 1.42


def test_percentage_nine_class_sum_two_decimals():
    census = census_percentages(county_census())
    total_pct = sum(census.classes[cls].percentage for cls in CLASS_ORDER)
    assert round(total_pct, 2) == 89.27
    assert sum(COUNTY_MOTIF_COUNTS.values()) == 76090


def test_county_device_flow_identity():
    # M4_2 row: 114420 device-days over 5 edges
    assert 114420 * MotifClass.M4_2.edge_count == 572100


def test_county_coverage_shares():
    # class devices and flows against the global totals: the nine classes
    # cover 76.66% of device-days and 87.17% of visit flows
    class_devices = [5758, 4532, 40321, 112209, 114420, 30532, 152, 1200, 1776]
    class_flows = [
        d * cls.edge_count for d, cls in zip(class_devices, CLASS_ORDER)
    ]
    assert round(100 * sum(class_devices) / 405562, 2) == 76.66
    assert round(100 * sum(class_flows) / 1735489, 2) == 87.17


def test_percentage_single_class_census_is_100():
    census = classify([seq("a", "b")]).census()
    assert census_percentages(census).classes[MotifClass.M2_1].percentage == 100.0


def test_percentage_zero_total_rejected():
    empty = MotifCensus(
        classes={c: ClassStats() for c in CLASS_ORDER},
        total_motifs=0,
        total_devices=0,
        total_flows=0,
        mode="trajectory",
    )
    with pytest.raises(ValueError):
        census_percentages(empty)


def test_instance_from_edges_classifies():
    inst = instance_from_edges(["b", "a"], [("a", "b")])
    assert inst.nodes == ("a", "b")
    assert inst.motif_class is MotifClass.M2_1
