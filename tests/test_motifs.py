import dataclasses
import datetime as dt
import hashlib
import itertools
import json
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import (
    brute_force_classify,
    brute_force_enumerate,
    census_classes,
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
    COPIES,
    EDGE_RANK,
    INDEX_CLASS,
    MASK_CLASS,
    MotifClass,
    census_document,
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
    real = _fastcount._triangles

    def one_clique_more(*args):
        t_edge, cliques = real(*args)
        return t_edge, cliques + 1

    monkeypatch.setattr(_fastcount, "_triangles", one_clique_more)
    with pytest.raises(InvariantError):
        enumerate_induced(ring(5), 4)


def test_closed_engine_exact_when_terms_leave_int64():
    # The census has one exact path, whatever the term sizes: Python ints per
    # distinct degree and ingest.exact_sum over int64 edge terms. Here it
    # meets brute force; the star below takes its counts past int64.
    net = random_net(14, 0.5, 1)
    expected = {k: brute_force_enumerate(net, k) for k in (3, 4)}
    for k in (3, 4):
        assert enumerate_induced(net, k) == expected[k]


def test_full_census_stays_exact_past_int64():
    # C(3.9M, 3) 3-stars pass int64's 9.2e18: an int64 count array overflows.
    leaves = 3_900_000
    hub, leaf = np.zeros(leaves, dtype=np.int64), np.arange(1, leaves + 1)
    census = _fastcount.full_census(leaves + 1, hub, leaf)
    assert census[MotifClass.M4_6] == math.comb(leaves, 3) == 9_886_492_395_001_300_000
    assert census[MotifClass.M3_1] == math.comb(leaves, 2)
    assert census[MotifClass.M2_1] == leaves
    # The size-k entry points give the same exact ints. enumerate_induced
    # reads only the node count from names: 3.9M distinct names would cost
    # about 250 MB.
    net = PlaceNetwork([""] * (leaves + 1), hub, leaf, np.ones(leaves, dtype=np.int64))
    size_k = {k: {c: n for c, n in census.items() if c.size == k and n} for k in (3, 4)}
    for k in (3, 4):
        got = enumerate_induced(net, k)
        assert got == size_k[k] and all(type(n) is int for n in got.values())
    del net
    # The star's CSR, built directly: the hub's row lists every leaf, and
    # each leaf's row lists the hub.
    indptr = np.concatenate(([0], np.arange(leaves, 2 * leaves + 1)))
    slots = _fastcount.census_counts(indptr, np.concatenate((leaf, hub)), 4)
    assert slots.tolist() == [size_k[4].get(c, 0) for c in INDEX_CLASS]


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
        # 4-cliques, and nodes of out-degree 13, whose 78 pairs form a slice alone
        pytest.param(random_net(20, 0.75, 2), id="dense"),
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


@pytest.mark.parametrize("n, p", [(300, 0.5), (200, 0.9)])
def test_four_clique_popcounts_match_the_float_products(n, p):
    # Out-degree batches past 64 that are no multiple of 8, so none of 64,
    # give hit rows of several words whose last word runs past the row's width.
    net = random_net(n, p, 3)
    uptr, _, head, keys, _, _ = _fastcount._orient(net.n_nodes, net.src, net.dst)
    out = np.diff(uptr)
    assert ((out > 64) & (out % 8 != 0)).any()
    cliques = _fastcount._triangles(uptr, head, keys, net.n_nodes)[1]
    assert cliques == oracles.product_four_cliques(net) > 0


@pytest.mark.parametrize("width", [1, 63, 64, 65, 130])
def test_shared_kernel_matches_the_dense_matrix(width):
    # One word, a full word, and rows spilling one bit or more into the next.
    rng = np.random.default_rng(width)
    ones = rng.random((40, width)) < 0.5
    ones[7] = False  # a row with no ones
    rows, cols = np.nonzero(ones)
    order = rng.permutation(rows.size)  # the bits come in no particular order
    rows, cols = rows[order], cols[order]
    a, b = rng.integers(0, 40, (2, 600))
    a[:40], b[:40] = 7, np.arange(40)
    a[40:80] = b[40:80] = np.arange(40)  # each row with itself: its own ones
    shared = _fastcount._shared(rows, cols, 40, width, a, b)
    assert shared.dtype == np.int64
    assert shared.tolist() == oracles.shared_columns(rows, cols, 40, width, a, b).tolist()
    assert shared[40:80].tolist() == ones.sum(axis=1).tolist()
    empty = np.zeros(0, dtype=np.int64)
    assert _fastcount._shared(empty, empty, 0, width, empty, empty).tolist() == []


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
    assert census == {c: expected.get(c, 0) for c in CLASS_ORDER}
    assert list(census) == list(CLASS_ORDER)
    # the CSR entry point of criterion 9 gives the same 3- and 4-node slots
    _, indptr, indices = csr_adjacency(net)
    for k in (3, 4):
        size_k = [c for c in CLASS_ORDER if c.size == k]
        slots = _fastcount.census_counts(indptr, indices, k)
        assert [slots[CLASS_INDEX[c]] for c in size_k] == [census[c] for c in size_k]


def test_copy_table_equals_the_permutation_oracle():
    copies = oracles.copy_table()
    assert COPIES.tolist() == [[copies[p, f] for f in CLASS_ORDER] for p in CLASS_ORDER]


def test_full_census_matches_brute_force_on_every_graph_of_at_most_five_nodes():
    # every labelled graph: n < 4, edge-free and complete graphs among them
    for n in range(6):
        names = [f"v{i}" for i in range(n)]
        pairs = list(itertools.combinations(names, 2))
        for mask in range(1 << len(pairs)):
            net = network({pair: 1 for i, pair in enumerate(pairs) if mask >> i & 1}, nodes=names)
            expected = {}
            for k in (2, 3, 4):
                expected.update(brute_force_enumerate(net, k))
            census = _fastcount.full_census(net.n_nodes, net.src, net.dst)
            assert census == {c: expected.get(c, 0) for c in CLASS_ORDER}, (n, mask)
            assert list(census) == list(CLASS_ORDER)
            assert all(type(count) is int for count in census.values())


def _census_of_size(net, k):
    return {c: count for c, count in enumeration_census(net).items() if c.size == k and count}


# Dense graphs, where 4-cliques and diamonds dominate: seeded G(n, p) over a
# range of sizes and densities, and complete graphs.
DENSE_NETS = [
    *(pytest.param(random_net(n, p, seed), id=f"G({n},{p})")
      for n, p, seed in ((12, 0.95, 1), (16, 0.75, 2), (20, 0.5, 3), (30, 0.9, 4), (40, 0.3, 5))),
    *(pytest.param(complete(n), id=f"K{n}") for n in (12, 25)),
]


@pytest.mark.parametrize("net", DENSE_NETS)
def test_enumeration_census_matches_brute_force_on_dense_graphs(net):
    for k in (3, 4):
        assert _census_of_size(net, k) == brute_force_enumerate(net, k)


@pytest.fixture(scope="module")
def readme_like_sequences():
    """Sequences of the README world and traffic mix, cut to 30 POIs and 3,000 device-days."""
    from placeweave.ingest import build_stay_sequences, filter_visits
    from placeweave.synth import CLASS_WALKS, TrafficSpec, WorldSpec, gen_catalog, gen_device_days

    world = WorldSpec(30, (29.5, 30.0, -95.8, -95.2), {7: 0.4, 18: 0.3, 16: 0.3}, seed=1)
    mix = {cls: 0.2 if cls is MotifClass.M2_1 else 0.1 for cls in CLASS_WALKS}
    traffic = TrafficSpec(3000, mix, (dt.date(2020, 2, 1), dt.date(2020, 2, 28)), seed=2)
    stops = gen_device_days(gen_catalog(world), traffic)
    return build_stay_sequences(filter_visits(stops, 300), 0.0)


@pytest.mark.parametrize("mode", ["consecutive", "covisitation"])
def test_enumeration_census_matches_brute_force_on_readme_like_merged_networks(
    readme_like_sequences, mode
):
    net = oracles.build_network(readme_like_sequences, mode)
    assert net.n_nodes == 30 and net.n_edges > 0.8 * 30 * 29 / 2  # dense
    for k in (3, 4):
        assert _census_of_size(net, k) == brute_force_enumerate(net, k)


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
    row = census_classes(census.document())[MotifClass.M2_1]
    assert (row["motif_count"], row["device_count"], row["flow_count"]) == (1, 2, 2)


def test_triangle_walk_flow_identity():
    row = census_classes(classify([seq("p1", "p2", "p3", "p1")]).document())[MotifClass.M3_2]
    assert row["flow_count"] == row["device_count"] * MotifClass.M3_2.edge_count == 3


def test_oversize_walk_counts_only_in_totals():
    walk = seq("p1", "p2", "p3", "p4", "p5")
    census = classify([walk])
    doc = census.document()
    assert doc["totals"]["motif_count"] == 1
    assert doc["totals"]["device_count"] == 1
    assert doc["totals"]["flow_count"] == 4
    assert all(row["motif_count"] == 0 for row in doc["classes"])


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
    doc = classify(seqs).document()
    rows = census_classes(doc)
    for i, cls in enumerate(walks):
        row = rows[cls]
        assert row["device_count"] == i + 1, cls
        assert row["flow_count"] == row["device_count"] * cls.edge_count
    assert sum(row["device_count"] for row in doc["classes"]) == doc["totals"]["device_count"]


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
    assert census.document()["totals"]["motif_count"] == 2


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
    # table rows in (day, class, node codes, edge rank) order, instances in the
    # same order without the day, each key once; of_row finds each row's instance
    table, instances, of_row = census.rows.table, census.rows.instances, census.rows.of_row

    def sort_keys(inst, *major):
        nodes, rank = map(tuple, inst.nodes.tolist()), EDGE_RANK[inst.mask].tolist()
        return list(zip(*(column.tolist() for column in major), inst.cls.tolist(), nodes, rank))

    for keys in (sort_keys(table, census.rows.day), sort_keys(instances)):
        assert all(a < b for a, b in zip(keys, keys[1:]))
    for column in ("cls", "nodes", "mask"):
        assert np.array_equal(getattr(instances, column)[of_row], getattr(table, column))


def test_tally_falls_back_to_lexsort_where_one_key_cannot_hold_the_codes():
    """Spreading the POI codes over 2**14 times as many names takes the seven
    tally keys past 2**63: np.lexsort then sorts them, to the same rows."""
    seqs = [
        seq("p0", "p4", day=SAT), seq("p4", "p3", "p0", "p1", device="d2"),
        seq("p1", "p2", "p3", "p1"), seq("p0", "p1", "p2", "p3", "p4", device="d3"),
        seq("p2", "p4", "p3", "p4", day=dt.date(2020, 2, 2)), seq("p0", "p4", device="d2"),
        seq("p0", "p3", "p2", "p0", "p4", device="d4", day=SAT),
    ]
    table, rows = oracles.sequence_table(seqs), {}
    for scale in (1, 2**14):  # the POI codes run to 4 and to 65,536
        names = [table.pois[i // scale] + (f"_{i % scale:05d}" if i % scale else "")
                 for i in range((len(table.pois) - 1) * scale + 1)]
        with mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
            rows[scale] = classify_trajectories(
                dataclasses.replace(table, pois=names, stays=table.stays * scale)
            ).rows
        assert lexsort.called == (scale > 1)
    narrow, wide = rows[1], rows[2**14]
    assert oracles.table_rows(wide) == oracles.table_rows(narrow)
    assert oracles.table_instances(wide) == oracles.table_instances(narrow)
    assert np.array_equal(wide.day, narrow.day) and np.array_equal(wide.of_row, narrow.of_row)


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
    return census_classes(census_document(
        "trajectory", COUNTY_MOTIF_COUNTS, COUNTY_TOTAL_MOTIFS, dict.fromkeys(CLASS_ORDER, 0),
        total_devices=405562, total_flows=1735489,
    ))


def test_percentage_single_class_two_decimals():
    census = county_census()
    assert round(census[MotifClass.M2_1]["percentage"], 2) == 1.42


def test_percentage_nine_class_sum_two_decimals():
    census = county_census()
    total_pct = sum(census[cls]["percentage"] for cls in CLASS_ORDER)
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
    census = classify([seq("a", "b")]).document()
    assert census_classes(census)[MotifClass.M2_1]["percentage"] == 100.0


def test_percentage_zero_total_rejected():
    zero = dict.fromkeys(CLASS_ORDER, 0)
    with pytest.raises(ValueError, match="census has no motifs"):
        census_document("trajectory", zero, 0, zero, total_devices=0, total_flows=0)


def test_instance_from_edges_classifies():
    inst = instance_from_edges(["b", "a"], [("a", "b")])
    assert inst.nodes == ("a", "b")
    assert inst.motif_class is MotifClass.M2_1
