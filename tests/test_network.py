import datetime as dt
import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import (
    Walk,
    adjacency,
    edge_weights,
    merge_networks,
    network,
    node_code,
    sequence_table,
)
from placeweave import ingest
from placeweave import network as network_module
from placeweave.errors import RowError, SchemaError
from placeweave.network import (
    PlaceNetwork,
    _sum_edges,
    csr_adjacency,
    day_networks,
    read_network,
    sidecar_path,
    write_network,
)

DAY = dt.date(2020, 2, 3)


def seq(*stays, device="d1", day=DAY):
    return Walk(device, day, tuple(stays))


def table(seqs):
    return sequence_table(seqs)


def merged_network(sequences, mode="consecutive"):
    return day_networks(sequences, mode)[1]


def test_consecutive_chain():
    net = merged_network(table([seq("p1", "p2", "p3")]), mode="consecutive")
    assert edge_weights(net) == {("p1", "p2"): 1, ("p2", "p3"): 1}


def test_covisitation_clique():
    net = merged_network(table([seq("p1", "p2", "p3")]), mode="covisitation")
    assert edge_weights(net) == {("p1", "p2"): 1, ("p1", "p3"): 1, ("p2", "p3"): 1}


def test_ten_coinciding_trips_weigh_ten():
    seqs = [seq("pA", "pB", device=f"d{i}") for i in range(10)]
    net = merged_network(table(seqs), mode="consecutive")
    assert edge_weights(net) == {("pA", "pB"): 10}


def test_covisitation_counts_pair_once_per_sequence():
    net = merged_network(table([seq("p1", "p2", "p1")]), mode="covisitation")
    assert edge_weights(net) == {("p1", "p2"): 1}


def test_short_sequence_rejected():
    with pytest.raises(ValueError):
        merged_network(table([Walk("d1", DAY, ("p1",))]))


def test_consecutive_duplicate_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        merged_network(table([seq("p1", "p1", "p2")]), mode="consecutive")


def test_label_defaults_to_date_range():
    seqs = [seq("a", "b"), seq("a", "b", day=dt.date(2020, 2, 7))]
    assert merged_network(table(seqs)).label == "2020-02-03..2020-02-07"
    assert merged_network(table([seq("a", "b")])).label == "2020-02-03"


@settings(max_examples=60)
@given(
    st.lists(
        st.lists(st.integers(0, 9), min_size=2, max_size=6).map(
            lambda xs: [f"p{x}" for x in xs]
        ),
        min_size=1,
        max_size=12,
    )
)
def test_total_weight_equals_steps(walks):
    seqs = []
    for i, walk in enumerate(walks):
        collapsed = [walk[0]]
        for poi in walk[1:]:
            if poi != collapsed[-1]:
                collapsed.append(poi)
        if len(collapsed) >= 2:
            seqs.append(Walk(f"d{i}", DAY, tuple(collapsed)))
    if not seqs:
        return
    net = merged_network(table(seqs), mode="consecutive")
    assert net.total_weight == sum(len(s.stays) - 1 for s in seqs)
    assert all(a != b for a, b in edge_weights(net))  # no self-loops


def test_merge_identity_and_disjoint_and_additive():
    n1 = merged_network(table([seq("a", "b")]))
    assert edge_weights(merge_networks([n1])) == edge_weights(n1)

    n2 = merged_network(table([seq("c", "d")]))
    merged = merge_networks([n1, n2])
    assert edge_weights(merged) == {("a", "b"): 1, ("c", "d"): 1}

    n3 = merged_network(table([seq("a", "b", device=f"x{i}") for i in range(3)]))
    assert edge_weights(merge_networks([n3, n3])) == {("a", "b"): 6}


def test_merge_associative_commutative_up_to_label():
    nets = [
        merged_network(table([seq("a", "b", day=dt.date(2020, 2, d))]))
        for d in (1, 2, 3)
    ]
    left = merge_networks([merge_networks(nets[:2]), nets[2]])
    right = merge_networks([nets[0], merge_networks(nets[1:])])
    swapped = merge_networks(nets[::-1])
    assert edge_weights(left) == edge_weights(right) == edge_weights(swapped)
    assert left.names == right.names == swapped.names
    assert swapped.label == "2020-02-01..2020-02-03"


def test_index_is_the_code_in_names():
    net = network({("a", "c"): 2}, nodes=["c", "a", "lonely"])
    assert [node_code(net, v) for v in ("a", "c", "lonely")] == [0, 1, 2]
    for unknown in ("", "b", "zz"):
        with pytest.raises(KeyError, match="unknown node"):
            node_code(net, unknown)


def test_merge_empty_rejected():
    with pytest.raises(ValueError):
        merge_networks([])


def test_add_edge_adds_nodes_and_weights_in_place():
    net = network({("b", "d"): 2}, nodes=["lonely"], label="2020-02-03", mode="covisitation")
    net.add_edge("c", "a")  # two new nodes, placed in name order
    assert net.names == ["a", "b", "c", "d", "lonely"]
    assert edge_weights(net) == {("a", "c"): 1, ("b", "d"): 2}
    net.add_edge("d", "b", weight=3)  # a repeated edge adds its weight
    net.add_edge("lonely", "a")  # an existing node gains an edge
    assert net.names == ["a", "b", "c", "d", "lonely"]
    assert edge_weights(net) == {("a", "c"): 1, ("a", "lonely"): 1, ("b", "d"): 5}
    assert (net.label, net.mode) == ("2020-02-03", "covisitation")
    with pytest.raises(ValueError, match="self-loop"):
        net.add_edge("a", "a")
    assert edge_weights(net) == {("a", "c"): 1, ("a", "lonely"): 1, ("b", "d"): 5}
    empty = PlaceNetwork()
    empty.add_edge("x", "y", weight=4)
    assert empty == network({("x", "y"): 4})


def test_file_round_trip(tmp_path):
    net = merged_network(table([seq("p2", "p1", "p3"), seq("p1", "p2", device="d2")]))
    path = tmp_path / "net.csv"
    write_network(net, path)
    back = read_network(path)
    assert back == net
    assert back.label == net.label
    assert back.mode == "consecutive"
    # deterministic bytes
    write_network(net, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def test_file_round_trip_isolated_nodes(tmp_path):
    net = network({("a", "b"): 2}, nodes={"a", "b", "lonely"}, label="x")
    path = tmp_path / "net.csv"
    write_network(net, path)
    assert read_network(path).names == ["a", "b", "lonely"]
    assert path.read_text(encoding="utf-8") == oracles.format_network(net)


NETWORK_NAMES = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=",\n\r"))


@settings(max_examples=60, deadline=None)
@example({}, set())  # an empty network: the header alone
@example({}, {"a", "b"})  # isolated nodes only
@example({("a", "b"): 2**62, ("b", "é"): 1, ("a", "é"): 7}, {"lonely"})
@given(
    st.dictionaries(
        st.tuples(NETWORK_NAMES, NETWORK_NAMES).filter(lambda e: e[0] != e[1]),
        st.integers(1, 2**63 - 1),
        max_size=30,
    ),
    st.sets(NETWORK_NAMES, max_size=4),
)
def test_network_file_matches_the_row_formatter(tmp_path_factory, edges, nodes):
    edges = {tuple(sorted(e)): w for e, w in edges.items()}
    net = network(edges, nodes=nodes, label="x")
    path = tmp_path_factory.mktemp("net") / "net.csv"
    write_network(net, path)
    assert path.read_bytes() == oracles.format_network(net).encode()


def test_read_network_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n")
    message = f"{path}: missing column(s): poi_a, poi_b, weight"
    with pytest.raises(SchemaError, match=re.escape(message)):
        read_network(path)


@pytest.mark.parametrize(
    "row, message",
    [
        ("b,c", "wrong number of fields"),
        ("b,c,2,9", "wrong number of fields"),
        ("b,c,1.5", "non-integer weight '1.5'"),
        ("b,c,0", "weight must be >= 1"),
        ("c,b,2", "rows must satisfy poi_a < poi_b"),
        ("a,a,2", "rows must satisfy poi_a < poi_b"),
        ("a,b,3", "duplicate edge a,b"),
        ("b,d,3", "duplicate edge b,d"),
        ("b,c,-2", "weight must be >= 1"),
        ("b,c,9223372036854775808", "weight 9223372036854775808 exceeds 2**63 - 1"),
        ("  ", "wrong number of fields"),
    ],
)
def test_read_network_names_the_bad_row(tmp_path, row, message):
    path = tmp_path / "bad.csv"
    path.write_text(f"poi_a,poi_b,weight\na,b,1\n\nb,d,2\n{row}\nc,d,1\n")
    with pytest.raises(SchemaError, match=re.escape(f"{path}:5: {message}")):
        read_network(path)


def test_sidecar_isolated_nodes_label_and_mode_survive_round_trip(tmp_path):
    net = PlaceNetwork.from_arrays(
        ["a", "b", "lonely", "z"],
        np.array([0, 0]),
        np.array([1, 3]),
        np.array([2, 5]),
        label="2020-02-03..2020-02-05",
        mode="covisitation",
    )
    path = tmp_path / "net.csv"
    write_network(net, path)
    back = read_network(path)
    assert back == net
    assert (back.names, back.label, back.mode) == (
        ["a", "b", "lonely", "z"], "2020-02-03..2020-02-05", "covisitation"
    )
    sidecar_path(path).unlink()  # without the sidecar only the edge list remains
    bare = read_network(path)
    assert (bare.names, bare.label, bare.mode) == (["a", "b", "z"], "", None)
    assert edge_weights(bare) == {("a", "b"): 2, ("a", "z"): 5}


def test_csr_adjacency_matches_network():
    built = merged_network(table([seq("p1", "p2", "p3", "p1"), seq("p4", "p2", device="d2")]))
    repeated = merged_network(
        table([seq("p1", "p2", "p3", "p1", "p2"), seq("p4", "p2", device="d2")])
    )
    isolated = network(edge_weights(built), nodes=["p0", "p5"])
    for net in (built, repeated, PlaceNetwork(), isolated):
        nodes, indptr, indices = csr_adjacency(net)
        adj = adjacency(net)
        assert nodes == sorted(net.names)
        assert indptr.dtype == indices.dtype == np.int64
        assert indptr.size == len(nodes) + 1 and indptr[-1] == indices.size
        for i, node in enumerate(nodes):
            neighbors = [nodes[j] for j in indices[indptr[i] : indptr[i + 1]]]
            assert neighbors == sorted(adj[node])


@pytest.mark.parametrize("n, p, seed", [(2, 1.0, 0), (40, 0.3, 1), (300, 0.05, 2), (500, 0.4, 3)])
def test_weighted_csr_order_equals_the_lexsort_order(n, p, seed):
    # csr_adjacency of a weighted network lists both ends of every edge in (src, dst) order
    rng = np.random.default_rng(seed)
    src, dst = np.triu_indices(n, 1)
    kept = rng.random(src.size) < p
    src, dst = src[kept], dst[kept]
    weights = rng.integers(1, 50, size=src.size)
    net = PlaceNetwork.from_arrays([f"p{i:04d}" for i in range(n)], src, dst, weights)
    _, indptr, indices = csr_adjacency(net)
    ends = np.concatenate((net.src, net.dst)), np.concatenate((net.dst, net.src))
    order = np.lexsort((ends[1], ends[0]))
    assert np.array_equal(indices, ends[1][order])
    assert np.array_equal(np.repeat(np.arange(n), np.diff(indptr)), ends[0][order])


@pytest.mark.parametrize("n, m, seed", [(2, 5, 0), (12, 400, 1), (40, 3000, 2)])
def test_from_arrays_sums_shuffled_repeated_edges_as_a_dict_does(n, m, seed):
    rng = np.random.default_rng(seed)
    a, b = rng.integers(0, n, m), rng.integers(0, n, m)
    a, b = a[a != b], b[a != b]
    src, dst, weights = np.minimum(a, b), np.maximum(a, b), rng.integers(1, 9, a.size)
    sums = {}
    for edge, w in zip(zip(src.tolist(), dst.tolist()), weights.tolist()):
        sums[edge] = sums.get(edge, 0) + w
    assert len(sums) < a.size  # some pairs repeat
    net = PlaceNetwork.from_arrays([f"p{i:02d}" for i in range(n)], src, dst, weights)
    assert net.src.dtype == net.dst.dtype == net.weights.dtype == np.int64
    assert list(zip(net.src.tolist(), net.dst.tolist())) == sorted(sums)
    assert net.weights.tolist() == [sums[edge] for edge in sorted(sums)]


def test_sum_edges_keeps_codes_just_below_2_31():
    n = 2**31
    src = np.array([n - 2, 0, n - 2, 1, 0], dtype=np.int64)
    dst = np.array([n - 1, n - 1, n - 1, n - 2, n - 1], dtype=np.int64)
    src, dst, weights = _sum_edges(n, src, dst, np.array([3, 4, 5, 6, 7], dtype=np.int64))
    assert src.tolist() == [0, 1, n - 2]
    assert dst.tolist() == [n - 1, n - 2, n - 1]
    assert weights.tolist() == [11, 6, 8]


def _brute_force_edges(seqs, mode):
    edges = {}
    for s in seqs:
        if mode == "consecutive":
            pairs = list(zip(s.stays, s.stays[1:]))
        else:
            distinct = sorted(set(s.stays))
            pairs = [(a, b) for i, a in enumerate(distinct) for b in distinct[i + 1 :]]
        for a, b in pairs:
            key = (min(a, b), max(a, b))
            edges[key] = edges.get(key, 0) + 1
    return edges


@settings(max_examples=100)
@given(
    st.lists(
        st.lists(st.sampled_from(["p0", "p1", "p2", "p3", "p4", "p5"]), min_size=2, max_size=7),
        min_size=1,
        max_size=15,
    ),
    st.sampled_from(["consecutive", "covisitation"]),
)
def test_build_network_matches_brute_force(walks, mode):
    seqs = []
    for i, walk in enumerate(walks):
        collapsed = [v for j, v in enumerate(walk) if j == 0 or walk[j - 1] != v]
        if len(collapsed) >= 2:
            seqs.append(seq(*collapsed, device=f"d{i}", day=DAY + dt.timedelta(days=i % 3)))
    if not seqs:
        return
    daily, net = day_networks(table(seqs), mode)
    daily = list(daily)
    assert edge_weights(net) == _brute_force_edges(seqs, mode)
    assert set(net.names) == {p for s in seqs for p in s.stays}
    assert net.total_weight == sum(_brute_force_edges(seqs, mode).values())
    days = sorted({s.local_date for s in seqs})
    assert [day_net.label for day_net in daily] == [day.isoformat() for day in days]
    for day_net, day in zip(daily, days):
        on_day = [s for s in seqs if s.local_date == day]
        assert edge_weights(day_net) == _brute_force_edges(on_day, mode)
        assert set(day_net.names) == {p for s in on_day for p in s.stays}


NODE_NAMES = st.text("abcxyz019_-.", min_size=1, max_size=4)
# Ids a network file holds unquoted that a quoting or fixed-width parse would
# change: a leading quote, non-ASCII letters, spaces and a trailing NUL.
ODD_NODE_NAMES = st.one_of(
    NODE_NAMES,
    NODE_NAMES.map(lambda v: '"' + v),
    st.text("éü中 ab", min_size=1, max_size=4),
    NODE_NAMES.map(lambda v: f"{v} {v}"),
    NODE_NAMES.map(lambda v: v + "\x00"),
)


@st.composite
def networks(draw, names=NODE_NAMES):
    nodes = draw(st.lists(names, unique=True, max_size=8))
    label = draw(st.text(max_size=12))
    mode = draw(st.sampled_from([None, "consecutive", "covisitation", "reference"]))
    ends = st.sampled_from(nodes) if nodes else st.nothing()
    edges: dict = {}
    for a, b in draw(st.lists(st.tuples(ends, ends))):
        if a != b:
            edge = (min(a, b), max(a, b))
            edges[edge] = edges.get(edge, 0) + draw(st.integers(1, 10**12))
    return network(edges, nodes=nodes, label=label, mode=mode)


@settings(max_examples=100)
@example(PlaceNetwork())
@example(network({}, nodes=["lonely"], label="2020-02-03", mode="consecutive"))
@given(networks())
def test_network_file_round_trips_any_network(tmp_path_factory, net):
    path = tmp_path_factory.mktemp("net") / "net.csv"
    write_network(net, path, extra_meta={"days": 3})
    back = read_network(path)
    assert back == net
    assert (back.label, back.mode, back.names) == (net.label, net.mode, net.names)
    meta = json.loads(sidecar_path(path).read_text())
    isolated = sorted(set(net.names) - {v for edge in edge_weights(net) for v in edge})
    assert meta["isolated_nodes"] == isolated and meta["days"] == 3
    assert (meta["nodes"], meta["edges"], meta["total_weight"]) == (
        net.n_nodes, net.n_edges, net.total_weight
    )
    write_network(back, path.with_name("again.csv"), extra_meta={"days": 3})
    assert path.with_name("again.csv").read_bytes() == path.read_bytes()


def _read_outcome(path):
    try:
        net = read_network(path)
    except SchemaError as exc:
        return type(exc), str(exc)
    return net, net.names, net.label, net.mode


def _read_both_ways(path):
    """read_network's outcome through its block reader, in blocks of 3 rows,
    and through the row reader alone, and whether the block reader read the file."""
    bulk = network_module._bulk_edges
    read = []

    def spy(rows):
        edges = bulk(rows)
        read.append(edges is not None)
        return edges

    with mock.patch.object(network_module, "_bulk_edges", spy), \
            mock.patch.object(ingest, "_STOP_BLOCK", 3):
        fast = _read_outcome(path)
    with mock.patch.object(network_module, "_bulk_edges", lambda rows: None):
        slow = _read_outcome(path)
    return fast, slow, read == [True]


@settings(max_examples=100, deadline=None)
@example(network(
    {('"p', "q"): 2, ("q", "é中"): 1, ("a b", "q\x00"): 3, ("q", "q\x00"): 4},
    nodes=["lonely", " "], label="2020-02-03", mode="covisitation",
))
@example(network({(" a", "a"): 1, ("a", "b "): 2}))  # names that differ only by a space stay apart
@given(networks(ODD_NODE_NAMES))
def test_block_and_row_readers_read_any_written_network_alike(tmp_path_factory, net):
    path = tmp_path_factory.mktemp("net") / "net.csv"
    write_network(net, path)
    fast, slow, bulk = _read_both_ways(path)
    assert fast == slow == (net, net.names, net.label, net.mode)
    assert bulk  # a file write_network wrote needs no row reader


@pytest.mark.parametrize(
    "rows, bulk",
    [
        ("", True),  # the header alone
        ("b,c,1\na,b,2\n", True),  # rows out of order
        ("a,b, 5\nb,c,+7\n", True),
        ("a,b,1_000\nb,c,5\n", False),  # 1_000 only int() reads
        ("a,b,9223372036854775807\nb,c,1\n", True),  # the total leaves int64: SchemaError
    ],
    ids=["header-only", "unsorted", "signs-and-spaces", "int-only-weight", "total-past-int64"],
)
def test_block_and_row_readers_read_a_hand_written_file_alike(tmp_path, rows, bulk):
    path = tmp_path / "net.csv"
    path.write_text("poi_a,poi_b,weight\n" + rows)
    fast, slow, read_in_blocks = _read_both_ways(path)
    assert fast == slow and read_in_blocks is bulk


@pytest.mark.parametrize("rows_before", [2, 3000], ids=["first-chunk", "later-block"])
def test_read_network_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, rows_before):
    path = tmp_path / "net.csv"
    head = "".join(["poi_a,poi_b,weight\n", *(f"a,b{i:05d},1\n" for i in range(rows_before))])
    path.write_bytes(head.encode() + b"b,\xffc,1\n")
    message = f"{path}:{rows_before + 2}: not UTF-8: invalid start byte at byte {len(head) + 2}"
    with pytest.raises(RowError, match=f"^{re.escape(message)}$"):
        read_network(path)
