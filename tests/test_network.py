import datetime as dt
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from placeweave.errors import SchemaError
from placeweave.ingest import SequenceTable, StaySequence
from placeweave.network import (
    PlaceNetwork,
    build_network,
    csr_adjacency,
    merge_networks,
    read_network,
    sidecar_path,
    weighted_csr,
    write_network,
)

DAY = dt.date(2020, 2, 3)


def seq(*stays, device="d1", day=DAY):
    return StaySequence(device, day, tuple(stays))


def table(seqs):
    return SequenceTable.from_sequences(seqs)


def test_consecutive_chain():
    net = build_network(table([seq("p1", "p2", "p3")]), mode="consecutive")
    assert net.edges == {("p1", "p2"): 1, ("p2", "p3"): 1}


def test_covisitation_clique():
    net = build_network(table([seq("p1", "p2", "p3")]), mode="covisitation")
    assert net.edges == {("p1", "p2"): 1, ("p1", "p3"): 1, ("p2", "p3"): 1}


def test_ten_coinciding_trips_weigh_ten():
    seqs = [seq("pA", "pB", device=f"d{i}") for i in range(10)]
    net = build_network(table(seqs), mode="consecutive")
    assert net.edges == {("pA", "pB"): 10}


def test_covisitation_counts_pair_once_per_sequence():
    net = build_network(table([seq("p1", "p2", "p1")]), mode="covisitation")
    assert net.edges == {("p1", "p2"): 1}


def test_short_sequence_rejected():
    with pytest.raises(ValueError):
        build_network(table([StaySequence("d1", DAY, ("p1",))]))


def test_consecutive_duplicate_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        build_network(table([seq("p1", "p1", "p2")]), mode="consecutive")


def test_label_defaults_to_date_range():
    seqs = [seq("a", "b"), seq("a", "b", day=dt.date(2020, 2, 7))]
    assert build_network(table(seqs)).label == "2020-02-03..2020-02-07"
    assert build_network(table([seq("a", "b")])).label == "2020-02-03"


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
            seqs.append(StaySequence(f"d{i}", DAY, tuple(collapsed)))
    if not seqs:
        return
    net = build_network(table(seqs), mode="consecutive")
    assert net.total_weight == sum(len(s.stays) - 1 for s in seqs)
    assert all(a != b for a, b in net.edges)  # no self-loops


def test_merge_identity_and_disjoint_and_additive():
    n1 = build_network(table([seq("a", "b")]))
    assert merge_networks([n1]).edges == n1.edges

    n2 = build_network(table([seq("c", "d")]))
    merged = merge_networks([n1, n2])
    assert merged.edges == {("a", "b"): 1, ("c", "d"): 1}

    n3 = build_network(table([seq("a", "b", device=f"x{i}") for i in range(3)]))
    assert merge_networks([n3, n3]).edges == {("a", "b"): 6}


def test_merge_associative_commutative_up_to_label():
    nets = [
        build_network(table([seq("a", "b", day=dt.date(2020, 2, d))]), label=f"2020-02-0{d}")
        for d in (1, 2, 3)
    ]
    left = merge_networks([merge_networks(nets[:2]), nets[2]])
    right = merge_networks([nets[0], merge_networks(nets[1:])])
    swapped = merge_networks(nets[::-1])
    assert left.edges == right.edges == swapped.edges
    assert left.nodes == right.nodes == swapped.nodes
    assert swapped.label == "2020-02-01..2020-02-03"


def test_merge_empty_rejected():
    with pytest.raises(ValueError):
        merge_networks([])


def test_file_round_trip(tmp_path):
    net = build_network(table([seq("p2", "p1", "p3"), seq("p1", "p2", device="d2")]))
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
    net = PlaceNetwork(nodes={"a", "b", "lonely"}, edges={("a", "b"): 2}, label="x")
    path = tmp_path / "net.csv"
    write_network(net, path)
    assert read_network(path).nodes == {"a", "b", "lonely"}


def test_read_network_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n")
    with pytest.raises(SchemaError):
        read_network(path)


def test_csr_adjacency_matches_network():
    built = build_network(table([seq("p1", "p2", "p3", "p1"), seq("p4", "p2", device="d2")]))
    isolated = PlaceNetwork(nodes=["p0", "p5"], edges=dict(built.edges))
    for net in (built, PlaceNetwork(), isolated):
        nodes, indptr, indices = csr_adjacency(net)
        assert nodes == sorted(net.nodes)
        assert indptr.dtype == indices.dtype == np.int64
        assert indptr.size == len(nodes) + 1 and indptr[-1] == indices.size
        for i, node in enumerate(nodes):
            neighbors = [nodes[j] for j in indices[indptr[i] : indptr[i + 1]]]
            assert neighbors == sorted(net.adjacency[node])


def test_weighted_csr_weights_follow_indices():
    built = build_network(table([seq("p1", "p2", "p3", "p1", "p2"), seq("p4", "p2", device="d2")]))
    isolated = PlaceNetwork(nodes=["p0", "p5"], edges=dict(built.edges))
    for net in (built, PlaceNetwork(), isolated):
        nodes, indptr, indices, weights = weighted_csr(net)
        csr_nodes, csr_indptr, csr_indices = csr_adjacency(net)
        assert nodes == csr_nodes
        assert np.array_equal(indptr, csr_indptr) and np.array_equal(indices, csr_indices)
        assert weights.dtype == np.int64 and weights.size == indices.size
        for i, node in enumerate(nodes):
            row = range(indptr[i], indptr[i + 1])
            assert [weights[e] for e in row] == [net.weight(node, nodes[indices[e]]) for e in row]
    assert weighted_csr(built)[3].sum() == 2 * built.total_weight


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
    net = build_network(table(seqs), mode=mode)
    assert dict(net.edges) == _brute_force_edges(seqs, mode)
    assert net.nodes == {p for s in seqs for p in s.stays}
    assert net.total_weight == sum(_brute_force_edges(seqs, mode).values())


NODE_NAMES = st.text("abcxyz019_-.", min_size=1, max_size=4)


@st.composite
def networks(draw):
    nodes = draw(st.lists(NODE_NAMES, unique=True, max_size=8))
    net = PlaceNetwork(
        nodes=nodes,
        label=draw(st.text(max_size=12)),
        mode=draw(st.sampled_from([None, "consecutive", "covisitation", "reference"])),
    )
    ends = st.sampled_from(nodes) if nodes else st.nothing()
    for a, b in draw(st.lists(st.tuples(ends, ends))):
        if a != b:
            net.add_edge(a, b, draw(st.integers(1, 10**12)))
    return net


@settings(max_examples=100)
@example(PlaceNetwork())
@example(PlaceNetwork(nodes=["lonely"], label="2020-02-03", mode="consecutive"))
@given(networks())
def test_network_file_round_trips_any_network(tmp_path_factory, net):
    path = tmp_path_factory.mktemp("net") / "net.csv"
    write_network(net, path, extra_meta={"days": 3})
    back = read_network(path)
    assert back == net
    assert (back.label, back.mode, back.nodes) == (net.label, net.mode, net.nodes)
    meta = json.loads(sidecar_path(path).read_text())
    isolated = sorted(net.nodes - {v for edge in net.edges for v in edge})
    assert meta["isolated_nodes"] == isolated and meta["days"] == 3
    assert (meta["nodes"], meta["edges"], meta["total_weight"]) == (
        net.n_nodes, net.n_edges, net.total_weight
    )
    write_network(back, path.with_name("again.csv"), extra_meta={"days": 3})
    assert path.with_name("again.csv").read_bytes() == path.read_bytes()
