import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from placeweave.errors import SchemaError
from placeweave.ingest import StaySequence
from placeweave.network import (
    PlaceNetwork,
    build_network,
    csr_adjacency,
    merge_networks,
    read_network,
    weighted_csr,
    write_network,
)

DAY = dt.date(2020, 2, 3)


def seq(*stays, device="d1", day=DAY):
    return StaySequence(device, day, tuple(stays))


def test_consecutive_chain():
    net = build_network([seq("p1", "p2", "p3")], mode="consecutive")
    assert net.edges == {("p1", "p2"): 1, ("p2", "p3"): 1}


def test_covisitation_clique():
    net = build_network([seq("p1", "p2", "p3")], mode="covisitation")
    assert net.edges == {("p1", "p2"): 1, ("p1", "p3"): 1, ("p2", "p3"): 1}


def test_ten_coinciding_trips_weigh_ten():
    seqs = [seq("pA", "pB", device=f"d{i}") for i in range(10)]
    net = build_network(seqs, mode="consecutive")
    assert net.edges == {("pA", "pB"): 10}


def test_covisitation_counts_pair_once_per_sequence():
    net = build_network([seq("p1", "p2", "p1")], mode="covisitation")
    assert net.edges == {("p1", "p2"): 1}


def test_short_sequence_rejected():
    with pytest.raises(ValueError):
        build_network([StaySequence("d1", DAY, ("p1",))])


def test_consecutive_duplicate_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        build_network([seq("p1", "p1", "p2")], mode="consecutive")


def test_label_defaults_to_date_range():
    seqs = [seq("a", "b"), seq("a", "b", day=dt.date(2020, 2, 7))]
    assert build_network(seqs).label == "2020-02-03..2020-02-07"
    assert build_network([seq("a", "b")]).label == "2020-02-03"


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
    net = build_network(seqs, mode="consecutive")
    assert net.total_weight == sum(len(s.stays) - 1 for s in seqs)
    assert all(a != b for a, b in net.edges)  # no self-loops


def test_merge_identity_and_disjoint_and_additive():
    n1 = build_network([seq("a", "b")])
    assert merge_networks([n1]).edges == n1.edges

    n2 = build_network([seq("c", "d")])
    merged = merge_networks([n1, n2])
    assert merged.edges == {("a", "b"): 1, ("c", "d"): 1}

    n3 = build_network([seq("a", "b", device=f"x{i}") for i in range(3)])
    assert merge_networks([n3, n3]).edges == {("a", "b"): 6}


def test_merge_associative_commutative_up_to_label():
    nets = [
        build_network([seq("a", "b", day=dt.date(2020, 2, d))], label=f"2020-02-0{d}")
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
    net = build_network([seq("p2", "p1", "p3"), seq("p1", "p2", device="d2")])
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
    built = build_network([seq("p1", "p2", "p3", "p1"), seq("p4", "p2", device="d2")])
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
    built = build_network([seq("p1", "p2", "p3", "p1", "p2"), seq("p4", "p2", device="d2")])
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
