import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import zipf

import placeweave
from oracles import adjacency, brute_force_barrat, brute_force_unweighted_clustering, exact_barrat
from placeweave.metrics import (
    DegreeHistogram,
    average_clustering,
    degree,
    degree_distribution,
    fit_power_law,
    local_clustering,
    local_clustering_weighted,
    network_summary,
    poisson_reference,
)
from placeweave.network import PlaceNetwork
from placeweave.refnets import RefNetSpec, gen_random_network


def triangle(weights=(1, 1, 1)):
    net = PlaceNetwork()
    net.add_edge("a", "b", weights[0])
    net.add_edge("b", "c", weights[1])
    net.add_edge("a", "c", weights[2])
    return net


def weighted_random_net(n, p, seed, wmax=9):
    rng = random.Random(seed)
    net = PlaceNetwork(nodes=[f"p{i:02d}" for i in range(n)])
    for a, b in itertools.combinations(net.names, 2):
        if rng.random() < p:
            net.add_edge(a, b, rng.randint(1, wmax))
    return net


# -- degree and distribution --------------------------------------------------


def test_degree_star_center():
    net = PlaceNetwork()
    for leaf in "bcd":
        net.add_edge("a", leaf)
    assert degree(net, "a") == 3
    assert degree(net, "b") == 1


def test_degree_isolated_and_triangle():
    net = triangle()
    net.add_node("lonely")
    net._adj = None
    assert degree(net, "lonely") == 0
    assert degree(net, "a") == 2


def test_degree_unknown_node():
    with pytest.raises(KeyError):
        degree(triangle(), "zz")


def test_degree_histogram_counts_isolated_nodes_and_matches_adjacency():
    net = triangle()
    net.add_edge("a", "leaf")
    for node in ("x", "y"):
        net.add_node(node)
    hist = degree_distribution(net)
    assert hist.counts == {0: 2, 1: 1, 2: 2, 3: 1}
    assert all(type(k) is int and type(c) is int for k, c in hist.counts.items())
    for seed in range(5):
        net = weighted_random_net(40, 0.1, seed)
        want: dict[int, int] = {}
        for nbrs in adjacency(net).values():
            k = len(nbrs)
            want[k] = want.get(k, 0) + 1
        assert degree_distribution(net).counts == want


def test_histogram_triangle():
    hist = degree_distribution(triangle())
    assert hist.counts == {2: 3}
    assert hist.pdf_at(2) == 1.0
    assert hist.ccdf_at(2) == 1.0
    assert hist.ccdf_at(3) == 0.0


def test_histogram_path():
    net = PlaceNetwork()
    net.add_edge("a", "b")
    net.add_edge("b", "c")
    assert degree_distribution(net).counts == {1: 2, 2: 1}


def test_histogram_includes_degree_zero():
    net = PlaceNetwork(nodes={"a", "b", "lonely"}, edges={("a", "b"): 1})
    hist = degree_distribution(net)
    assert hist.counts == {0: 1, 1: 2}
    assert hist.ccdf_at(0) == 1.0


def test_handshake_lemma_on_random_nets():
    for seed in range(5):
        net = weighted_random_net(30, 0.2, seed)
        hist = degree_distribution(net)
        assert sum(k * c for k, c in hist.counts.items()) == 2 * net.n_edges


def test_pdf_sums_to_one_and_ccdf_monotone():
    net = weighted_random_net(40, 0.15, 3)
    hist = degree_distribution(net)
    rows = hist.curve()
    assert abs(sum(pdf for _, _, pdf, _ in rows) - 1.0) < 1e-12
    ccdfs = [c for *_, c in rows]
    assert all(x >= y for x, y in zip(ccdfs, ccdfs[1:]))


def test_er_histogram_mean_near_target():
    # sample mean of binomial degrees over 20 seeds vs (n-1)p = 9.995
    target = 0.005 * 1999
    means = []
    for s in range(20):
        net = gen_random_network(RefNetSpec("random", 2000, target, s))
        means.append(degree_distribution(net).mean())
    realized = sum(means) / len(means)
    assert abs(realized - target) / target < 0.10


# -- weighted clustering ------------------------------------------------------


def test_clustering_unit_triangle_is_one():
    net = triangle()
    for node in "abc":
        assert local_clustering_weighted(net, node) == 1.0


def test_clustering_path_center_is_zero():
    net = PlaceNetwork()
    net.add_edge("a", "b")
    net.add_edge("b", "c")
    assert local_clustering_weighted(net, "b") == 0.0
    assert local_clustering_weighted(net, "a") == 0.0


def test_clustering_weighted_example():
    # triangle 1-2-3 with w12=1, w13=3, plus pendant w14=2 hanging off node 1:
    # direct Barrat evaluation gives ((1+3)) / (6 * 2) = 1/3
    net = PlaceNetwork()
    net.add_edge("n1", "n2", 1)
    net.add_edge("n1", "n3", 3)
    net.add_edge("n2", "n3", 1)
    net.add_edge("n1", "n4", 2)
    assert local_clustering_weighted(net, "n1") == pytest.approx(brute_force_barrat(net, "n1"), abs=1e-15)
    assert local_clustering_weighted(net, "n1") == pytest.approx(1.0 / 3.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_clustering_matches_direct_summation(seed):
    net = weighted_random_net(30 + seed % 21, 0.2, seed)
    for node in net.names:
        assert local_clustering_weighted(net, node) == pytest.approx(
            brute_force_barrat(net, node), abs=1e-12
        )


def test_equal_weights_reduce_to_unweighted():
    for seed in range(5):
        net = weighted_random_net(25, 0.25, seed, wmax=1)
        for node in net.names:
            assert local_clustering_weighted(net, node) == pytest.approx(
                brute_force_unweighted_clustering(net, node), abs=1e-12
            )


def star(leaves: int) -> PlaceNetwork:
    net = PlaceNetwork()
    for i in range(leaves):
        net.add_edge("hub", f"leaf{i}", i + 1)
    return net


def clique(n: int, wmax: int, seed: int) -> PlaceNetwork:
    rng = random.Random(seed)
    net = PlaceNetwork()
    for a, b in itertools.combinations([f"c{i}" for i in range(n)], 2):
        net.add_edge(a, b, rng.randint(1, wmax))
    return net


def with_leaves_and_isolated(net: PlaceNetwork) -> PlaceNetwork:
    net.add_edge("c0", "pendant0", 3)
    net.add_edge("c1", "pendant1", 10**6)
    for node in ("alone0", "alone1"):
        net.add_node(node)
    return net


EDGE_CASES = {
    "no-edges": PlaceNetwork(nodes=["a", "b", "c"]),
    "isolated-and-leaves": with_leaves_and_isolated(clique(4, 9, 1)),
    "star": star(7),
    "clique": clique(7, 9, 2),
    "heavy-weights": clique(6, 10**6, 3),
    "heavy-with-leaves": with_leaves_and_isolated(clique(5, 10**6, 4)),
}


@st.composite
def weighted_graphs(draw):
    n = draw(st.integers(1, 12))
    nodes = [f"v{i:02d}" for i in range(n)]
    wmax = draw(st.sampled_from([1, 9, 10**6]))
    net = PlaceNetwork(nodes=nodes)
    for a, b in itertools.combinations(nodes, 2):
        if draw(st.booleans()):
            net.add_edge(a, b, draw(st.integers(1, wmax)))
    return net


def check_clustering_against_oracles(net: PlaceNetwork) -> None:
    nodes, local = local_clustering(net)
    assert nodes == sorted(net.names)
    values = local.tolist()
    for node, got in zip(nodes, values):
        assert abs(got - brute_force_barrat(net, node)) <= 1e-12, node
        assert got == exact_barrat(net, node), node
        assert local_clustering_weighted(net, node) == got
    oracle = [brute_force_barrat(net, node) for node in nodes]
    assert abs(average_clustering(net) - sum(oracle) / len(nodes)) <= 1e-12


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_vectorized_clustering_matches_oracle_on_edge_cases(name):
    check_clustering_against_oracles(EDGE_CASES[name])


@settings(max_examples=150, deadline=None)
@given(weighted_graphs())
def test_vectorized_clustering_matches_oracle(net):
    check_clustering_against_oracles(net)


def test_average_clustering_is_sequential_sum_in_node_order():
    # on this network a pairwise (np.sum) or compensated (math.fsum) sum of
    # the same values gives different bits
    net = weighted_random_net(60, 0.3, 0, wmax=1000)
    values = [exact_barrat(net, node) for node in net.names]
    total = 0.0
    for value in values:
        total += value
    assert average_clustering(net) == total / len(values)


def test_local_clustering_unknown_node():
    with pytest.raises(KeyError):
        local_clustering_weighted(triangle(), "zz")


def test_average_clustering_extremes():
    tree = PlaceNetwork()
    for child in "bcd":
        tree.add_edge("a", child)
    tree.add_edge("b", "e")
    assert average_clustering(tree) == 0.0

    k4 = PlaceNetwork()
    for a, b in itertools.combinations("abcd", 2):
        k4.add_edge(a, b)
    assert average_clustering(k4) == 1.0


def test_star_average_clustering_zero():
    net = PlaceNetwork()
    for leaf in "bcd":
        net.add_edge("a", leaf)
    assert average_clustering(net) == 0.0


# -- summary ------------------------------------------------------------------


def test_summary_triangle_weight_two():
    summary = network_summary(triangle((2, 2, 2)))
    assert (summary.nodes, summary.edges, summary.total_weight) == (3, 3, 6)
    assert summary.average_degree == 2.0
    assert summary.average_clustering == 1.0


def test_summary_schema_columns():
    doc = network_summary(triangle()).as_dict()
    assert set(doc) == {
        "nodes",
        "edges",
        "total_weight",
        "average_degree",
        "average_clustering",
        "label",
    }


def test_summary_single_edge():
    net = PlaceNetwork()
    net.add_edge("a", "b", 5)
    summary = network_summary(net)
    assert (summary.nodes, summary.edges, summary.total_weight) == (2, 1, 5)
    assert summary.average_degree == 1.0
    assert summary.average_clustering == 0.0


def test_summary_empty_rejected():
    with pytest.raises(ValueError):
        network_summary(PlaceNetwork())


# -- power-law fit ------------------------------------------------------------


def zipf_histogram(alpha, n, seed):
    data = zipf.rvs(alpha, size=n, random_state=seed)
    counts = {}
    for k in data:
        counts[int(k)] = counts.get(int(k), 0) + 1
    return DegreeHistogram(counts, n)


def test_fit_recovers_generating_exponent():
    hist = zipf_histogram(2.5, 50_000, 42)
    fit = fit_power_law(hist, xmin=1)
    assert abs(fit.exponent - 2.5) <= 0.1
    assert 0.0 <= fit.ks_distance <= 1.0


def test_fit_degenerate_histogram_rejected():
    with pytest.raises(ValueError):
        fit_power_law(DegreeHistogram({7: 100}, 100))


def test_fit_invariant_under_count_duplication():
    hist = zipf_histogram(2.2, 5000, 7)
    doubled = DegreeHistogram({k: 2 * c for k, c in hist.counts.items()}, 2 * hist.n)
    assert fit_power_law(hist).exponent == pytest.approx(
        fit_power_law(doubled).exponent, abs=1e-9
    )


def test_fit_xmin_scan_prefers_tail():
    hist = zipf_histogram(2.5, 20_000, 3)
    shifted = DegreeHistogram({k + 5: c for k, c in hist.counts.items()}, hist.n)
    scanned = fit_power_law(shifted, scan_xmin=True)
    assert scanned.xmin >= 6
    assert scanned.ks_distance <= fit_power_law(shifted, xmin=1).ks_distance


# -- Poisson reference --------------------------------------------------------


def test_poisson_pmf_at_zero():
    curve = dict(poisson_reference(1.0, [0]))
    assert curve[0] == pytest.approx(math.exp(-1), rel=1e-12)


def test_poisson_peak_matches_mode():
    # county-scale average degree 17.187: pmf mode sits at floor(lambda)
    curve = poisson_reference(17.187, list(range(61)))
    peak_k = max(curve, key=lambda kv: kv[1])[0]
    assert peak_k == 17


def test_poisson_normalizes():
    total = sum(p for _, p in poisson_reference(17.187, list(range(200))))
    assert abs(total - 1.0) < 1e-9


def test_poisson_reference_equals_scipy_pmf_exactly():
    from scipy.stats import poisson

    for lam in (0.01, 0.37, 1.0, 2.5, 9.995, 17.187, 64.0, 199.82, 1234.5):
        ks = list(range(int(lam + 12 * math.sqrt(lam)) + 10))
        got = poisson_reference(lam, ks)
        assert [k for k, _ in got] == ks
        assert [p for _, p in got] == [float(poisson.pmf(k, lam)) for k in ks], lam
    default = poisson_reference(3.0)
    assert [p for _, p in default] == [float(poisson.pmf(k, 3.0)) for k, _ in default]


def test_import_loads_neither_scipy_stats_nor_scipy_optimize():
    code = (
        "import sys, placeweave; "
        "print([m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules])"
    )
    src = str(Path(placeweave.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.strip() == "[]"


def test_poisson_rejects_nonpositive():
    with pytest.raises(ValueError):
        poisson_reference(0.0)
