import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import zipf

import placeweave
from oracles import (
    adjacency,
    brute_force_barrat,
    brute_force_unweighted_clustering,
    degree,
    edge_weights,
    exact_barrat,
    local_clustering_weighted,
    network,
    scipy_local_clustering,
)
from placeweave import _fastcount, metrics
from placeweave.metrics import (
    _brentq,
    DegreeHistogram,
    average_clustering,
    degree_distribution,
    fit_power_law,
    local_clustering,
    network_summary,
    poisson_reference,
)
from placeweave.network import PlaceNetwork, write_network
from placeweave.refnets import RefNetSpec, gen_random_network
from test_acceptance import _county_scale_graph


def triangle(weights=(1, 1, 1)):
    return network({("a", "b"): weights[0], ("b", "c"): weights[1], ("a", "c"): weights[2]})


def weighted_random_net(n, p, seed, wmax=9):
    rng = random.Random(seed)
    nodes = [f"p{i:02d}" for i in range(n)]
    edges = {}
    for a, b in itertools.combinations(nodes, 2):
        if rng.random() < p:
            edges[a, b] = rng.randint(1, wmax)
    return network(edges, nodes=nodes)


# -- degree and distribution --------------------------------------------------


def test_degree_star_center():
    net = network({("a", leaf): 1 for leaf in "bcd"})
    assert degree(net, "a") == 3
    assert degree(net, "b") == 1


def test_degree_isolated_and_triangle():
    net = network(edge_weights(triangle()), nodes=["lonely"])
    assert degree(net, "lonely") == 0
    assert degree(net, "a") == 2


def test_degree_unknown_node():
    with pytest.raises(KeyError):
        degree(triangle(), "zz")


def test_degree_histogram_counts_isolated_nodes_and_matches_adjacency():
    net = network({**edge_weights(triangle()), ("a", "leaf"): 1}, nodes=("x", "y"))
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
    net = network({("a", "b"): 1, ("b", "c"): 1})
    assert degree_distribution(net).counts == {1: 2, 2: 1}


def test_histogram_includes_degree_zero():
    net = network({("a", "b"): 1}, nodes={"a", "b", "lonely"})
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
    net = network({("a", "b"): 1, ("b", "c"): 1})
    assert local_clustering_weighted(net, "b") == 0.0
    assert local_clustering_weighted(net, "a") == 0.0


def test_clustering_weighted_example():
    # triangle 1-2-3 with w12=1, w13=3, plus pendant w14=2 hanging off node 1:
    # direct Barrat evaluation gives ((1+3)) / (6 * 2) = 1/3
    net = network({("n1", "n2"): 1, ("n1", "n3"): 3, ("n2", "n3"): 1, ("n1", "n4"): 2})
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
    return network({("hub", f"leaf{i}"): i + 1 for i in range(leaves)})


def clique(n: int, wmax: int, seed: int) -> PlaceNetwork:
    rng = random.Random(seed)
    pairs = itertools.combinations([f"c{i}" for i in range(n)], 2)
    return network({(a, b): rng.randint(1, wmax) for a, b in pairs})


def with_leaves_and_isolated(net: PlaceNetwork) -> PlaceNetwork:
    edges = {**edge_weights(net), ("c0", "pendant0"): 3, ("c1", "pendant1"): 10**6}
    return network(edges, nodes=[*net.names, "alone0", "alone1"])


EDGE_CASES = {
    "no-edges": network({}, nodes=["a", "b", "c"]),
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
    edges = {}
    for a, b in itertools.combinations(nodes, 2):
        if draw(st.booleans()):
            edges[a, b] = draw(st.integers(1, wmax))
    return network(edges, nodes=nodes)


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


def random_net(n: int, p: float, seed: int) -> PlaceNetwork:
    """G(n, p) with weights drawn from 1..49."""
    rng = np.random.default_rng(seed)
    a, b = np.nonzero(np.triu(rng.random((n, n), dtype=np.float32) < p, 1))
    names = [f"v{i:04d}" for i in range(n)]
    return PlaceNetwork.from_arrays(names, a, b, rng.integers(1, 50, a.size))


def county_net() -> PlaceNetwork:
    """The criterion-9 county graph with weights drawn from 1..49."""
    net = _county_scale_graph()
    weights = np.random.default_rng(7).integers(1, 50, net.n_edges)
    return PlaceNetwork.from_arrays(list(net.names), net.src, net.dst, weights)


CAP = _fastcount._DENSE_MAX_NODES
# name -> (graph, whether the rule picks the dense form)
FORM_CASES = {
    "sparse-300": (lambda: random_net(300, 0.01, 1), False),
    "dense-300": (lambda: random_net(300, 0.3, 2), True),
    "readme-like-500": (lambda: random_net(500, 0.4, 3), True),
    "sparse-2048": (lambda: random_net(2048, 0.003, 4), False),
    "dense-2048": (lambda: random_net(2048, 0.05, 5), True),
    "at-the-cap": (lambda: random_net(CAP, 0.04, 6), True),
    "past-the-cap": (lambda: random_net(CAP + 1, 0.04, 7), False),
    "county": (county_net, False),
}


@pytest.mark.parametrize("name", sorted(FORM_CASES))
def test_both_clustering_forms_give_the_scipy_oracle_bits(name, monkeypatch):
    build, dense = FORM_CASES[name]
    net = build()
    nodes, oracle = scipy_local_clustering(net)
    picked = []
    dense_pays = _fastcount._dense_pays
    monkeypatch.setattr(
        _fastcount, "_dense_pays", lambda *a: picked.append(dense_pays(*a)) or picked[-1]
    )
    got_nodes, local = local_clustering(net)
    assert picked == [dense]  # a drift in the cost constants or the cap shows here
    assert (got_nodes, local.tobytes()) == (nodes, oracle.tobytes())
    if not dense and net.n_nodes > CAP + 1:
        return  # the dense matrices of the county graph would take 2 GB
    monkeypatch.setattr(_fastcount, "_dense_pays", lambda *a: not dense)
    assert local_clustering(net)[1].tobytes() == oracle.tobytes()


@pytest.mark.parametrize("dense", [True, False], ids=["dense", "triangles"])
def test_clustering_is_exact_past_2_to_the_53(dense, monkeypatch):
    # A hub joined to the 150 nodes of a path, weights near 2**47: its sum of
    # w * codeg passes 2**55, where a float64 sum of such terms rounds, while
    # its denominator still fits int64.
    leaves = 150
    src = np.concatenate((np.zeros(leaves, dtype=np.int64), np.arange(1, leaves)))
    dst = np.concatenate((np.arange(1, leaves + 1), np.arange(2, leaves + 1)))
    weights = 2**47 + np.random.default_rng(11).integers(0, 2**20, src.size)
    net = PlaceNetwork.from_arrays([f"v{i:03d}" for i in range(leaves + 1)], src, dst, weights)
    monkeypatch.setattr(_fastcount, "_dense_pays", lambda *a: dense)
    adj = adjacency(net)
    expected = []
    for node in net.names:
        nbrs = adj[node]
        num = sum(w * len(nbrs.keys() & adj[j].keys()) for j, w in nbrs.items())
        den = sum(nbrs.values()) * (len(nbrs) - 1)
        expected.append(np.float64(num) / np.float64(den) if len(nbrs) >= 2 else 0.0)
    hub = adj[net.names[0]]
    assert sum(w * len(hub.keys() & adj[j].keys()) for j, w in hub.items()) > 2**55
    assert sum(hub.values()) * (len(hub) - 1) < 2**63
    assert local_clustering(net)[1].tolist() == expected


def test_blas_thread_count_changes_no_metrics_bytes(tmp_path, monkeypatch):
    # The dense form's A @ A is the program's one BLAS call and may run on
    # several threads; its entries are integers below 2**24, exact in any order.
    net = FORM_CASES["readme-like-500"][0]()
    picked = []
    dense_pays = _fastcount._dense_pays
    monkeypatch.setattr(
        _fastcount, "_dense_pays", lambda *a: picked.append(dense_pays(*a)) or picked[-1]
    )
    local_clustering(net)
    assert picked == [True]
    write_network(net, tmp_path / "net.csv")
    src = str(Path(placeweave.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("OPENBLAS_THREAD_TIMEOUT", None)  # the timeout main sets applies
    trees = []
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}"
        subprocess.run(
            [sys.executable, "-m", "placeweave.cli", "metrics", "--network", "net.csv",
             "--out", out.name],
            env=dict(env, OPENBLAS_NUM_THREADS=threads), cwd=tmp_path, check=True,
        )
        trees.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert trees[0] == trees[1]
    assert json.loads(trees[0]["summary.json"])["average_clustering"] > 0


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
    tree = network({**{("a", child): 1 for child in "bcd"}, ("b", "e"): 1})
    assert average_clustering(tree) == 0.0

    k4 = network({pair: 1 for pair in itertools.combinations("abcd", 2)})
    assert average_clustering(k4) == 1.0


def test_star_average_clustering_zero():
    net = network({("a", leaf): 1 for leaf in "bcd"})
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
    summary = network_summary(network({("a", "b"): 5}))
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


def loaded_modules(code: str, cwd=None) -> str:
    """What a fresh interpreter prints after running code with placeweave importable."""
    src = str(Path(placeweave.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True, cwd=cwd
    )
    return done.stdout.strip()


def test_import_loads_neither_scipy_stats_nor_scipy_optimize():
    code = (
        "import sys, placeweave; "
        "print([m for m in ('scipy.stats', 'scipy.optimize', 'jsonschema') if m in sys.modules])"
    )
    assert loaded_modules(code) == "[]"


def test_run_loads_no_scipy_optimize(tmp_path):
    world = {"n_pois": 60, "bbox": [29.5, 30.0, -95.8, -95.2],
             "category_shares": {"7": 0.5, "18": 0.5}, "seed": 1}
    traffic = {"n_device_days": 600, "class_mix": {"M2_1": 0.5, "M3_2": 0.5},
               "date_range": ["2020-02-01", "2020-02-07"], "seed": 2}
    (tmp_path / "world.json").write_text(json.dumps(world), encoding="utf-8")
    (tmp_path / "traffic.json").write_text(json.dumps(traffic), encoding="utf-8")
    code = (
        "import sys; from placeweave import cli, metrics, stats; "
        "calls = []; brentq, check = metrics._brentq, stats._check_schema; "
        "metrics._brentq = lambda *a, **k: calls.append('brentq') or brentq(*a, **k); "
        "stats._check_schema = lambda *a: calls.append('schema') or check(*a); "
        "assert cli.main(['synth', '--world', 'world.json', '--traffic', 'traffic.json', "
        "'--out', 'data']) == 0; "
        "assert cli.main(['run', '--stops', 'data/stops.csv', '--pois', 'data/pois.csv', "
        "'--out', 'out']) == 0; "
        "print(calls, [m for m in sys.modules if m.startswith(('scipy', 'jsonschema'))])"
    )
    # the fit ran its root finder and the report was validated, with neither
    # scipy nor jsonschema loaded
    assert loaded_modules(code, cwd=tmp_path) == "['brentq', 'schema'] []"


def test_zeta_port_equals_scipy_at_random_points():
    from scipy.special import zeta

    rng = np.random.default_rng(29)
    x = rng.uniform(1, 51, 200_000)
    q = rng.integers(1, 2001, x.size).astype(np.float64)
    got = np.array([metrics._zeta(*point) for point in zip(x.tolist(), q.tolist())])
    assert got.tobytes() == zeta(x, q).tobytes()


def test_zeta_port_equals_scipy_on_a_grid():
    from scipy.special import zeta

    x = np.linspace(1, 51, 300)[1:, None]
    q = np.concatenate((np.arange(1, 301), [0.25, 1.5, 3.7, 12.5, 2e8]))[None, :]
    x, q = np.broadcast_arrays(x, q)
    got = np.array([metrics._zeta(*point) for point in zip(x.ravel().tolist(), q.ravel().tolist())])
    assert got.tobytes() == zeta(x, q).ravel().tobytes()


def test_lgam_port_equals_scipy_gammaln_at_every_factorial():
    from scipy.special import gammaln

    k = np.arange(200_001)
    got = np.array([metrics._lgam(float(v)) for v in (k + 1).tolist()])
    assert got.tobytes() == gammaln(k + 1).tobytes()
    x = np.geomspace(1e-3, 1e9, 5000)  # every branch, non-integers too
    assert np.array([metrics._lgam(v) for v in x.tolist()]).tobytes() == gammaln(x).tobytes()


def test_xlogy_port_equals_scipy_on_a_grid():
    from scipy.special import xlogy

    k, lam = np.meshgrid(np.arange(401), np.geomspace(1e-3, 2e3, 500), indexing="ij")
    points = zip(k.ravel().tolist(), lam.ravel().tolist())
    got = np.array([metrics._xlogy(*point) for point in points])
    assert got.tobytes() == xlogy(k, lam).ravel().tobytes()


def power_law_score(ks, counts, xmin):
    """_fit_tail's score function of one tail."""
    from scipy.special import zeta

    mean_log = sum(c * math.log(k) for k, c in zip(ks, counts)) / sum(counts)

    def score(alpha, h=1e-5):
        dlogz = (math.log(zeta(alpha + h, xmin)) - math.log(zeta(alpha - h, xmin))) / (2 * h)
        return dlogz + mean_log

    return score


def test_brentq_port_equals_scipy_on_random_tails():
    from scipy.optimize import brentq

    rng = random.Random(17)
    compared = 0
    for _ in range(300):
        xmin = rng.randint(1, 5)
        ks = sorted(rng.sample(range(xmin, xmin + 200), rng.randint(2, 30)))
        counts = [max(1, int(1000 * k ** -rng.uniform(1.2, 3.5))) for k in ks]
        score = power_law_score(ks, counts, xmin)
        if score(1.01) > 0:
            continue
        assert _brentq(score, 1.01, 50.0, xtol=1e-9) == brentq(score, 1.01, 50.0, xtol=1e-9)
        compared += 1
    assert compared > 250


def test_brentq_port_equals_scipy_on_varied_functions():
    from scipy.optimize import brentq

    rng = random.Random(19)
    for _ in range(400):
        root, power = rng.uniform(-3, 3), rng.choice([1, 3, 5])
        scale = rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-3, 3)
        xtol = rng.choice([1e-12, 1e-9, 1e-4])

        def f(x):
            return scale * ((x - root) ** power + 0.1 * math.atan(x - root))

        lo, hi = root - rng.uniform(0.01, 5), root + rng.uniform(0.01, 5)
        assert _brentq(f, lo, hi, xtol=xtol) == brentq(f, lo, hi, xtol=xtol)
    assert _brentq(lambda x: x - 2.0, 2.0, 5.0, xtol=1e-9) == 2.0  # root at an end


def test_brentq_port_raises_as_scipy_does():
    from scipy.optimize import brentq

    with pytest.raises(ValueError, match="different signs"):
        _brentq(lambda x: x * x + 1, -1.0, 1.0, xtol=1e-9)
    with pytest.raises(ValueError, match="different signs"):
        brentq(lambda x: x * x + 1, -1.0, 1.0, xtol=1e-9)
    with pytest.raises(ValueError, match="NaN"):
        _brentq(lambda x: math.nan if x > 0.25 else x - 0.5, 0.0, 1.0, xtol=1e-9)

    def slow(x):
        return math.copysign(abs(x - 1 / 3) ** 0.05, x - 1 / 3)

    with pytest.raises(RuntimeError, match="converge"):
        brentq(slow, 0.0, 1.0, xtol=1e-15, maxiter=3)
    with pytest.raises(RuntimeError, match="converge"):
        _brentq(slow, 0.0, 1.0, xtol=1e-15, maxiter=3)


def test_poisson_rejects_nonpositive():
    with pytest.raises(ValueError):
        poisson_reference(0.0)
