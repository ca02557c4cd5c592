"""Acceptance suite: one pass/fail line per criterion, run with `pytest -s`.

Each criterion pins its tolerance and time budget; the county-scale
constants (15,931 nodes / 136,904 edges / average degree 17.187 and the
motif-count table used for the percentage arithmetic) set the scale the
pipeline must sustain.
"""

import datetime as dt
import itertools
import json
import math
import os
import random
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as ss

from oracles import (
    REFERENCE_GRAPHS,
    attributed_isomorphic,
    brute_force_barrat,
    brute_force_classify,
    brute_force_enumerate,
    brute_force_unweighted_clustering,
    Walk,
    catalog,
    census_classes,
    covering_walk,
    instance_from_edges,
    local_clustering_weighted,
    network,
    sequence_table,
    trajectory_instance,
    walks,
)
from placeweave import _fastcount
from placeweave.attributes import attributed_key, canonical_keys
from placeweave.cli import main as cli_main
from placeweave.ingest import build_stay_sequences, filter_visits
from placeweave.metrics import degree_distribution, fit_power_law
from placeweave.motifs import (
    CLASS_INDEX,
    CLASS_ORDER,
    MotifClass,
    census_document,
    classify_graph,
    classify_trajectories,
    enumerate_induced,
)
from placeweave.network import PlaceNetwork, csr_adjacency, day_networks
from placeweave.refnets import RefNetSpec, gen_random_network, gen_scale_free_network
from placeweave.stats import EARTH_RADIUS_KM, haversine_km
from placeweave.synth import (
    CLASS_WALKS,
    TrafficSpec,
    WorldSpec,
    gen_catalog,
    gen_device_days,
    gen_traffic_plan,
)

COUNTY_NODES = 15_931
COUNTY_EDGES = 136_904
COUNTY_AVG_DEGREE = 17.187


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {num:>2}] {name}: FAIL", flush=True)
        raise
    print(f"\n[criterion {num:>2}] {name}: PASS", flush=True)


# -- 1: classifier vs permutation-isomorphism oracle ---------------------------


def test_criterion_1_classifier_exact():
    with criterion(1, "classifier agrees with isomorphism oracle on all small graphs"):
        start = time.perf_counter()
        checked = 0
        for n in (2, 3, 4):
            pairs = list(itertools.combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
                assert classify_graph(n, edges) is brute_force_classify(n, edges)
                checked += 1
        assert checked == 2 + 8 + 64
        assert time.perf_counter() - start < 1.0


# -- 2: enumeration vs brute-force subset scan ---------------------------------


def test_criterion_2_enumeration_exact():
    with criterion(2, "enumeration equals brute-force subsets on 50 seeded graphs"):
        start = time.perf_counter()
        rng = random.Random(2024)
        for trial in range(50):
            n = rng.randint(8, 25)
            p = rng.choice((0.12, 0.2, 0.3, 0.45))
            nodes = [f"p{i:02d}" for i in range(n)]
            pairs = itertools.combinations(nodes, 2)
            net = network({(a, b): 1 for a, b in pairs if rng.random() < p}, nodes=nodes)
            for k in (2, 3, 4):
                assert enumerate_induced(net, k) == brute_force_enumerate(net, k), (trial, k)
        assert time.perf_counter() - start < 30.0


# -- 3: census identities and percentage arithmetic ----------------------------

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
COUNTY_TOTAL_MOTIFS = 85_237


def test_criterion_3_census_identities():
    with criterion(3, "flow identities hold and county percentage checks reproduce"):
        # flow identity on generated traffic over every class
        world = WorldSpec(60, (29.5, 30.0, -95.8, -95.2), {7: 0.5, 18: 0.5}, seed=31)
        catalog = gen_catalog(world)
        mix = {cls: 1.0 / 9.0 for cls in CLASS_WALKS}
        traffic = TrafficSpec(2000, mix, (dt.date(2020, 2, 1), dt.date(2020, 2, 28)), seed=32)
        stops = gen_device_days(catalog, traffic)
        sequences = build_stay_sequences(filter_visits(stops, 300), 0.0)
        census = census_classes(classify_trajectories(sequences).document())
        for cls in CLASS_ORDER:
            row = census[cls]
            assert row["flow_count"] == row["device_count"] * cls.edge_count, cls

        # county-scale percentage arithmetic, exact to 2 decimals
        county = census_classes(census_document(
            "trajectory", COUNTY_MOTIF_COUNTS, COUNTY_TOTAL_MOTIFS,
            dict.fromkeys(CLASS_ORDER, 0), total_devices=405_562, total_flows=1_735_489,
        ))
        assert round(county[MotifClass.M2_1]["percentage"], 2) == 1.42
        nine_way = sum(county[cls]["percentage"] for cls in CLASS_ORDER)
        assert round(nine_way, 2) == 89.27
        assert 114_420 * MotifClass.M4_2.edge_count == 572_100


# -- 4: planted end-to-end recovery --------------------------------------------


def test_criterion_4_planted_recovery_50k():
    with criterion(4, "50,000 planted device-days recover exactly, shares within 1%"):
        start = time.perf_counter()
        world = WorldSpec(500, (29.3, 30.2, -95.9, -95.0), {7: 0.4, 18: 0.3, 16: 0.3}, seed=41)
        catalog = gen_catalog(world)
        mix = {cls: 1.0 / 9.0 for cls in CLASS_WALKS}
        traffic = TrafficSpec(
            50_000, mix, (dt.date(2020, 2, 1), dt.date(2020, 2, 28)), seed=42
        )
        plans = gen_traffic_plan(catalog, traffic)
        stops = gen_device_days(catalog, traffic)
        sequences = build_stay_sequences(filter_visits(stops, 300), 0.0)
        assert len(sequences) == 50_000

        _, net = day_networks(sequences, "consecutive")
        assert net.total_weight == sum(len(stays) - 1 for _, _, stays in walks(sequences))

        by_device = {device: stays for device, _, stays in walks(sequences)}
        recovered = 0
        for plan in plans:
            if trajectory_instance(by_device[plan.device_id]).motif_class is plan.motif_class:
                recovered += 1
        assert recovered == 50_000  # 100%, no tolerance

        census = census_classes(classify_trajectories(sequences).document())
        for cls, target in mix.items():
            share = census[cls]["device_count"] / 50_000
            assert abs(share - target) <= 0.01, cls
        assert time.perf_counter() - start < 60.0


# -- 5: reference-network statistics -------------------------------------------


def test_criterion_5_reference_network_statistics():
    with criterion(5, "ER degrees pass Poisson chi-square; BA tail exponent in range"):
        start = time.perf_counter()
        lam = COUNTY_AVG_DEGREE
        observed: dict[int, int] = {}
        for seed in range(20):
            net = gen_random_network(RefNetSpec("random", 5000, lam, seed))
            for k, c in degree_distribution(net).counts.items():
                observed[k] = observed.get(k, 0) + c
        n_total = sum(observed.values())
        kmax = max(observed) + 1
        big = [k for k in range(kmax + 1) if n_total * ss.poisson.pmf(k, lam) >= 5]
        lo, hi = min(big), max(big)
        f_obs = [sum(c for k, c in observed.items() if k <= lo)]
        f_exp = [n_total * ss.poisson.cdf(lo, lam)]
        for k in range(lo + 1, hi):
            f_obs.append(observed.get(k, 0))
            f_exp.append(n_total * ss.poisson.pmf(k, lam))
        f_obs.append(sum(c for k, c in observed.items() if k >= hi))
        f_exp.append(n_total * ss.poisson.sf(hi - 1, lam))
        stat, _ = ss.chisquare(f_obs, f_exp)
        assert stat < ss.chi2.ppf(0.99, len(f_obs) - 1)

        ba = gen_scale_free_network(RefNetSpec("scale_free", 10_000, 16.0, 3))
        fit = fit_power_law(degree_distribution(ba), xmin=8)
        assert 2.5 <= fit.exponent <= 3.5
        assert time.perf_counter() - start < 60.0


# -- 6: weighted clustering vs direct summation --------------------------------


def test_criterion_6_weighted_clustering():
    with criterion(6, "weighted clustering matches direct summation within 1e-12"):
        start = time.perf_counter()
        for seed in range(20):
            rng = random.Random(seed)
            n = rng.randint(20, 50)
            nodes = [f"p{i:02d}" for i in range(n)]
            edges = {}
            for a, b in itertools.combinations(nodes, 2):
                if rng.random() < 0.2:
                    edges[a, b] = rng.randint(1, 9)
            net = network(edges, nodes=nodes)
            for node in net.names:
                got = local_clustering_weighted(net, node)
                want = brute_force_barrat(net, node)
                assert abs(got - want) <= 1e-12, (seed, node)

        # equal weights reduce to the unweighted coefficient
        rng = random.Random(99)
        nodes = [f"p{i:02d}" for i in range(40)]
        pairs = itertools.combinations(nodes, 2)
        net = network({(a, b): 1 for a, b in pairs if rng.random() < 0.25}, nodes=nodes)
        for node in net.names:
            got = local_clustering_weighted(net, node)
            want = brute_force_unweighted_clustering(net, node)
            assert abs(got - want) <= 1e-12
        assert time.perf_counter() - start < 5.0


# -- 7: geodesy ----------------------------------------------------------------


def test_criterion_7_haversine_closed_forms():
    with criterion(7, "haversine matches closed forms within 1e-9 relative"):
        assert haversine_km(29.76, -95.37, 29.76, -95.37) == 0.0
        half_circle = math.pi * EARTH_RADIUS_KM
        assert abs(haversine_km(0, 0, 0, 180) - half_circle) / half_circle < 1e-9
        one_degree = math.pi * EARTH_RADIUS_KM / 180.0
        assert abs(haversine_km(0, 0, 1, 0) - one_degree) / one_degree < 1e-9
        assert abs(haversine_km(0, 0, 0, 1) - one_degree) / one_degree < 1e-9


# -- 8: attributed canonicalization ---------------------------------------------


def test_criterion_8_attributed_canonicalization():
    with criterion(8, "canonical keys equal attributed isomorphism, exhaustively"):
        start = time.perf_counter()
        alphabet = (7, 16, 18)
        for cls, (n, ref_edges) in REFERENCE_GRAPHS.items():
            nodes = [f"v{i}" for i in range(n)]
            edges = [(nodes[a], nodes[b]) for a, b in ref_edges]
            inst = instance_from_edges(nodes, edges)
            assert inst.motif_class is cls
            walk = Walk("d", dt.date(2020, 2, 3), tuple(covering_walk(edges)))
            rows = classify_trajectories(sequence_table([walk])).rows
            assignments = list(itertools.product(alphabet, repeat=n))
            keys = {}
            for labels in assignments:
                prefix = {7: "44", 16: "62", 18: "72"}
                labeled = catalog(
                    (node, node, 0.0, 0.0, prefix[lab] + "00") for node, lab in zip(nodes, labels)
                )
                [key] = canonical_keys(rows, labeled).tolist()
                keys[labels] = attributed_key(key)
            for la, lb in itertools.product(assignments, repeat=2):
                assert (keys[la] == keys[lb]) == attributed_isomorphic(cls, la, lb)
        assert time.perf_counter() - start < 10.0


# -- 9: throughput at county scale ----------------------------------------------


def _county_scale_graph(seed: int = 99) -> PlaceNetwork:
    """Uniform random graph with exactly the county node and edge counts."""
    n, m = COUNTY_NODES, COUNTY_EDGES
    rng = np.random.default_rng(seed)
    total = n * (n - 1) // 2
    chosen: set[int] = set()
    while len(chosen) < m:
        need = m - len(chosen)
        draw = rng.integers(0, total, size=int(need * 1.2) + 8)
        chosen.update(int(x) for x in draw)
    while len(chosen) > m:
        chosen.pop()
    width = len(str(n - 1))
    names = [f"v{i:0{width}d}" for i in range(n)]
    idx = np.fromiter(chosen, dtype=np.int64, count=len(chosen))
    i = np.array([(1 + math.isqrt(1 + 8 * x)) // 2 for x in idx.tolist()], dtype=np.int64)
    j = idx - i * (i - 1) // 2
    net = PlaceNetwork.from_arrays(names, j, i, np.ones(m, dtype=np.int64))
    assert net.n_edges == m
    return net


@pytest.fixture(scope="module")
def county_graph_csr():
    net = _county_scale_graph()
    _, indptr, indices = csr_adjacency(net)
    # one call per k on a one-edge graph, so the timings exclude first-call costs
    for k in (3, 4):
        toy = np.array([0, 1, 2], dtype=np.int64), np.array([1, 0], dtype=np.int64)
        _fastcount.census_counts(*toy, k, threads=1)
    return indptr, indices


def test_criterion_9_county_scale_time_and_thread_independence(county_graph_csr):
    with criterion(9, "county-scale 4-node census under 120 s, thread-independent"):
        indptr, indices = county_graph_csr
        start = time.perf_counter()
        counts_single = _fastcount.census_counts(indptr, indices, 4, threads=1)
        elapsed_single = time.perf_counter() - start
        assert elapsed_single < 120.0
        counts_eight = _fastcount.census_counts(indptr, indices, 4, threads=8)
        assert (counts_single == counts_eight).all()
        assert counts_single[CLASS_INDEX[MotifClass.OTHER]] == 0
        assert counts_single.sum() > 10_000_000  # the census is genuinely large
        print(f"\n  single-thread census: {elapsed_single:.2f} s, "
              f"{int(counts_single.sum()):,} subgraphs", flush=True)


def test_criterion_9_county_scale_census_is_pinned(county_graph_csr):
    # Per-class counts of the county graph, so any change to the census
    # kernels must reproduce every class exactly, not just a large total.
    indptr, indices = county_graph_csr
    expected = {
        3: {MotifClass.M3_1: 2_496_990, MotifClass.M3_2: 995},
        4: {
            MotifClass.M4_2: 31,
            MotifClass.M4_3: 13_746,
            MotifClass.M4_4: 55_529,
            MotifClass.M4_5: 45_325_305,
            MotifClass.M4_6: 15_477_780,
        },
    }
    for k, classes in expected.items():
        counts = _fastcount.census_counts(indptr, indices, k, threads=1)
        assert {cls: int(counts[CLASS_INDEX[cls]]) for cls in CLASS_INDEX} == {
            cls: classes.get(cls, 0) for cls in CLASS_INDEX
        }


@pytest.mark.xfail(
    (os.cpu_count() or 1) < 8,
    reason=f"host exposes {os.cpu_count()} hardware threads; a 3x speedup "
    "with 8 threads needs at least 8 cores",
    strict=False,
)
def test_criterion_9_county_scale_thread_scaling(county_graph_csr):
    with criterion(9, "county-scale census speeds up 3x with 8 threads"):
        indptr, indices = county_graph_csr
        best_single = min(
            _timed(_fastcount.census_counts, indptr, indices, 4, threads=1) for _ in range(2)
        )
        best_eight = min(
            _timed(_fastcount.census_counts, indptr, indices, 4, threads=8) for _ in range(2)
        )
        assert best_single / best_eight >= 3.0


def _timed(fn, *args, **kwargs) -> float:
    start = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - start


# -- 10: byte determinism --------------------------------------------------------


def _tree_bytes(root: Path) -> dict:
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_criterion_10_run_determinism(tmp_path):
    with criterion(10, "full runs are byte-identical across invocations and threads"):
        world = {
            "n_pois": 50,
            "bbox": [29.5, 30.0, -95.8, -95.2],
            "category_shares": {"7": 0.5, "18": 0.5},
            "seed": 7,
        }
        traffic = {
            "n_device_days": 300,
            "class_mix": {cls.value: 1.0 / 9.0 for cls in CLASS_WALKS},
            "date_range": ["2020-02-01", "2020-02-28"],
            "seed": 8,
        }
        (tmp_path / "world.json").write_text(json.dumps(world))
        (tmp_path / "traffic.json").write_text(json.dumps(traffic))
        assert cli_main(
            ["synth", "--world", str(tmp_path / "world.json"),
             "--traffic", str(tmp_path / "traffic.json"), "--out", str(tmp_path / "data")]
        ) == 0
        stops = str(tmp_path / "data" / "stops.csv")
        pois = str(tmp_path / "data" / "pois.csv")

        trees = {}
        for name, threads in (("a", "1"), ("b", "1"), ("c", "8")):
            out = tmp_path / name
            assert cli_main(
                ["run", "--stops", stops, "--pois", pois, "--out", str(out),
                 "--threads", threads]
            ) == 0
            trees[name] = _tree_bytes(out)
        assert trees["a"] == trees["b"]
        assert trees["a"] == trees["c"]
