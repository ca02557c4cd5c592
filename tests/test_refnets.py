
import hashlib

import pytest
from scipy import stats as ss

from oracles import edge_weights, fit_power_law_scanned
from placeweave.cli import main
from placeweave.errors import ConfigError
from placeweave.metrics import degree_distribution, fit_power_law
from placeweave.network import sidecar_path
from placeweave.refnets import RefNetSpec, gen_random_network, gen_scale_free_network


def test_random_spec_validation():
    with pytest.raises(ConfigError):
        RefNetSpec("random", 1, 0.5, 0).validate()
    with pytest.raises(ConfigError):
        RefNetSpec("random", 10, 0.0, 0).validate()
    with pytest.raises(ConfigError):
        RefNetSpec("random", 10, 9.5, 0).validate()
    with pytest.raises(ConfigError):
        RefNetSpec("walk", 10, 2.0, 0).validate()


def test_random_n2_forced_edge():
    net = gen_random_network(RefNetSpec("random", 2, 1.0, 123))
    assert net.n_edges == 1
    assert net.n_nodes == 2


@pytest.mark.parametrize("degree", [5e-324, 1e-310])
def test_random_degree_below_the_float_range_gives_no_edges(degree):
    # p underflows to 0, or the first jump overflows int(): either way past every pair
    net = gen_random_network(RefNetSpec("random", 10, degree, 0))
    assert (net.n_nodes, net.n_edges) == (10, 0)


def test_random_deterministic_under_seed():
    a = gen_random_network(RefNetSpec("random", 200, 6.0, 42))
    b = gen_random_network(RefNetSpec("random", 200, 6.0, 42))
    c = gen_random_network(RefNetSpec("random", 200, 6.0, 43))
    assert edge_weights(a) == edge_weights(b)
    assert edge_weights(a) != edge_weights(c)


def test_random_graphs_are_simple():
    for seed in range(10):
        net = gen_random_network(RefNetSpec("random", 150, 8.0, seed))
        assert all(a < b for a, b in edge_weights(net))
        assert all(w == 1 for w in edge_weights(net).values())


def test_random_average_degree_tracks_county_target():
    # county-scale average degree 17.187; binomial concentration keeps
    # the realized mean within 5% over 10 seeds
    target = 17.187
    means = []
    for seed in range(10):
        net = gen_random_network(RefNetSpec("random", 5000, target, seed))
        means.append(2 * net.n_edges / net.n_nodes)
    realized = sum(means) / len(means)
    assert abs(realized - target) / target < 0.05


def test_random_degrees_fit_poisson_chi_square():
    # aggregated over 20 seeds, alpha = 0.01, bins with expectation >= 5
    lam = 17.187
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
    dof = len(f_obs) - 1
    assert stat < ss.chi2.ppf(0.99, dof)


def test_scale_free_saturated_attachment_is_complete():
    net = gen_scale_free_network(RefNetSpec("scale_free", 4, 6.0, 7))
    assert net.n_edges == 6  # K4


def test_scale_free_exact_edge_count():
    # m * (n - m) attachment edges plus the C(m, 2) seed clique
    for seed in range(5):
        for n, m in ((100, 3), (500, 8), (50, 1)):
            spec = RefNetSpec("scale_free", n, 2.0 * m, seed)
            net = gen_scale_free_network(spec)
            assert net.n_edges == m * (n - m) + m * (m - 1) // 2


def test_scale_free_simple_and_deterministic():
    a = gen_scale_free_network(RefNetSpec("scale_free", 300, 8.0, 11))
    b = gen_scale_free_network(RefNetSpec("scale_free", 300, 8.0, 11))
    assert edge_weights(a) == edge_weights(b)
    assert all(a_ < b_ for a_, b_ in edge_weights(a))


def test_scale_free_average_degree_near_2m():
    net = gen_scale_free_network(RefNetSpec("scale_free", 10_000, 16.0, 3))
    avg = 2 * net.n_edges / net.n_nodes
    expected = 2 * 8 * (1 - 8 / 10_000)
    assert abs(avg - expected) / expected < 0.05


def test_scale_free_tail_exponent_in_ba_range():
    net = gen_scale_free_network(RefNetSpec("scale_free", 10_000, 16.0, 3))
    fit = fit_power_law(degree_distribution(net), xmin=8)
    assert 2.5 <= fit.exponent <= 3.5


def test_er_tail_fits_power_law_worse_than_ba():
    er = gen_random_network(RefNetSpec("random", 3000, 17.0, 1))
    ba = gen_scale_free_network(RefNetSpec("scale_free", 3000, 17.0, 1))
    fit_er = fit_power_law_scanned(degree_distribution(er))
    fit_ba = fit_power_law_scanned(degree_distribution(ba))
    assert fit_er.ks_distance > 2 * fit_ba.ks_distance


def test_scale_free_rejects_tiny_targets():
    with pytest.raises(ConfigError):
        gen_scale_free_network(RefNetSpec("scale_free", 10, 0.5, 0))
    with pytest.raises(ConfigError):
        gen_scale_free_network(RefNetSpec("scale_free", 3, 6.0, 0))


def test_kind_mismatch_rejected():
    with pytest.raises(ValueError):
        gen_random_network(RefNetSpec("scale_free", 10, 2.0, 0))
    with pytest.raises(ValueError):
        gen_scale_free_network(RefNetSpec("random", 10, 2.0, 0))


# sha256 of the refnet CSV and its sidecar: the generators' edges, names,
# isolated nodes, label and mode, byte for byte.
REFNET_DIGESTS = {
    "random-sparse": (
        ["--kind", "random", "--n", "60", "--avg-degree", "4", "--seed", "3"],
        "669351694d919e1012e015297c14889a8676bc105626fad41fe2db4a1f65a075",
        "c105a2ea72d1d9448ee07d9085cb414ee188da38a55e5faac252a75424146af1",
    ),
    "random-complete": (
        ["--kind", "random", "--n", "7", "--avg-degree", "6", "--seed", "1"],
        "f641ccef7e3f3aca49e9d7b7f1af73a4e26be6630eba864a523fcc143645e7de",
        "b49181f553d3b483704bc36d6edc49e1f323362c3f534d118d618eb58dd3e9a5",
    ),
    "scale-free-m1": (
        ["--kind", "scale-free", "--n", "40", "--avg-degree", "2", "--seed", "2"],
        "509a863e5cc1a8ce17a47a704b3f848c43ada181e5bebe932e95843855007534",
        "6233b66465d170dbd218ab906c4bc088d6fa3d19e171aa59f70d09ac005221b1",
    ),
    "scale-free-m3": (
        ["--kind", "scale-free", "--n", "80", "--avg-degree", "6", "--seed", "4"],
        "f2c354425385f7fb31c0ebfadc9d51639ee6c78d0f6e849633b78578045c0e25",
        "b22e9f5949ee0ffea5b1e11057f7590d2638516f533ff3ed077a3691b3c7ed53",
    ),
    "scale-free-saturated": (
        ["--kind", "scale-free", "--n", "4", "--avg-degree", "6", "--seed", "7"],
        "b69a4e24e59b4a3d00b25657cd62208812ebe547cac73c77bf1ae6246d4cbc66",
        "7f2971376d8a17cda6150cc9794f4b8c8c9c067c29a18a2e5e5c07da5c1974ad",
    ),
}


@pytest.mark.parametrize("name", sorted(REFNET_DIGESTS))
def test_refnet_files_match_pinned_digests(tmp_path, name):
    args, csv_digest, meta_digest = REFNET_DIGESTS[name]
    out = tmp_path / "ref.csv"
    assert main(["refnet", *args, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_digest
    assert hashlib.sha256(sidecar_path(out).read_bytes()).hexdigest() == meta_digest
