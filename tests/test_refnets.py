
import pytest
from scipy import stats as ss

from oracles import edge_weights
from placeweave.metrics import degree_distribution, fit_power_law
from placeweave.refnets import RefNetSpec, gen_random_network, gen_scale_free_network


def test_random_spec_validation():
    with pytest.raises(ValueError):
        RefNetSpec("random", 1, 0.5, 0).validate()
    with pytest.raises(ValueError):
        RefNetSpec("random", 10, 0.0, 0).validate()
    with pytest.raises(ValueError):
        RefNetSpec("random", 10, 9.5, 0).validate()
    with pytest.raises(ValueError):
        RefNetSpec("walk", 10, 2.0, 0).validate()


def test_random_n2_forced_edge():
    net = gen_random_network(RefNetSpec("random", 2, 1.0, 123))
    assert net.n_edges == 1
    assert net.n_nodes == 2


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
    fit_er = fit_power_law(degree_distribution(er), scan_xmin=True)
    fit_ba = fit_power_law(degree_distribution(ba), scan_xmin=True)
    assert fit_er.ks_distance > 2 * fit_ba.ks_distance


def test_scale_free_rejects_tiny_targets():
    with pytest.raises(ValueError):
        gen_scale_free_network(RefNetSpec("scale_free", 10, 0.5, 0))
    with pytest.raises(ValueError):
        gen_scale_free_network(RefNetSpec("scale_free", 3, 6.0, 0))


def test_kind_mismatch_rejected():
    with pytest.raises(ValueError):
        gen_random_network(RefNetSpec("scale_free", 10, 2.0, 0))
    with pytest.raises(ValueError):
        gen_scale_free_network(RefNetSpec("random", 10, 2.0, 0))
