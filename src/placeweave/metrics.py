"""Degree and clustering metrics, distribution curves, and fits.

Local clustering follows the weighted form of Barrat et al. (2004):

    C(i) = 1 / (s_i * (k_i - 1)) * sum over connected neighbor pairs {j, h}
           of (w_ij + w_ih)

where s_i is the strength (sum of incident weights) and k_i the degree.
With equal weights this reduces to the ordinary triangle fraction.

All nodes are computed at once from the weighted CSR adjacency. A pair
{j, h} adds w_ij once for j and w_ih once for h, so the sum over pairs is
sum_j w_ij * (A @ A)_ij, the row sums of W o (A @ A), with A the 0/1
adjacency and W the weights. That numerator is an exact int64, the same
value a per-pair float loop reaches, and one float64 division by
s_i * (k_i - 1) gives each C(i). The mean over nodes adds the values with
Python's left-to-right sum in ascending node order, never with np.sum's
pairwise sum, so its float bits do not depend on the array code. The
power-law fit is the discrete maximum-likelihood estimator over k >= xmin
with the Hurwitz zeta as normalizer, plus the Kolmogorov-Smirnov distance
between the empirical and fitted tail CCDFs.

scipy is imported inside the functions that use it, so `import placeweave`
loads none of it: scipy.stats and scipy.optimize were most of the package's
import time, and enumeration never needs them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import PlaceNetwork, csr_adjacency, weighted_csr


@dataclass
class DegreeHistogram:
    counts: dict[int, int]  # degree k -> number of nodes
    n: int

    def support(self) -> list[int]:
        return sorted(self.counts)

    def pdf_at(self, k: int) -> float:
        return self.counts.get(k, 0) / self.n

    def ccdf_at(self, k: int) -> float:
        return sum(c for kk, c in self.counts.items() if kk >= k) / self.n

    def mean(self) -> float:
        return sum(k * c for k, c in self.counts.items()) / self.n

    def curve(self) -> list[tuple[int, int, float, float]]:
        """Rows (k, count, pdf, ccdf) over the observed support, ascending."""
        rows = []
        remaining = self.n
        for k in self.support():
            c = self.counts[k]
            rows.append((k, c, c / self.n, remaining / self.n))
            remaining -= c
        return rows


@dataclass
class NetworkSummary:
    nodes: int
    edges: int
    total_weight: int
    average_degree: float
    average_clustering: float
    label: str = ""

    def as_dict(self) -> dict:
        return {
            "nodes": self.nodes,
            "edges": self.edges,
            "total_weight": self.total_weight,
            "average_degree": self.average_degree,
            "average_clustering": self.average_clustering,
            "label": self.label,
        }


@dataclass
class PowerLawFit:
    exponent: float
    xmin: int
    ks_distance: float


def degree(net: PlaceNetwork, node: str) -> int:
    """Number of distinct neighbors; weights play no role."""
    code = net.index(node)
    return int(np.count_nonzero(net.src == code) + np.count_nonzero(net.dst == code))


def degree_distribution(net: PlaceNetwork) -> DegreeHistogram:
    if not net.n_nodes:
        raise ValueError("cannot build a degree distribution of an empty network")
    _, indptr, _ = csr_adjacency(net)
    counts = np.bincount(np.diff(indptr)).tolist()
    return DegreeHistogram({k: c for k, c in enumerate(counts) if c}, net.n_nodes)


def local_clustering(net: PlaceNetwork) -> tuple[list[str], np.ndarray]:
    """Barrat weighted clustering of every node: (sorted nodes, float64 values).

    Nodes of degree < 2 get 0. The numerator is computed in row blocks so
    that the two-hop product never holds more than a bounded slice of A @ A.
    """
    import scipy.sparse as sp

    from ._fastcount import _slices

    nodes, indptr, indices, weights = weighted_csr(net)
    n = len(nodes)
    adj = sp.csr_matrix((np.ones_like(weights), indices, indptr), shape=(n, n))
    wts = sp.csr_matrix((weights, indices, indptr), shape=(n, n))
    deg = np.diff(indptr)
    numerator = np.zeros(n, dtype=np.int64)
    for lo, hi in _slices(adj @ deg):  # row i of A @ A has at most (A d)_i entries
        numerator[lo:hi] = (adj[lo:hi] @ adj).multiply(wts[lo:hi]).sum(axis=1).A1
    denominator = wts.sum(axis=1).A1 * (deg - 1)
    local = np.zeros(n)
    np.divide(numerator, denominator, out=local, where=deg >= 2)
    return nodes, local


def local_clustering_weighted(net: PlaceNetwork, node: str) -> float:
    """Barrat weighted clustering of one node; 0 when degree < 2."""
    code = net.index(node)
    _, local = local_clustering(net)
    return float(local[code])


def average_clustering(net: PlaceNetwork) -> float:
    """Mean local clustering over all nodes, degree < 2 contributing zero.

    Summed left to right in ascending node order for a reproducible float
    result.
    """
    if not net.n_nodes:
        raise ValueError("empty network")
    _, local = local_clustering(net)
    return sum(local.tolist()) / net.n_nodes


def network_summary(net: PlaceNetwork) -> NetworkSummary:
    if not net.n_nodes:
        raise ValueError("empty network")
    return NetworkSummary(
        nodes=net.n_nodes,
        edges=net.n_edges,
        total_weight=net.total_weight,
        average_degree=2.0 * net.n_edges / net.n_nodes,
        average_clustering=average_clustering(net),
        label=net.label,
    )


def _fit_tail(ks: list[int], counts: list[int], xmin: int) -> PowerLawFit:
    from scipy.optimize import brentq
    from scipy.special import zeta

    n_tail = sum(counts)
    mean_log = sum(c * math.log(k) for k, c in zip(ks, counts)) / n_tail

    def score(alpha: float, h: float = 1e-5) -> float:
        # d/d(alpha) of log zeta(alpha, xmin), by central difference
        dlogz = (math.log(zeta(alpha + h, xmin)) - math.log(zeta(alpha - h, xmin))) / (2 * h)
        return dlogz + mean_log

    lo, hi = 1.01, 50.0
    if score(lo) > 0:
        # Tail heavier than any alpha in range; clamp at the boundary.
        alpha = lo
    else:
        alpha = brentq(score, lo, hi, xtol=1e-9)
    z_norm = zeta(alpha, xmin)
    ks_dist = 0.0
    seen = 0
    for k, c in zip(ks, counts):
        # empirical CCDF at k uses counts of degrees >= k
        emp = (n_tail - seen) / n_tail
        fit = zeta(alpha, k) / z_norm
        ks_dist = max(ks_dist, abs(emp - fit))
        seen += c
    return PowerLawFit(exponent=float(alpha), xmin=xmin, ks_distance=float(ks_dist))


def fit_power_law(
    hist: DegreeHistogram, xmin: int = 1, scan_xmin: bool = False
) -> PowerLawFit:
    """Discrete MLE power-law fit of the degree tail k >= xmin.

    With scan_xmin the fit is repeated for every candidate xmin in the
    support and the one minimizing the KS distance wins (ties to the
    smaller xmin). Raises ValueError when fewer than two distinct degrees
    remain above xmin.
    """
    if xmin < 1:
        raise ValueError("xmin must be >= 1")
    support = [k for k in hist.support() if k >= xmin]
    if len(support) < 2:
        raise ValueError(f"degenerate histogram: fewer than 2 distinct degrees >= {xmin}")
    if not scan_xmin:
        return _fit_tail(support, [hist.counts[k] for k in support], xmin)
    best: PowerLawFit | None = None
    for candidate in support[:-1]:
        tail = [k for k in support if k >= candidate]
        fit = _fit_tail(tail, [hist.counts[k] for k in tail], candidate)
        if best is None or fit.ks_distance < best.ks_distance:
            best = fit
    return best


def poisson_reference(
    average_degree: float, ks: list[int] | None = None
) -> list[tuple[int, float]]:
    """Poisson pmf with lambda = average_degree over the given degrees.

    Without explicit degrees the curve spans 0 .. lambda + 10*sqrt(lambda).
    """
    if average_degree <= 0:
        raise ValueError("average degree must be positive")
    if ks is None:
        upper = int(math.ceil(average_degree + 10 * math.sqrt(average_degree)))
        ks = list(range(upper + 1))
    from scipy.special import gammaln, xlogy

    # scipy.stats.poisson's own pmf formula, without importing scipy.stats
    k = np.asarray(ks, dtype=np.int64)
    pmf = np.exp(xlogy(k, average_degree) - gammaln(k + 1) - average_degree)
    return list(zip(ks, pmf.tolist()))
