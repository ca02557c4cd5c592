"""Degree and clustering metrics, distribution curves, and fits.

network_summary builds summary.json's document, which report.json holds too.

Local clustering follows the weighted form of Barrat et al. (2004):

    C(i) = 1 / (s_i * (k_i - 1)) * sum over connected neighbor pairs {j, h}
           of (w_ij + w_ih)

where s_i is the strength (sum of incident weights) and k_i the degree.
With equal weights this reduces to the ordinary triangle fraction.

A pair {j, h} adds w_ij once for j and w_ih once for h, so the sum over
pairs is sum_j w_ij * codeg(i, j), where codeg(i, j) counts the common
neighbors of i and j. _fastcount.codegrees gives codeg at every edge of
the network's edge arrays. The numerator and the strength are then exact
int64 sums over both ends of each edge, the same values a per-pair float
loop reaches, and one float64 division by s_i * (k_i - 1) gives each C(i).

The mean over nodes adds the values with Python's left-to-right sum in
ascending node order, never with np.sum's pairwise sum, so its float bits do
not depend on the array code. The power-law fit is the discrete
maximum-likelihood estimator over k >= xmin with the Hurwitz zeta as
normalizer, plus the Kolmogorov-Smirnov distance between the empirical and
fitted tail CCDFs.

The fit's root finder, the Hurwitz zeta and log-gamma are Python ports of
scipy.optimize.brentq and of the Cephes zeta and lgam that scipy.special
uses, step for step, so they give scipy's bits without importing scipy.
They call math, not numpy: numpy's vectorized log is not libm's and differs
from it in the last bit at some points.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from ._fastcount import codegrees
from .network import PlaceNetwork


@dataclass
class DegreeHistogram:
    counts: dict[int, int]  # degree k -> number of nodes
    n: int

    def support(self) -> list[int]:
        return sorted(self.counts)

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
class PowerLawFit:
    exponent: float
    xmin: int
    ks_distance: float


def degree_distribution(net: PlaceNetwork) -> DegreeHistogram:
    if not net.n_nodes:
        raise ValueError("cannot build a degree distribution of an empty network")
    degrees = np.bincount(np.concatenate((net.src, net.dst)), minlength=net.n_nodes)
    counts = np.bincount(degrees).tolist()
    return DegreeHistogram({k: c for k, c in enumerate(counts) if c}, net.n_nodes)


def local_clustering(net: PlaceNetwork) -> np.ndarray:
    """Barrat weighted clustering of every node as float64, in net.names order.

    Nodes of degree < 2 get 0. Each node's sums are taken with np.add.at in
    int64, exact wherever the sum fits, never in float64.
    """
    n, w = net.n_nodes, net.weights
    ends = np.concatenate((net.src, net.dst))
    numerator = np.zeros(n, dtype=np.int64)
    np.add.at(numerator, ends, np.tile(w * codegrees(n, net.src, net.dst), 2))
    strength = np.zeros(n, dtype=np.int64)
    np.add.at(strength, ends, np.tile(w, 2))
    deg = np.bincount(ends, minlength=n)
    local = np.zeros(n)
    np.divide(numerator, strength * (deg - 1), out=local, where=deg >= 2)
    return local


def average_clustering(net: PlaceNetwork) -> float:
    """Mean local clustering over all nodes, degree < 2 contributing zero.

    Summed left to right in ascending node order for a reproducible float
    result.
    """
    if not net.n_nodes:
        raise ValueError("empty network")
    return sum(local_clustering(net).tolist()) / net.n_nodes


def network_summary(net: PlaceNetwork) -> dict:
    """summary.json's document: the network's size, weight, mean degree and clustering."""
    if not net.n_nodes:
        raise ValueError("empty network")
    return {
        "nodes": net.n_nodes,
        "edges": net.n_edges,
        "total_weight": net.total_weight,
        "average_degree": 2.0 * net.n_edges / net.n_nodes,
        "average_clustering": average_clustering(net),
        "label": net.label,
    }


def _brentq(
    f, xa: float, xb: float, xtol: float, rtol: float = 4 * sys.float_info.epsilon, maxiter=100
) -> float:
    """A root of f in [xa, xb] by the steps of scipy.optimize.brentq, so the same bits.

    Raises ValueError when f(xa) and f(xb) have the same sign or f returns
    NaN, and RuntimeError when maxiter steps do not converge.
    """

    def call(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


_MACHEP = 1.11022302462515654042e-16  # Cephes' machine epsilon, 2**-53
# (2k)! / B_2k, B_2k the Bernoulli numbers: Euler-Maclaurin terms of zeta
_ZETA_A = (
    12.0, -720.0, 30240.0, -1209600.0, 47900160.0, -1.8924375803183791606e9, 7.47242496e10,
    -2.950130727918164224e12, 1.1646782814350067249e14, -4.5979787224074726105e15,
    1.8152105401943546773e17, -7.1661652561756670113e18,
)
# Stirling's series of log Gamma (A), and log Gamma between 2 and 3 (B / C)
_LGAM_A = (
    8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
    -2.77777777730099687205e-3, 8.33333333333331927722e-2,
)
_LGAM_B = (
    -1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
    -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5,
)
_LGAM_C = (
    1.0, -3.51815701436523470549e2, -1.70642106651881159223e4, -2.20528590553854454839e5,
    -1.13933444367982507207e6, -2.53252307177582951285e6, -2.01889141433532773231e6,
)
_LOG_SQRT_2PI = 0.91893853320467274178


def _zeta(x: float, q: float) -> float:
    """Hurwitz zeta(x, q) for x > 1 and q > 0 by the steps of Cephes' zeta.

    A direct sum of (q + i)**-x until q + i > 9 and i >= 9, then
    Euler-Maclaurin terms, so the bits of scipy.special.zeta.
    """
    if q > 1e8:
        return (1 / (x - 1) + 1 / (2 * q)) * q ** (1 - x)
    s = q**-x
    a, b, i = q, 0.0, 0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = a**-x
        s += b
        if abs(b / s) < _MACHEP:
            return s
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a, k = 1.0, 0.0
    for coef in _ZETA_A:
        a *= x + k
        b /= w
        t = a * b / coef
        s += t
        if abs(t / s) < _MACHEP:
            return s
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s


def _polevl(x: float, coefs: tuple) -> float:
    """Horner's rule from the highest-degree coefficient, as Cephes' polevl."""
    value = coefs[0]
    for coef in coefs[1:]:
        value = value * x + coef
    return value


def _lgam(x: float) -> float:
    """log Gamma(x) for x > 0 by the steps of Cephes' lgam: scipy.special.gammaln's bits."""
    if x < 13.0:
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        p -= 2.0
        x = x + p
        return math.log(z) + x * _polevl(x, _LGAM_B) / _polevl(x, _LGAM_C)
    q = (x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + (
            (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
            + 0.0833333333333333333333
        ) / x
    return q + _polevl(p, _LGAM_A) / x


def _xlogy(k: int, y: float) -> float:
    """k * log(y), and 0 for k = 0: scipy.special.xlogy's bits at integer k."""
    return k * math.log(y) if k else 0.0


def fit_power_law(hist: DegreeHistogram, xmin: int = 1) -> PowerLawFit:
    """Discrete MLE power-law fit of the degree tail k >= xmin.

    Raises ValueError when fewer than two distinct degrees remain above xmin.
    """
    if xmin < 1:
        raise ValueError("xmin must be >= 1")
    ks = [k for k in hist.support() if k >= xmin]
    if len(ks) < 2:
        raise ValueError(f"degenerate histogram: fewer than 2 distinct degrees >= {xmin}")
    counts = [hist.counts[k] for k in ks]
    n_tail = sum(counts)
    mean_log = sum(c * math.log(k) for k, c in zip(ks, counts)) / n_tail

    def score(alpha: float, h: float = 1e-5) -> float:
        # d/d(alpha) of log zeta(alpha, xmin), by central difference
        dlogz = (math.log(_zeta(alpha + h, xmin)) - math.log(_zeta(alpha - h, xmin))) / (2 * h)
        return dlogz + mean_log

    lo, hi = 1.01, 50.0
    if score(lo) > 0:
        # Tail heavier than any alpha in range; clamp at the boundary.
        alpha = lo
    else:
        alpha = _brentq(score, lo, hi, xtol=1e-9)
    z_norm = _zeta(alpha, xmin)
    ks_dist = 0.0
    seen = 0
    for k, c in zip(ks, counts):
        # empirical CCDF at k uses counts of degrees >= k
        emp = (n_tail - seen) / n_tail
        fit = _zeta(alpha, k) / z_norm
        ks_dist = max(ks_dist, abs(emp - fit))
        seen += c
    return PowerLawFit(exponent=float(alpha), xmin=xmin, ks_distance=float(ks_dist))


def poisson_reference(average_degree: float, ks: list[int]) -> list[tuple[int, float]]:
    """Poisson pmf with lambda = average_degree over the given degrees."""
    if average_degree <= 0:
        raise ValueError("average degree must be positive")
    # scipy.stats.poisson's own pmf formula and order of operations
    pmf = np.exp([_xlogy(k, average_degree) - _lgam(float(k + 1)) - average_degree for k in ks])
    return list(zip(ks, pmf.tolist()))
