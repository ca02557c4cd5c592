"""Seeded reference networks matched on size and average degree.

Two baselines: a G(n, p) random graph whose degrees concentrate around a
Poisson law (homogeneous visitation), and a Barabasi-Albert preferential
attachment graph whose degree tail follows a power law (heterogeneous
visitation). Both are simple, unit-weight graphs generated from a named
64-bit RNG (numpy PCG64) so runs are bit-reproducible per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .network import PlaceNetwork

REFNET_KINDS = ("random", "scale_free")


@dataclass(frozen=True)
class RefNetSpec:
    kind: str
    n: int
    target_average_degree: float
    seed: int

    def validate(self) -> None:
        if self.kind not in REFNET_KINDS:
            raise ConfigError(f"kind must be one of {REFNET_KINDS}, got {self.kind!r}")
        if self.n < 2:
            raise ConfigError(f"need at least 2 nodes, got {self.n}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not math.isfinite(self.target_average_degree):
            raise ConfigError(
                f"target average degree must be finite, got {self.target_average_degree}"
            )
        if self.target_average_degree <= 0:
            raise ConfigError(
                f"target average degree must be positive, got {self.target_average_degree}"
            )
        # G(n, p) needs p <= 1; attachment instead caps edges-per-node below n.
        if self.kind == "random" and self.target_average_degree > self.n - 1:
            raise ConfigError(
                f"target average degree must lie in (0, {self.n - 1}] for a "
                f"random network, got {self.target_average_degree}"
            )


def _reference_network(n: int, src, dst, label: str) -> PlaceNetwork:
    """Unit-weight network on nodes v0..v{n-1}, zero-padded so code order is name order."""
    width = len(str(n - 1))
    return PlaceNetwork.from_arrays(
        [f"v{i:0{width}d}" for i in range(n)],
        src,
        dst,
        np.ones(len(src), dtype=np.int64),
        label=label,
        mode="reference",
    )


def gen_random_network(spec: RefNetSpec) -> PlaceNetwork:
    """Erdos-Renyi G(n, p) with p = target_average_degree / (n - 1)."""
    spec.validate()
    if spec.kind != "random":
        raise ValueError(f"spec kind is {spec.kind!r}, expected 'random'")
    n = spec.n
    p = spec.target_average_degree / (n - 1)
    label = f"random-n{n}-seed{spec.seed}"
    rng = np.random.default_rng(spec.seed)
    if p >= 1.0:
        return _reference_network(n, *np.triu_indices(n, 1), label)
    # Batagelj-Brandes skip sampling: geometric jumps through the pair order.
    log_q = math.log1p(-p) or -math.ulp(0.0)  # a p that underflows to 0 skips every pair
    src: list[int] = []
    dst: list[int] = []
    v, w = 1, -1
    while v < n:
        r = rng.random()
        w = w + 1 + int(min(math.log1p(-r) / log_q, n * n))  # a jump past the end may be inf
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            src.append(w)
            dst.append(v)
    return _reference_network(n, src, dst, label)


def gen_scale_free_network(spec: RefNetSpec) -> PlaceNetwork:
    """Barabasi-Albert graph with m = round(target_average_degree / 2).

    The seed graph is a complete graph on the first m nodes; each arriving
    node attaches to m distinct existing nodes drawn proportionally to
    degree, giving exactly C(m, 2) + (n - m) * m edges.
    """
    spec.validate()
    if spec.kind != "scale_free":
        raise ValueError(f"spec kind is {spec.kind!r}, expected 'scale_free'")
    m = round(spec.target_average_degree / 2)
    if m < 1:
        raise ConfigError(
            f"target average degree {spec.target_average_degree} rounds to m=0 edges per node"
        )
    n = spec.n
    if n <= m:
        raise ConfigError(f"need n > m, got n={n}, m={m}")
    rng = np.random.default_rng(spec.seed)
    seed_src, seed_dst = np.triu_indices(m, 1)
    src: list[int] = seed_src.tolist()
    dst: list[int] = seed_dst.tolist()
    repeated = [i for i in range(m) for _ in range(m - 1)]
    if m == 1:
        repeated = [0]  # lone seed node has degree 0; give it unit mass
    for new in range(m, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(repeated[int(rng.integers(len(repeated)))])
        chosen = sorted(targets)
        src.extend(chosen)
        dst.extend([new] * m)
        repeated.extend(chosen)
        repeated.extend([new] * m)
    return _reference_network(n, src, dst, f"scale-free-n{n}-m{m}-seed{spec.seed}")


def generate(spec: RefNetSpec) -> PlaceNetwork:
    if spec.kind == "random":
        return gen_random_network(spec)
    return gen_scale_free_network(spec)
