"""Finite constellation geometry: facets of the K-PAM parallelotope carving.

A constellation takes integer coordinates ``u in {0, ..., K-1}**N`` through
the lattice generator.  Its boundary decomposes into k-dimensional facets:
a point belongs to a k-facet when exactly k of its coordinates are strictly
interior (``0 < u_i < K-1``) and the remaining N-k sit on the box edge.  The
k-facets split into ``C(N, k)`` equivalence classes by *which* coordinates
are interior; each class contains ``2**(N-k)`` mirror-image facets holding
``(K-2)**k`` points apiece.  :func:`facet_sum` weighs a cell mass per
class into the symbol-error probability (paper Theorem 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exceptions import check_integer
from .lattices import Lattice


@dataclass(frozen=True, eq=False)
class FiniteConstellation:
    """A lattice carved to ``K`` points per dimension (``K**N`` total)."""

    lattice: Lattice
    K: int

    def __post_init__(self):
        object.__setattr__(self, "K", check_integer("K", self.K, 2))

    @property
    def dimension(self) -> int:
        return self.lattice.dimension

    @property
    def size(self) -> int:
        return self.K**self.dimension


def facet_count(n: int, k: int) -> int:
    """Number of k-dimensional facets of the N-parallelotope: 2**(N-k) C(N, k)."""
    n = check_integer("n", n, 1)
    k = check_integer("k", k, 0, n)
    return (1 << (n - k)) * math.comb(n, k)


def points_per_facet(big_k: int, k: int) -> int:
    """Constellation points on one k-facet: (K-2)**k (so 1 on each vertex)."""
    return (check_integer("K", big_k, 2) - 2) ** check_integer("k", k, 0)


def facet_weights(n: int, big_k: int) -> np.ndarray:
    """Theorem 1's rank-k weights ``C(N,k) (K-1)^k / K^N``, k = 0..N.

    Weight k is the chance that exactly k of N coordinates, each uniform
    over K levels, avoid one fixed level: the coefficient of the rank-k
    cell masses once Theorem 1's sum over points is telescoped.  It is
    not the share of points on k-facets, ``C(N,k) 2^(N-k) (K-2)^k / K^N``:
    for N = 1 and K = 4 the weights are ``[0.25, 0.75]`` and the shares
    ``[0.5, 0.5]``.  Each weight is the exact rational rounded once to the
    nearest float.  The weights sum to 1 up to that rounding.
    """
    return np.array([_share(math.comb(n, k), n, big_k, k) for k in range(n + 1)])


def _share(points: int, n: int, big_k: int, k: int) -> float:
    # points * (K-1)**k / K**N, correctly rounded.
    return float(Fraction(points * (big_k - 1) ** k, big_k**n))


def facet_sum(constellation: FiniteConstellation, groups) -> list[tuple[float, float]]:
    """Theorem-1 sum ``1 - sum_k (K-1)**k / K**N sum_p J[k, p](rho)`` at each grid point.

    Each group ``(k, multiplicity, masses)`` stands for ``multiplicity``
    of the ``C(N, k)`` rank-k subsets, all with the cell masses
    ``masses[i] = (J, std_err)`` at grid point ``i``.  Its weight
    ``multiplicity (K-1)**k / K**N`` is rounded once, so a group that
    covers every subset weighs exactly ``facet_weights[k]``.  The k = 0
    term (vertices never err, ``J[0] = 1``) is implicit.

    Returns ``(P, std_err)`` per grid point, unclamped, with the groups'
    standard errors combined in quadrature.
    """
    n, big_k = constellation.dimension, constellation.K
    scales = [_share(mult, n, big_k, k) for k, mult, _ in groups]
    out = []
    for point in zip(*(masses for _, _, masses in groups)):
        total = _share(1, n, big_k, 0)
        variance = 0.0
        for scale, (mass, std_err) in zip(scales, point):
            total += scale * mass
            variance += (scale * std_err) ** 2
        out.append((1.0 - total, math.sqrt(variance)))
    return out
