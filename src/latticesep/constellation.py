"""Finite constellation geometry: facets of the K-PAM parallelotope carving.

A constellation takes integer coordinates ``u in {0, ..., K-1}**N`` through
the lattice generator.  Its boundary decomposes into k-dimensional facets:
a point belongs to a k-facet when exactly k of its coordinates are strictly
interior (``0 < u_i < K-1``) and the remaining N-k sit on the box edge.  The
k-facets split into ``C(N, k)`` equivalence classes by *which* coordinates
are interior; each class contains ``2**(N-k)`` mirror-image facets holding
``(K-2)**k`` points apiece.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .lattices import Lattice


@dataclass(frozen=True, eq=False)
class FiniteConstellation:
    """A lattice carved to ``K`` points per dimension (``K**N`` total)."""

    lattice: Lattice
    K: int

    def __post_init__(self):
        if not isinstance(self.K, int) or self.K < 2:
            raise ValueError(f"K must be an integer >= 2, got {self.K!r}")

    @property
    def dimension(self) -> int:
        return self.lattice.dimension

    @property
    def size(self) -> int:
        return self.K**self.dimension


def facet_count(n: int, k: int) -> int:
    """Number of k-dimensional facets of the N-parallelotope: 2**(N-k) C(N, k)."""
    if not isinstance(n, int) or not isinstance(k, int):
        raise ValueError("facet_count arguments must be integers")
    if n < 1 or k < 0 or k > n:
        raise ValueError(f"facet_count requires 0 <= k <= n with n >= 1, got n={n}, k={k}")
    return (1 << (n - k)) * math.comb(n, k)


def points_per_facet(big_k: int, k: int) -> int:
    """Constellation points on one k-facet: (K-2)**k (so 1 on each vertex)."""
    if not isinstance(big_k, int) or not isinstance(k, int):
        raise ValueError("points_per_facet arguments must be integers")
    if big_k < 2 or k < 0:
        raise ValueError(f"points_per_facet requires K >= 2 and k >= 0, got K={big_k}, k={k}")
    return (big_k - 2) ** k
