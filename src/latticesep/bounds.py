"""Sphere bounds on the symbol-error probability over an SNR grid, and
the curve type every SEP function returns.

All bounds are chi-square tail expressions: a k-dimensional Gaussian with
per-coordinate variance ``1/rho`` leaves a sphere of squared radius ``R2``
with probability ``Q(k/2, R2 * rho / 2)``.  The single-sphere bounds apply
one full-dimensional sphere to every point; the multiple-sphere bounds
weight one k-dimensional sphere per rank k by Theorem 1's coefficient
``C(N,k) (K-1)^k / K^N`` (:func:`latticesep.constellation.facet_weights`,
which are not the shares of points on k-facets).

A :class:`Curve` holds one :class:`SepEstimate` per grid point, whatever
produced it: the four bounds here, and the facet decomposition and the
simulator of :mod:`latticesep.sep`.  A point's ``method`` says which.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .constellation import FiniteConstellation, facet_sum
from .exceptions import check_integer
from .lattices import Lattice
from .special import clamp_probability, regularized_gamma_upper

_CI_FACTOR = 1.96  # two-sided 95% normal quantile


@dataclass(frozen=True, eq=False)
class SnrGrid:
    """A strictly increasing grid of SNR points.

    Built from ``db``, the points in decibels (any 1-d sequence, copied);
    ``rho = 10 ** (db / 10)`` is the linear SNR derived from it
    (per-coordinate noise variance ``1/rho``).  Both arrays are read-only.
    """

    db: np.ndarray
    rho: np.ndarray = field(init=False)

    def __post_init__(self):
        db = np.array(self.db, dtype=float)
        with np.errstate(over="ignore"):  # an infinite rho fails the finiteness check
            object.__setattr__(self, "rho", 10.0 ** (db / 10.0))
        object.__setattr__(self, "db", db)
        self.db.setflags(write=False)
        self.rho.setflags(write=False)
        if self.db.ndim != 1 or self.db.size < 1:
            raise ValueError("SNR grid must be a non-empty 1-d sequence")
        if not (np.all(np.isfinite(self.db)) and np.all(np.isfinite(self.rho))):
            raise ValueError("SNR grid has non-finite entries")
        if np.any(self.rho <= 0.0):
            raise ValueError("linear SNR must be positive")
        if np.any(np.diff(self.db) <= 0.0):
            raise ValueError("SNR grid must be strictly increasing")

    def __len__(self) -> int:
        return int(self.db.size)

    @classmethod
    def from_db(cls, start: float, stop: float, step: float = 0.25) -> "SnrGrid":
        """Inclusive dB range, e.g. ``from_db(0, 30, 0.25)``."""
        if step <= 0.0:
            raise ValueError(f"step must be positive, got {step}")
        if stop < start:
            raise ValueError(f"empty range: start={start}, stop={stop}")
        db = np.arange(start, stop + step / 2.0, step, dtype=float)
        return cls.from_db_values(db)

    @classmethod
    def from_db_values(cls, values) -> "SnrGrid":
        return cls(db=values)


class SepMethod(enum.Enum):
    """How the points of a curve were obtained.

    ``THEOREM1``: the facet decomposition with Monte Carlo cell masses.
    ``CLOSED_FORM_ZN``: the same decomposition in closed form (cubic
    lattices).  ``DIRECT_MC``: maximum-likelihood simulation.  ``SLB``,
    ``SUB``, ``MSLB`` and ``MSUB``: the single- and multiple-sphere lower
    and upper bounds.  The value is the ``method`` or ``kind`` column of
    the CSV formats.
    """

    THEOREM1 = "theorem1"
    DIRECT_MC = "direct_mc"
    CLOSED_FORM_ZN = "closed_form_zn"
    SLB = "slb"
    SUB = "sub"
    MSLB = "mslb"
    MSUB = "msub"


@dataclass(frozen=True)
class SepEstimate:
    """Symbol-error probability at one SNR point.

    ``ci_half_width`` is the 95% normal-approximation half width (0 for
    the bounds and the closed form); for ``DIRECT_MC`` it is meaningful
    only when ``reliable`` is true, i.e. at least 20 errors were observed.
    """

    snr_db: float
    rho: float
    mean: float
    ci_half_width: float
    trials: int
    errors_observed: int
    method: SepMethod
    reliable: bool


class Curve(tuple):
    """The :class:`SepEstimate` of each grid point, in grid order."""

    __slots__ = ()

    @property
    def values(self) -> np.ndarray:
        """The points' means, as an array."""
        return np.array([est.mean for est in self])


def _curve(grid: SnrGrid, pairs, method: SepMethod, trials: int = 0) -> Curve:
    # A computed curve from one (probability, standard error) pair per grid
    # point: each probability is clamped, and no errors are counted.
    return Curve(
        SepEstimate(
            snr_db=float(db),
            rho=float(rho),
            mean=clamp_probability(p),
            ci_half_width=_CI_FACTOR * std_err,
            trials=trials,
            errors_observed=0,
            method=method,
            reliable=True,
        )
        for db, rho, (p, std_err) in zip(grid.db, grid.rho, pairs)
    )


def _chi_square_tail(k: int, radius_sq: float, rho: float) -> float:
    return regularized_gamma_upper(0.5 * k, 0.5 * radius_sq * rho)


def volume_matched_radius_sq(k: int, n: int, mean_norm: float) -> float:
    """Squared radius of the k-ball whose volume is ``W**k`` (k < n) or 1 (k = n).

    ``R**2 = Gamma(k/2 + 1)**(2/k) / pi`` times ``W**2`` or 1 respectively:
    the MSLB sphere for facet dimension k of an N-dimensional constellation.
    """
    n = check_integer("n", n, 1)
    k = check_integer("k", k, 1, n)
    # Gamma(k/2 + 1)**(2/k) via lgamma keeps full precision for all k here.
    unit = math.exp((2.0 / k) * math.lgamma(0.5 * k + 1.0)) / math.pi
    if k == n:
        return unit
    if mean_norm is None or not math.isfinite(mean_norm) or mean_norm <= 0.0:
        raise ValueError(f"MSLB radius with k < n requires finite mean_norm > 0, got {mean_norm!r}")
    return unit * mean_norm * mean_norm


def inscribed_radius_sq(min_dist: float) -> float:
    """Squared radius of the packing sphere, ``d_min**2 / 4``, in every dimension."""
    if min_dist is None or not math.isfinite(min_dist) or min_dist <= 0.0:
        raise ValueError(f"MSUB radius requires finite min_dist > 0, got {min_dist!r}")
    return min_dist * min_dist / 4.0


def slb(lattice: Lattice, grid: SnrGrid) -> Curve:
    """Single-sphere lower bound: every point's cell replaced by the
    volume-matched N-sphere, ``Q(N/2, R_N**2 rho / 2)``.

    Depends only on the dimension.  A valid lower bound only where the
    sphere approximation dominates boundary effects (high SNR); the
    multiple-sphere version repairs exactly that.
    """
    n = lattice.dimension
    r_sq = volume_matched_radius_sq(n, n, lattice.mean_norm)
    return _curve(grid, [(_chi_square_tail(n, r_sq, r), 0.0) for r in grid.rho], SepMethod.SLB)


def sub(lattice: Lattice, grid: SnrGrid) -> Curve:
    """Single-sphere upper bound from the inscribed (packing) sphere:
    ``Q(N/2, d_min**2 rho / 8)``."""
    n = lattice.dimension
    r_sq = inscribed_radius_sq(lattice.d_min)
    return _curve(grid, [(_chi_square_tail(n, r_sq, r), 0.0) for r in grid.rho], SepMethod.SUB)


def _multi_sphere(constellation: FiniteConstellation, grid: SnrGrid, radii: list,
                  method: SepMethod) -> Curve:
    # radii[k - 1] is the squared sphere radius for facet dimension k; one
    # sphere stands in for all C(N, k) rank-k cells.
    n = constellation.dimension
    groups = []
    for k in range(1, n + 1):
        masses = [(1.0 - _chi_square_tail(k, radii[k - 1], rho), 0.0) for rho in grid.rho]
        groups.append((k, math.comb(n, k), masses))
    return _curve(grid, facet_sum(constellation, groups), method)


def mslb(constellation: FiniteConstellation, grid: SnrGrid) -> Curve:
    """Multiple-sphere lower bound.

    Theorem 1 weighs the Gaussian mass of each rank-k sublattice cell by
    ``C(N,k)(K-1)^k/K^N``; each cell is replaced by the volume-matched
    k-sphere (radius from ``W`` for k < N, from the unit cell for k = N):
    ``P = 1 - sum_k C(N,k)(K-1)^k/K^N * (1 - Q(k/2, R_k**2 rho/2))``.
    Converges to the single-sphere bound as K grows.

    Not guaranteed to be a lower bound when a Voronoi-relevant vector has
    a basis coefficient beyond +-1, where Theorem 1's ``(K-1)^k`` count
    is not exact: on E4 (up to 2), E8 (up to 7) and skewed user bases.  On
    80 random unit-volume 2-3-D bases at K = 4, 6 and 12 dB, 2e4 trials
    each, the curve lay above simulation + 4 sigma at 21 of 106 points
    with such a coefficient and at none of the 54 without.
    """
    lat = constellation.lattice
    n = lat.dimension
    radii = [volume_matched_radius_sq(k, n, lat.mean_norm) for k in range(1, n + 1)]
    return _multi_sphere(constellation, grid, radii, SepMethod.MSLB)


def msub(constellation: FiniteConstellation, grid: SnrGrid) -> Curve:
    """Multiple-sphere upper bound: same decomposition with every sphere
    shrunk to the inscribed one, ``Q(k/2, d_min**2 rho / 8)`` per facet
    dimension.

    It weighs the cells by the same ``(K-1)^k`` count as :func:`mslb`.
    Where that count fails (a Voronoi-relevant vector with a basis
    coefficient beyond +-1), MSLB is not guaranteed to be a lower bound;
    MSUB stayed above simulation at every point of the check cited there.
    """
    lat = constellation.lattice
    radii = [inscribed_radius_sq(lat.d_min)] * lat.dimension
    return _multi_sphere(constellation, grid, radii, SepMethod.MSUB)


def format_sig(x: float) -> str:
    """Format with 12 significant digits (CSV convention)."""
    return format(float(x), ".12g")


def curve_csv_rows(curve: Curve, constellation: FiniteConstellation) -> list[str]:
    """CSV lines for a bound curve: header ``snr_db,value,kind,lattice,K``.

    ``kind`` is the points' method.  ``K`` stays empty for the
    single-sphere bounds, which do not depend on it.
    """
    kind = curve[0].method
    k_field = "" if kind in (SepMethod.SLB, SepMethod.SUB) else str(constellation.K)
    name = constellation.lattice.name
    rows = ["snr_db,value,kind,lattice,K"]
    for est in curve:
        rows.append(f"{format_sig(est.snr_db)},{format_sig(est.mean)},{kind.value},{name},{k_field}")
    return rows


def write_curve_csv(curve: Curve, path, constellation: FiniteConstellation) -> None:
    """Write :func:`curve_csv_rows` to ``path`` with a trailing newline."""
    rows = curve_csv_rows(curve, constellation)
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8", newline="\n")
