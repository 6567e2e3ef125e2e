"""Symbol-error probability of finite lattice constellations in Gaussian noise.

Two independent routes to the same quantity:

* **Facet decomposition** (:func:`exact_sep_theorem1`).  Conditioning on
  the facet class of the transmitted point, the error probability of a
  K-PAM carving is exactly

  ``P(rho) = 1 - (1/K**N) * sum_k (K-1)**k * sum_p J[k, p](rho)``

  where ``J[k, p]`` is the Gaussian probability mass of the Voronoi cell
  of the rank-k sublattice spanned by basis subset ``(k, p)`` and
  ``J[0] = 1``.  For cubic lattices every cell is a unit cube, the mass
  factorizes per coordinate, and the decomposition collapses to a closed
  form; for general lattices each ``J`` is estimated by Monte Carlo with
  an exact cell-membership test.

* **Direct simulation** (:func:`simulate_sep`).  Draw equiprobable
  symbols, add white Gaussian noise, decode with a box-constrained
  closest-point search, and count symbol errors.

Both routes draw from the deterministic streams of
:mod:`latticesep.streams`, so every estimate is a pure function of its
seed and is independent of thread count.

SNR convention: ``rho = 1 / sigma**2`` where ``sigma**2`` is the noise
variance per coordinate; decibel values are ``10 * log10(rho)``.
"""

from __future__ import annotations

import concurrent.futures
import enum
import itertools
import math
import queue
from dataclasses import dataclass

import numpy as np

from .bounds import _CI_FACTOR, Curve, SepEstimate, SepMethod, SnrGrid, _curve, format_sig
from .constellation import FiniteConstellation, facet_sum
from .cvp import TIE_TOL, BatchDecoder, Decoder, _check_condition, voronoi_test_vectors
from .exceptions import check_integer
from .lattices import Lattice, is_integer_orthonormal, sublattice_generator
from .special import q_function
from .streams import (
    SHARD_SIZE,
    _check_seed,
    coarse_normals,
    derive_seed,
    normal_angles,
    normal_radii,
    normals_from_angles,
    seek,
    standard_normals,  # not called here; bench/spans.py traces sep's stream functions by name
    stream,
    uniform_symbols,  # not called here; bench/spans.py traces sep's stream functions by name
    uniforms_to_radii,
    uniforms_to_symbols,
)

__all__ = [
    "JSource",
    "SimPlan",
    "exact_sep_theorem1",
    "sep_csv_rows",
    "simulate_sep",
    "write_sep_csv",
]

_MIN_BUDGETS = {"max_trials": 10**4, "target_errors": 50, "trials_per_j": 10**4}
_MAX_SIM_DIMENSION = 8
_MAX_SIM_LEVELS = 1 << 20  # here y = G u + e keeps 32 fractional bits of the noise; at 2**52, none
_RELIABLE_ERRORS = 20
_GAUGE_BLOCK = 1 << 18  # entries per block of sample-by-test-vector products (2 MB)
_CERT_BLOCK = 1 << 16  # entries per block of trial-by-test-vector products (512 kB)
_SCREEN_MARGIN = 1e-9  # relative slack of the radial screen, far above the rounding it absorbs
_ROW_BLOCK = 1 << 11  # rows of a shard screened, or transformed and decided, at a time, per worker
_TABLE_POINTS = 1 << 12  # largest constellation decoded from a point table
_SEEK_CHUNK = 1 << 10  # words of a shard's symbol or angle region that are read, or skipped, whole
_SPARSE_OPEN = 2  # open rows per _SEEK_CHUNK symbol words from which a shard reads every word
_DENSE_RANGE = 0.9  # share of open rows from which a _ROW_BLOCK row range is transformed whole
_DENSE_SHARE = 0.25  # expected share of open entries from which a rounding shard forms every normal
_COARSE_SLACK = 2.0**-14  # distance to an entry limit within which a single-precision normal is redone


class JSource(enum.Enum):
    """How a Voronoi-cell mass ``J[k, p]`` is evaluated."""

    ANALYTIC_ZN = "analytic_zn"
    MC_VORONOI = "mc_voronoi"


def _check_budget(name: str, value) -> int:
    return check_integer(name, value, _MIN_BUDGETS[name])


def _check_sampled(lattice: Lattice, what: str) -> None:
    # The limits of both sampled curves: simulation and MC_VORONOI.
    n = lattice.dimension
    if n > _MAX_SIM_DIMENSION:
        raise ValueError(f"{what} on {lattice.name} needs dimension N <= {_MAX_SIM_DIMENSION}, got N={n}")
    _check_condition(lattice.generator, f"{what} on {lattice.name}")


@dataclass(frozen=True, eq=False)
class SimPlan:
    """Everything that determines a simulation run.

    Two runs with equal plans produce identical estimates, whatever the
    thread count.  The plan checks every limit of the run when it is
    made, and raises ``ValueError`` naming the first one broken: the
    constellation needs at most 8 dimensions, a generator condition
    number of at most 1e8 and ``K <= 2**20`` levels; ``seed`` must lie in
    ``[0, 2**64)``, ``max_trials`` must be at least 10**4 and
    ``target_errors`` at least 50.
    """

    constellation: FiniteConstellation
    grid: SnrGrid
    seed: int
    max_trials: int = 10**7
    target_errors: int = 100

    def __post_init__(self):
        _check_sampled(self.constellation.lattice, "simulation")
        big_k = self.constellation.K
        if big_k > _MAX_SIM_LEVELS:
            raise ValueError(f"K must be at most {_MAX_SIM_LEVELS} for simulation, got K={big_k}")
        object.__setattr__(self, "seed", _check_seed(self.seed))
        for name in ("max_trials", "target_errors"):
            object.__setattr__(self, name, _check_budget(name, getattr(self, name)))


def _membership_halfspaces(generator: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Half-space form of the Voronoi cell around the origin: x belongs iff
    # x . v <= ||v||**2 / 2 for every Voronoi-relevant vector v (ties inside).
    vectors = voronoi_test_vectors(generator)
    return vectors, 0.5 * np.sum(vectors**2, axis=1)


def _cell_masses_mc(
    v: np.ndarray, half_norms: np.ndarray, rhos, trials: int, seed: int
) -> list[tuple[float, float]]:
    # Fraction of N(0, I/rho) samples inside the cell at each rho, with
    # standard error.  Shard s draws unit-variance samples z from
    # stream(seed, s) whatever rho is, and sigma z lies in the cell (ties
    # inside) iff its gauge max_j (z . v_j) / b_j, b_j = h_j + TIE_TOL, is at
    # most sqrt(rho); so one sorted set of gauges serves every rho.  The
    # gauges are first taken as max_j z . w_j, w_j = v_j / b_j, from float32
    # trig: within 4.3e-6 per entry (streams.coarse_normals), so within
    # |w_j|_1 4.3e-6 of the exact gauge, plus rounding of relative size eps.
    # A sample is formed again exactly, and gauged as (v @ z.T) / b, only in
    # the `near`-wide cells at and beside a limit's, which hold every gauge
    # within near = 2 _COARSE_SLACK max_j |w_j|_1, 28 times that bound, of a
    # limit: every other one is on the same side of each limit as its exact
    # gauge.  No gauge passes max_j |w_j|_1 sqrt(-2 log 2**-53), as no entry
    # passes the largest Box-Muller radius, so no limit `near` beyond that
    # needs a cell.
    # The products are taken vector-major (J, rows), a block of rows at a
    # time, into one reused buffer (a fresh 2 MB block per product costs its
    # page faults).
    vectors, k = v.shape
    bounds = (half_norms + TIE_TOL)[:, None]
    w = v / bounds
    widest = float(np.max(np.sum(np.abs(w), axis=1)))
    near = 2.0 * _COARSE_SLACK * widest
    limits = np.sqrt(rhos)
    top = min(float(np.max(limits)), widest * math.sqrt(106.0 * math.log(2.0)) + near)
    cells = np.zeros(int(top / near) + 3, dtype=bool)  # the last, never marked, takes every gauge above
    for shift in (-1, 0, 1):
        cells[np.maximum((limits[limits <= top] / near).astype(np.intp) + shift, 0)] = True
    rows = max(1, _GAUGE_BLOCK // vectors)
    gauges = np.empty(trials)
    buffer = np.empty(min(rows, trials) * vectors)
    cell = np.empty(min(SHARD_SIZE, trials), dtype=np.intp)
    radius, angle = np.empty((2, (cell.size * k + 1) // 2))
    for start in range(0, trials, SHARD_SIZE):
        m = min(SHARD_SIZE, trials - start)
        rng = stream(seed, start // SHARD_SIZE)
        r = normal_radii(rng, m * k, out=radius)
        a = normal_angles(rng, r.size, out=angle)
        z = coarse_normals(r, a, m * k).reshape(m, k)
        shard = gauges[start : start + m]
        for i in range(0, m, rows):
            size = min(rows, m - i)
            block = np.matmul(w, z[i : i + size].T, out=buffer[: vectors * size].reshape(vectors, size))
            np.max(block, axis=0, out=shard[i : i + size])
        index = np.divide(shard, near, out=cell[:m], casting="unsafe")
        redo = np.flatnonzero(cells[np.minimum(index, cells.size - 1, out=index)])
        if redo.size:
            z = normals_from_angles(r, a, m * k, (redo[:, None] * k + np.arange(k)).reshape(-1))
            shard[redo] = np.max(v @ z.reshape(-1, k).T / bounds, axis=0)
    gauges.sort()
    masses = []
    for inside in np.searchsorted(gauges, limits, side="right").tolist():
        mean = inside / trials
        masses.append((mean, math.sqrt(mean * (1.0 - mean) / trials)))
    return masses


def _clip_probability(p: float) -> float:
    return min(1.0, max(0.0, p))


def _check_theorem1(c: FiniteConstellation, j_source, trials_per_j, seed) -> tuple[int, int]:
    # exact_sep_theorem1's limits: the checked (trials_per_j, seed), or its ValueError.
    if not isinstance(j_source, JSource):
        raise ValueError(f"j_source must be a JSource, got {j_source!r}")
    if j_source is JSource.ANALYTIC_ZN:
        if not is_integer_orthonormal(c.lattice):
            raise ValueError("ANALYTIC_ZN applies only to the identity-generator cubic lattices")
        return trials_per_j, seed
    _check_sampled(c.lattice, "MC_VORONOI")
    return _check_budget("trials_per_j", trials_per_j), _check_seed(seed)


def exact_sep_theorem1(
    c: FiniteConstellation,
    grid: SnrGrid,
    j_source: JSource,
    trials_per_j: int = 10**5,
    seed: int = 0,
) -> Curve:
    """Symbol-error probability from the facet decomposition.

    Evaluates ``P = 1 - (1/K**N) sum_k (K-1)**k sum_p J[k, p]`` at every
    grid point.

    With ``j_source = ANALYTIC_ZN`` (cubic lattices only) every ``J`` is
    closed-form, all subsets of one size are equal, and the result is
    exact (method ``CLOSED_FORM_ZN``, zero CI).

    With ``MC_VORONOI`` each distinct sublattice geometry is estimated by
    Monte Carlo with ``trials_per_j`` samples: the fraction of Gaussian
    vectors (per-coordinate variance ``1/rho``, drawn in the sublattice's
    own span frame) that the exact half-space test of
    :func:`latticesep.cvp.voronoi_test_vectors` places in the cell, with
    boundary ties (within 1e-12) counted as inside.  Subsets are shared
    only when their Gram matrices are bit-identical (the cubic shortcut),
    otherwise all ``C(N, k)`` estimates are computed.  Each shared
    estimate contributes its multiplicity to both the mean and the
    propagated variance; distinct estimates use disjoint streams (child
    seed from ``(seed, k, p)``) and combine in quadrature.  The reported
    ``trials`` is the per-J sample budget.

    The samples of a group do not depend on ``rho``: they are drawn once
    at unit variance and reused at every grid point, scaled by
    ``1/sqrt(rho)``.  So the curve is non-increasing in SNR, and its
    points are correlated (they always were, since the streams have
    never depended on ``rho``); the cost is one sort per group, whatever
    the grid size.  A sample lies in the cell at ``rho`` exactly when its
    gauge ``max_j z . v_j / (h_j + TIE_TOL)`` is at most ``sqrt(rho)``.
    The gauges are first taken from single-precision trig
    (:func:`latticesep.streams.coarse_normals`), and only the samples
    whose gauge lies within 28 times its error bound of some ``sqrt(rho)``
    are formed again in double precision; so every mass is the one the
    double-precision gauges give.

    Known bias: the ``(K-1)**k`` count is exact only when every relevant
    vector has basis coefficients ``|c_i| <= 1``, as on Z^N and A2 but not
    on E4 (up to 2) or E8 (up to 7).  On E8 with K = 2 at 10 dB the estimate
    sits 9.1 sigma above simulation: there it is not the exact SEP.

    Every limit is checked before any work, with a ``ValueError`` naming
    the first one broken: ``ANALYTIC_ZN`` needs an identity generator;
    ``MC_VORONOI`` needs at most 8 dimensions, a generator condition
    number of at most 1e8, ``trials_per_j`` of at least 10**4 and a
    ``seed`` in ``[0, 2**64)``.
    """
    n = c.dimension
    trials_per_j, seed = _check_theorem1(c, j_source, trials_per_j, seed)
    if j_source is JSource.ANALYTIC_ZN:
        # Every rank-k cell is the unit k-cube, whose mass factorizes per
        # coordinate.
        interval = [1.0 - 2.0 * q_function(math.sqrt(float(rho)) / 2.0) for rho in grid.rho]
        groups = [(k, math.comb(n, k), [(j**k, 0.0) for j in interval]) for k in range(1, n + 1)]
        method, trials = SepMethod.CLOSED_FORM_ZN, 0
    else:
        # Group subsets with bit-identical sublattice Gram matrices; each
        # group is estimated once, on the whole grid, from the stream of its
        # first (lexicographic) member.
        found: dict[tuple[int, bytes], list] = {}
        for k in range(1, n + 1):
            for p, subset in enumerate(itertools.combinations(range(1, n + 1), k), start=1):
                generator = sublattice_generator(c.lattice, subset)
                gram = generator.T @ generator
                key = (k, gram.tobytes())
                if key in found:
                    found[key][1] += 1
                else:
                    v, half_norms = _membership_halfspaces(generator)
                    group_seed = derive_seed(seed, k, p)
                    masses = _cell_masses_mc(v, half_norms, grid.rho, trials_per_j, group_seed)
                    found[key] = [k, 1, masses]
        groups = [tuple(group) for group in found.values()]
        method, trials = SepMethod.THEOREM1, trials_per_j

    return _curve(grid, facet_sum(c, groups), method, trials)


@dataclass(frozen=True)
class _Certificate:
    """The Voronoi-relevant vectors ``v_j = G c_j`` of a generator, for deciding trials.

    One half-space per facet of the Voronoi cell (240 on E8, 24 on E4):
    :func:`latticesep.cvp.voronoi_test_vectors` shows that ``TIE_TOL / 2``
    margins on these imply them on every other lattice vector.  They are
    stored as rows, so a block's products ``v @ e.T`` are vector-major
    ``(J, rows)`` and every fold over the vectors runs along contiguous
    rows.  ``u + c_j`` in the box is read from one table of at most 256
    classes per group of coordinates (E4 with K = 4: one 256 x 24; E8:
    two 256 x 240; A2: one 9 x 6).
    """

    vectors: np.ndarray  # (J, n): the vectors v_j as rows
    half_norms: np.ndarray  # (J, 1): h_j = |v_j|**2 / 2
    inscribed: float  # d_min**2 / 4 - TIE_TOL, with d_min**2 = 2 min_j h_j
    in_box: tuple[np.ndarray, ...]  # per group, (classes, J) bool: 0 <= a_i + c_ji < K on all its coordinates
    radix: np.ndarray  # (n, groups) int: classes = row(a) @ radix, a group's first coordinate lowest
    reach: int  # max |c_ji|; row(a) = a - max(0, min(a, top) - reach)
    top: int  # K - 1 - reach


def _certificate(generator: np.ndarray, big_k: int) -> _Certificate:
    vectors, half_norms = _membership_halfspaces(generator)
    coeffs = np.rint(np.linalg.solve(generator, vectors.T)).astype(np.int64)
    # Every level a with reach <= a <= K - 1 - reach keeps a + c_ji in the box,
    # so those levels share one row: at most 2 reach + 1 rows, whatever K is.
    # A group takes as many coordinates as keep its classes at most 256.
    reach, coord = int(np.abs(coeffs).max()), np.arange(len(coeffs))
    levels = np.arange(min(big_k, 2 * reach + 1))[:, None]
    levels[reach + 1 :] += big_k - levels.size
    per_level = (levels >= -coeffs[:, None, :]) & (levels < big_k - coeffs[:, None, :])
    size = max(1, int(np.log(256.5) / np.log(levels.size)))
    radix = np.zeros((coord.size, -(-coord.size // size)), dtype=np.int64)
    radix[coord, coord // size] = levels.size ** (coord % size)
    tables = [np.ones((1, len(vectors)), dtype=bool)] * radix.shape[1]
    for i in coord:
        tables[i // size] = (per_level[i][:, None] & tables[i // size]).reshape(-1, len(vectors))
    inscribed = 0.5 * float(half_norms.min()) - TIE_TOL
    top = big_k - 1 - reach
    return _Certificate(vectors, half_norms[:, None], inscribed, tuple(tables), radix, reach, top)


def _in_box(cert: _Certificate, u: np.ndarray) -> np.ndarray:
    # The (rows, J) mask of 0 <= u + c_j < K, one row gather per group.
    classes = (u - np.maximum(np.minimum(u, cert.top) - cert.reach, 0)) @ cert.radix
    mask = np.take(cert.in_box[0], classes[:, 0], axis=0)
    for group, table in enumerate(cert.in_box[1:], start=1):
        mask &= np.take(table, classes[:, group], axis=0)
    return mask


def _certify(
    cert: _Certificate | None, u: np.ndarray, e: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    # Decides the trials y = G u + e that the test vectors settle; returns
    # a mask of the rows decided as errors and the ascending indices of the
    # rows left undecided; without a certificate (a diagonal generator)
    # that is every row.  A row is correct if |e|**2 < d_min**2 / 4 - TIE_TOL
    # (the inscribed sphere), or if e . v_j - h_j < -TIE_TOL / 2
    # for every j: then every other lattice point is farther than |e|**2 +
    # TIE_TOL, so G u is decoded whatever the tie rule.  A row is an error
    # if some u + c_j is in the box and e . v_j - h_j > TIE_TOL / 2: that
    # constellation point is closer by more than TIE_TOL.  Every other row,
    # exact ties included, is left to the decoder.  The products e . v_j
    # are taken a block of rows at a time, vector-major (J, rows).
    if cert is None:
        return np.zeros(len(e), dtype=bool), np.arange(len(e))
    rows = np.flatnonzero(np.einsum("ij,ij->i", e, e) >= cert.inscribed)
    step = max(1, _CERT_BLOCK // cert.half_norms.size)
    wrong = np.zeros(len(e), dtype=bool)
    undecided = []
    for start in range(0, rows.size, step):
        block = rows[start : start + step]
        margins = cert.vectors @ e[block].T
        margins -= cert.half_norms
        open_rows = np.max(margins, axis=0) >= -0.5 * TIE_TOL
        closer = margins > 0.5 * TIE_TOL
        closer &= _in_box(cert, u[block]).T
        hit = np.any(closer, axis=0)
        wrong[block[hit]] = True
        undecided.append(block[open_rows & ~hit])
    return wrong, np.concatenate(undecided) if undecided else rows


@dataclass(frozen=True)
class _Rounding:
    """Entry-by-entry verdicts for a diagonal generator ``diag(d)`` at one SNR.

    Coordinate i of a trial decodes from its noise entry ``sigma z`` alone:
    to its symbol when ``|z| < inner_i``, and to the neighbour above (below)
    its symbol when ``sign_i z > outer_i`` (``< -outer_i``) and that
    neighbour is in the box, to its symbol when it is not.  Between the two
    limits, a band about 1e-9 wide, the decoder decides.  The entries come
    from float32 trig, and exactly where ``| |z| - centre_i | <= width_i``.
    """

    inner: np.ndarray  # (n,)
    outer: np.ndarray  # (n,)
    centre: np.ndarray  # (n,): (inner + outer) / 2
    width: np.ndarray  # (n,): (outer - inner) / 2 + _COARSE_SLACK
    flipped: np.ndarray  # (n,): d_i < 0, so that the symbol above is below in y
    cut: np.ndarray  # (n,): a radial uniform below cut_i has a radius below inner_i
    share: float  # mean_i exp(-inner_i**2 / 2), the expected share of entries that cut_i leaves open


def _tail_bound(squared):
    # A bound on 1 - u (on a product of such factors) that holds whenever the
    # float Box-Muller radius sqrt(-2 log1p(-u)) reaches sqrt(squared) (the
    # float squared radii sum to `squared` or more): exp(-squared / 2), with
    # a relative allowance of _SCREEN_MARGIN on the exponent, for the
    # rounding of log1p, sqrt and the sum, and on the value, for that of exp
    # and the product.  1 - u itself is exact.
    return np.exp(-0.5 * (1.0 - _SCREEN_MARGIN) * np.maximum(squared, 0.0)) * (1.0 + _SCREEN_MARGIN)


def _is_diagonal(generator: np.ndarray) -> bool:
    # Whether trials on `generator` are decided entry by entry (_Rounding)
    # rather than by a certificate.
    return np.array_equal(generator, np.diag(np.diagonal(generator)))


def _screen(generator: np.ndarray, big_k: int, cert: _Certificate | None, rho: float):
    # What settles trials at SNR rho from the radial uniforms of their noise.
    # Entry t of a noise block is sigma z_t with |z_t| <= r, the radius of
    # its pair's uniform u, and r >= L iff 1 - u <= exp(-L**2 / 2).
    # Rounding (cert None, a diagonal generator) decides entry by entry
    # (_Rounding): y_i / d_i = u_i + e_i / d_i, so coordinate i decodes to
    # u_i when |e_i| < |d_i| / 2 - TIE_TOL / (2 |d_i|), and to u_i + 1 (u_i - 1)
    # when sign(d_i) e_i > |d_i| / 2 + TIE_TOL / (2 |d_i|) (< -...), if it is
    # in the box, in both cases by more than TIE_TOL; the slack also covers
    # the rounding of y_i / d_i, which grows with the level.  Every other
    # decoder counts a trial correct when |e|**2 is below the certificate's
    # inscribed bound, so its rows stay open when the product of their
    # entries' 1 - u is at most the returned bound (_open_rows).
    if cert is None:
        d = np.diagonal(generator)
        a = np.abs(d)
        slack = _SCREEN_MARGIN + 64 * big_k * np.finfo(float).eps
        inner = (0.5 * a - 0.5 * TIE_TOL / a) * ((1.0 - slack) * math.sqrt(rho))
        outer = (0.5 * a + 0.5 * TIE_TOL / a) * ((1.0 + slack) * math.sqrt(rho))
        tail = _tail_bound(np.maximum(inner, 0.0) ** 2)
        centre, width = 0.5 * (inner + outer), 0.5 * (outer - inner) + _COARSE_SLACK
        return _Rounding(inner, outer, centre, width, d < 0, 1.0 - tail, float(np.mean(np.minimum(tail, 1.0))))
    return float(_tail_bound(cert.inscribed * (1.0 - _SCREEN_MARGIN) * rho))


def _open_rows(uniforms: np.ndarray, m: int, n: int, bound: float) -> np.ndarray:
    # Ascending indices of the rows of an (m, n) noise block that its radial
    # uniforms do not settle, for a certificate.  Entry t of the block comes
    # from pair t (cosine) or t - pairs (sine), so |e_t| <= sigma r_p(t).  A
    # row is settled when the sum of its r_p(t)**2 is below the limit, that
    # is when the product of its 1 - u_p(t) is above `bound` (_screen).  The
    # 1 - u are laid out a block of rows at a time.
    pairs = uniforms.size
    tail = np.empty(min(m, _ROW_BLOCK) * n)
    found = []
    for first in range(0, m, _ROW_BLOCK):
        lo, hi = first * n, min(m, first + _ROW_BLOCK) * n
        cut = min(max(pairs, lo), hi)  # entries lo..cut are cosines, cut..hi sines
        flat = tail[: hi - lo]
        np.subtract(1.0, uniforms[lo:cut], out=flat[: cut - lo])
        np.subtract(1.0, uniforms[cut - pairs : hi - pairs], out=flat[cut - lo :])
        block = flat.reshape(-1, n)
        product = block[:, 0].copy()
        for i in range(1, n):
            product *= block[:, i]
        found.append(first + np.flatnonzero(product <= bound))
    return np.concatenate(found)


def _sides(rule: _Rounding, z: np.ndarray, coordinate) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    # For unit normals z of `coordinate` (an index array, or slice(None) for
    # whole rows): the mask of those past their outer limit, whether each
    # points up (sign_i z > 0), and the mask of those in the band between
    # the two limits, or None when there is none.
    size = np.abs(z)
    beyond = size > rule.outer[coordinate]
    reach = size >= rule.inner[coordinate]
    band = reach & ~beyond if np.count_nonzero(reach) > np.count_nonzero(beyond) else None
    up = z > 0.0
    if rule.flipped.any():
        up ^= rule.flipped[coordinate]
    return beyond, up, band


def _rounding_normals(rule: _Rounding, radius, angle, count: int, entries, coordinate) -> np.ndarray:
    # The normals of `entries` of a block, for _sides: a slice of whole rows,
    # returned as (rows, n), with `coordinate` slice(None), or ascending
    # indices of coordinates `coordinate`.  From float32 trig, within 4.3e-6
    # of their exact values (streams.coarse_normals), and exact within
    # _COARSE_SLACK = 2**-14, 14 times that, of a limit: so every other one
    # is on the same side of both limits as its exact value, with its sign.
    rows = isinstance(entries, slice)
    z = coarse_normals(radius, angle, count, entries).reshape((-1, rule.inner.size) if rows else -1)
    off = np.abs(z)
    off -= rule.centre[coordinate]
    np.abs(off, out=off)
    patch = np.flatnonzero(off <= rule.width[coordinate])
    if patch.size:
        exact = patch + entries.start if rows else entries[patch]
        z.reshape(-1)[patch] = normals_from_angles(radius, angle, count, exact)
    return z


def _moved(up: np.ndarray, scaled: np.ndarray, big_k: int) -> np.ndarray:
    # Whether entries past their outer limit move their coordinate: the
    # neighbour on their side (above where `up`) is in the box.  `scaled`
    # is K w for the symbol uniform w, whose symbol is min(floor(K w), K - 1)
    # (streams.uniforms_to_symbols).  Selected by bit operations, which
    # take a tenth of the time of np.where on masks.
    above = scaled < big_k - 1
    below = scaled >= 1.0
    above ^= below
    above &= up
    above ^= below
    return above


def _any_column(columns) -> np.ndarray:
    # np.any(axis=1) of a block of rows with n <= 8 columns, given as one
    # boolean array per column, the first of which it overwrites: a fold
    # over the columns takes about half the time of the row reduction.
    columns = iter(columns)
    hit = next(columns)
    for column in columns:
        hit |= column
    return hit


def _decoder(generator: np.ndarray, big_k: int) -> BatchDecoder:
    # The cheapest exact search for the rows the certificate or the entry
    # verdicts leave open, for every generator alike: the point table up
    # to _TABLE_POINTS points, else the sphere search, which with a
    # certificate gets only the tie-band rows of the radius query around
    # the transmitted point (_errors).  Every exact search gives the same
    # verdicts, so the choice changes only the speed.
    if big_k ** generator.shape[0] > _TABLE_POINTS:
        return BatchDecoder(generator, big_k, Decoder.SPHERE_DECODER)
    return BatchDecoder(generator, big_k, Decoder.BRUTE_FORCE)


def _shard_buffers(entries: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # The draws of one shard of up to `entries` noise entries: its symbol
    # uniforms, noise radii and noise angles.  A simulation owns one set per
    # worker and reuses it from shard to shard and point to point, so its
    # footprint is fixed whatever the thread timing.
    pairs = (entries + 1) // 2
    return np.empty(entries), np.empty(pairs), np.empty(pairs)


def _errors(
    generator: np.ndarray,
    decoder: BatchDecoder,
    cert: _Certificate | None,
    u: np.ndarray,
    e: np.ndarray,
) -> np.ndarray:
    # Error mask of the trials y = G u + e.  The certificate, if there is
    # one, settles most rows (_certify); where the sphere search would
    # decode the rest, the radius query around G u settles most of those
    # (BatchDecoder.radius_query): a row with no other box point within
    # |e|**2 + 2 TIE_TOL of y is correct, and one whose other points there
    # are all closer than G u by more than 2 TIE_TOL is an error, whatever
    # the tie rule.  The rest -- a point in that tie band, or u not
    # reached -- and every row left to the point table, or given without
    # a certificate, are decoded.
    n = generator.shape[0]
    wrong, undecided = _certify(cert, u, e)
    if undecided.size and cert is not None and decoder.method is Decoder.SPHERE_DECODER:
        own, other = decoder.radius_query(u[undecided], e[undecided])
        settled = other < own - 2.0 * TIE_TOL
        wrong[undecided[settled]] = other[settled] > -np.inf
        undecided = undecided[~settled]
    if undecided.size:
        sent = u[undecided]
        decoded = decoder.decode(sent @ generator.T + e[undecided])
        wrong[undecided] = _any_column(decoded[:, i] != sent[:, i] for i in range(n))
    return wrong


def _chunk_runs(size: int, words: np.ndarray) -> list[tuple[int, int]]:
    # Word ranges [a, b) of the runs of consecutive _SEEK_CHUNK-word chunks
    # of a size-word region that hold any of `words`, in ascending order.
    marks = np.zeros(-(-size // _SEEK_CHUNK) + 2, dtype=bool)  # one False each side
    marks[1 + words // _SEEK_CHUNK] = True
    edges = np.flatnonzero(marks[1:] != marks[:-1]) * _SEEK_CHUNK
    return [(a, min(b, size)) for a, b in zip(edges[::2].tolist(), edges[1::2].tolist())]


def _read_chunks(rng, origin: dict, start: int, out: np.ndarray, draw, words: np.ndarray) -> None:
    # Reads into `out`, the region of a shard's layout that begins at word
    # `start`, the chunks of it that hold any of `words`, one seek per run
    # of chunks; draw(rng, size, out) reads `size` words into `out`.  Every
    # other word of `out` is left as it was.
    for a, b in _chunk_runs(out.size, words):
        seek(rng, origin, start + a)
        draw(rng, b - a, out[a:b])


def _draw_uniforms(rng, size: int, out: np.ndarray) -> None:
    rng.random(out=out)


def _shard_errors(
    generator: np.ndarray,
    big_k: int,
    decoder: BatchDecoder,
    cert: _Certificate | None,
    screen,
    sigma: float,
    rng: np.random.Generator,
    m: int,
    buffers: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> int:
    # Symbol errors among the m trials of the fresh stream rng, whose
    # layout is m n symbol uniforms, then the radial uniforms of the noise,
    # then its angular uniforms, read by position (streams.seek) into
    # `buffers` (_shard_buffers).  The radial uniforms are read first and
    # screened as they are (_screen); a radius is formed only where a trial
    # needs it.  Every row gets the values that a front-to-back read gives
    # it, and every row the screen or the entry verdicts do not settle is
    # decided as the full path decides it.
    n = generator.shape[0]
    count = m * n
    pairs = (count + 1) // 2
    uniforms, radius, angle = buffers[0][:count], buffers[1][:pairs], buffers[2][:pairs]
    symbols = uniforms.reshape(m, n)
    columns = np.arange(n)
    origin = rng.bit_generator.state
    seek(rng, origin, count)
    rng.random(out=radius)

    def read_all() -> None:
        normal_angles(rng, pairs, out=angle)  # the angles follow the radial uniforms
        seek(rng, origin, 0)
        rng.random(out=uniforms)
        uniforms_to_radii(radius)

    def block_errors(entries, block_uniforms: np.ndarray) -> int:
        e = normals_from_angles(radius, angle, count, entries).reshape(-1, n)
        e *= sigma
        u = uniforms_to_symbols(block_uniforms, big_k)
        return int(np.count_nonzero(_errors(generator, decoder, cert, u, e)))

    def row_errors(rows: np.ndarray, read: bool) -> int:
        # Errors among `rows` (ascending) on the full path, _ROW_BLOCK rows
        # at a time.  With `read`, the chunks of symbol and angle words that
        # hold their entries are read first (entry t has symbol word t and
        # angle word t, a cosine, or t - pairs, a sine), and their pairs'
        # radii formed, once each (a pair used twice is one value).
        if read:
            entries = (rows[:, None] * n + columns).reshape(-1)
            pair = np.where(entries < pairs, entries, entries - pairs)
            _read_chunks(rng, origin, 0, uniforms, _draw_uniforms, entries)
            _read_chunks(rng, origin, count + pairs, angle, normal_angles, pair)
            radius[pair] = uniforms_to_radii(radius[pair])
        errors = 0
        for start in range(0, rows.size, _ROW_BLOCK):
            block = rows[start : start + _ROW_BLOCK]
            errors += block_errors((block[:, None] * n + columns).reshape(-1), symbols[block])
        return errors

    if cert is None:
        buffers = (uniforms, radius, angle)
        return _entry_errors(screen, big_k, rng, origin, m, n, buffers, read_all, row_errors)
    # A certificate: the product screen leaves rows open (_open_rows).  A
    # shard with fewer than _SPARSE_OPEN open rows per _SEEK_CHUNK symbol
    # words reads only the chunks of symbol and angle words that hold an
    # open row's entries.  With more, few chunks are free of open rows and
    # the seeks would cost more than they skip, so the shard reads every
    # word, and transforms each _ROW_BLOCK range of rows that is at least
    # _DENSE_RANGE open whole, through slices: its settled rows decode as
    # correct, so the count is the same.  The other open rows are taken
    # _ROW_BLOCK at a time, so no per-row array outlives its block.
    rows = _open_rows(radius, m, n, screen)
    if rows.size == 0:
        return 0
    if rows.size * _SEEK_CHUNK < _SPARSE_OPEN * count:
        return row_errors(rows, read=True)
    read_all()
    errors = 0
    starts = np.arange(0, m, _ROW_BLOCK)
    stops = np.minimum(starts + _ROW_BLOCK, m)
    counts = np.diff(np.searchsorted(rows, np.append(starts, m)))
    dense = counts >= _DENSE_RANGE * (stops - starts)
    if dense.any():
        # Dropped before the ranges run, so the whole list is not in their peak memory.
        rows = rows[np.repeat(~dense, counts)]
    for lo, hi in zip(starts[dense].tolist(), stops[dense].tolist()):
        errors += block_errors(slice(lo * n, hi * n), symbols[lo:hi])
    return errors + row_errors(rows, read=False)


def _entry_errors(
    rule: _Rounding, big_k: int, rng, origin: dict, m: int, n: int, buffers, read_all, row_errors
) -> int:
    # Symbol errors among the m trials of a shard on a diagonal generator,
    # decided entry by entry (_Rounding): a row is an error if one of its
    # entries moves its coordinate, and correct if every entry keeps it;
    # a row with an entry in the band, and no error, goes to row_errors, so
    # to the decoder.  A shard whose expected open share is at least
    # _DENSE_SHARE reads every word (read_all) and takes its entries
    # _ROW_BLOCK rows at a time, through slices.  Any other screens its
    # radial uniforms on the period-n pattern of the larger of each pair's
    # two limits (pair p holds entry p, a cosine, and entry p + pairs, a
    # sine, if there is one), and forms the radii, then the normals, of
    # only the open pairs' open entries, reading only the chunks of angle
    # words they use; it reads a symbol word only for an entry past its
    # outer limit.  It screens the pairs of _ROW_BLOCK / 2 rows at a time
    # and decides batches of at most that many open pairs, so per-entry
    # arrays hold at most _ROW_BLOCK n entries.
    uniforms, radius, angle = buffers
    count, pairs = m * n, radius.size
    wrong = np.zeros(m, dtype=bool)
    tied = []
    if rule.share >= _DENSE_SHARE:
        read_all()
        for lo in range(0, m, _ROW_BLOCK):
            hi = min(lo + _ROW_BLOCK, m)
            z = _rounding_normals(rule, radius, angle, count, slice(lo * n, hi * n), slice(None))
            beyond, up, band = _sides(rule, z, slice(None))
            hit = _moved(up, uniforms[lo * n : hi * n].reshape(-1, n) * big_k, big_k)
            hit &= beyond
            wrong[lo:hi] = _any_column(hit[:, i] for i in range(n))
            if band is not None:
                tied.append(lo + np.flatnonzero(_any_column(band[:, i] for i in range(n))))
    else:

        def decide(open_pairs: np.ndarray) -> None:
            r = uniforms_to_radii(radius[open_pairs])
            entry = np.concatenate([open_pairs, open_pairs + pairs])  # cosines, then sines
            if count % 2 and open_pairs[-1] == pairs - 1:
                entry = entry[:-1]  # the last pair of an odd block has no sine
            size, coordinate = entry.size, entry % n
            pick = np.flatnonzero(np.concatenate([r, r])[:size] >= rule.inner[coordinate])
            entry, coordinate = entry[pick], coordinate[pick]
            pair = entry.copy()
            pair[int(np.searchsorted(pick, open_pairs.size)) :] -= pairs
            _read_chunks(rng, origin, count + pairs, angle, normal_angles, pair)
            # The open pairs' radii and angles: a block whose entries `pick` are `entry`.
            z = _rounding_normals(rule, r, angle[open_pairs], size, pick, coordinate)
            beyond, up, band = _sides(rule, z, coordinate)
            beyond = np.flatnonzero(beyond)
            moving = entry[beyond]
            _read_chunks(rng, origin, 0, uniforms, _draw_uniforms, moving)
            hit = _moved(up[beyond], uniforms[moving] * big_k, big_k)
            wrong[moving[hit] // n] = True
            if band is not None:
                tied.append(entry[band] // n)

        half = max(1, _ROW_BLOCK // 2)
        span = half * n  # a multiple of n, so every range starts the pattern afresh
        cuts = np.tile(np.minimum(rule.cut, np.roll(rule.cut, -(pairs % n))), half)
        found, size = [], 0
        for a in range(0, pairs, span):
            b = min(a + span, pairs)
            more = a + np.flatnonzero(radius[a:b] >= cuts[: b - a])
            if size + more.size > span:
                decide(np.concatenate(found))
                found, size = [], 0
            found.append(more)
            size += more.size
        if size:
            decide(np.concatenate(found))
    errors = int(np.count_nonzero(wrong))
    if tied:
        rows = np.unique(np.concatenate(tied))
        errors += row_errors(rows[~wrong[rows]], read=rule.share < _DENSE_SHARE)
    return errors


def _simulate_point(
    plan: SimPlan,
    decoder: BatchDecoder,
    cert: _Certificate | None,
    grid_index: int,
    rho: float,
    buffers: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[int, int]:
    # Returns (trials, errors) of one grid point: its shards run one after
    # another, each drawing into `buffers`, and the point stops at the first
    # shard boundary where target_errors have accumulated.  So no shard runs
    # that the target does not need, and the result does not depend on the
    # thread that runs the point.
    g = plan.constellation.lattice.generator
    big_k = plan.constellation.K
    screen = _screen(g, big_k, cert, rho)
    sigma = 1.0 / math.sqrt(rho)
    trials = errors = 0
    while trials < plan.max_trials and errors < plan.target_errors:
        m = min(SHARD_SIZE, plan.max_trials - trials)
        rng = stream(plan.seed, grid_index, trials // SHARD_SIZE)
        errors += _shard_errors(g, big_k, decoder, cert, screen, sigma, rng, m, buffers)
        trials += m
    return trials, errors


def simulate_sep(plan: SimPlan, threads: int = 1) -> Curve:
    """Direct maximum-likelihood Monte Carlo estimate of the SEP.

    Per grid point: draw symbols uniformly over ``{0..K-1}**N``, transmit
    ``x = M u``, receive ``y = x + w`` with ``w ~ N(0, I/rho)``, decode
    with a box-constrained closest-point search, and count rows where the
    decoded coordinates differ from the transmitted ones.
    Stops at the first shard boundary where ``target_errors`` errors have
    accumulated, or at ``max_trials``.

    Most rows are decided without decoding, by a certificate from the
    Voronoi-relevant vectors ``v_j = M c_j`` of the lattice, one per facet
    of its Voronoi cell (:func:`latticesep.cvp.voronoi_test_vectors`: 240
    on E8, 24 on E4; a margin on these implies one on every other lattice
    vector).  With ``e = y - x`` and ``h_j = |v_j|**2 / 2``, a row is
    correct if ``|e|**2 < d_min**2 / 4 - 1e-12`` or if ``e . v_j - h_j <
    -0.5e-12`` for every j, and it is an error if ``e . v_j - h_j >
    0.5e-12`` for some j with ``u + c_j`` in the box.  A block of rows'
    products is formed vector-major, ``(J, rows)``, so every fold over j
    runs along contiguous rows; whether ``u + c_j`` is in the box is read
    from one table of at most 256 classes per group of coordinates.
    These are the decoders' own tie rule (squared distances within
    1e-12 tie, and ties go to the lexicographically smallest point), so
    every verdict is the one a full decode would give; all other rows,
    exact ties included, are decoded.  A diagonal generator is decided
    coordinate by coordinate instead (below), which is cheaper than the
    certificate.  Every exact search gives the same counts, so the search
    for the rows left open is chosen from the constellation for speed
    alone, whatever the generator: the table of all ``K**N`` points when
    ``K**N <= 4096``, else the sphere search.  With a certificate, one
    batched radius query (:meth:`latticesep.cvp.BatchDecoder.radius_query`)
    first enumerates, for all those rows at once, the box points within
    ``|e|**2 + 2e-12`` of ``y``: a row with no other point there is
    correct, one whose other points are all closer than ``x`` by more
    than ``2e-12`` is an error, and only the rest (a point in that tie
    band) go to the sphere search.  The plan has already refused a
    generator whose condition number is above 1e8, diagonal or not
    (:class:`SimPlan`).

    Before any of that, a screen on the raw radial uniforms settles most
    rows at high SNR.  Each noise entry is ``sigma r cos`` or ``sigma r
    sin`` of its pair's Box-Muller radius ``r = sqrt(-2 log1p(-u))``, so
    ``|e_t| <= sigma r``, and ``r >= L`` exactly when ``1 - u <= exp(-L**2
    / 2)``; so the uniforms are compared as they are, and a radius is
    formed only where a row needs it.  With a certificate, a row is
    correct, and its noise is never formed, when the product of its
    entries' ``1 - u`` is above ``exp(-lambda / 2)``, that is when
    ``sigma**2`` times the sum of its ``r**2`` is below ``lambda =
    d_min**2 / 4 - 1e-12``.  Each threshold carries a relative allowance
    of 1e-9 on the safe side, against rounding.

    On a diagonal generator ``diag(d)`` rounding is separable, so each
    entry is decided on its own and a row is an error exactly when one
    of its entries moves its coordinate.  Entry ``e_i`` keeps coordinate
    i when ``|e_i| < |d_i| / 2 - 1e-12 / (2 |d_i|)``, and moves it when
    ``sign(d_i) e_i`` passes ``+-(|d_i| / 2 + 1e-12 / (2 |d_i|))`` and
    the neighbour on that side is in the box (tested on ``K w`` for the
    entry's symbol uniform ``w``, as the symbol map forms it), each
    limit with a relative margin of at least 1e-9.  The entries come from
    float32 trig, within 4.3e-6 (:func:`latticesep.streams.coarse_normals`),
    and from float64 within ``2**-14`` of a limit: every verdict is exact.
    Only a row with an entry in the band between the two, about 1e-9
    wide, is decoded, by the table or the sphere search as above.  A
    radial uniform is screened against the larger of its pair's two
    thresholds (pair ``p`` holds entry ``p``, a cosine, and entry ``p +
    pairs``, a sine); only an open pair's entries that reach their limit
    get an angle, and only an entry past its outer limit gets its symbol.
    A shard whose expected share of open entries, ``mean_i exp(-L_i**2 /
    2)``, is at least 0.25 skips the screen and decides every entry.

    Shard ``s`` of grid point ``i`` lays out all its symbol uniforms,
    then all its radial uniforms, then its angular uniforms, in
    ``stream(seed, i, s)``, so a point's result depends on no other
    point.  The streams are counter-based, so a shard reads its words by
    position (:func:`latticesep.streams.seek`): its radial uniforms
    first.  A screened diagonal shard then reads only the 1024-word
    chunks of angle and symbol words that its open entries use.  With a
    certificate, a shard with no open row reads nothing more; one with
    fewer than two open rows per 1024 symbol words reads only the
    1024-word chunks of symbol and angle words that hold an open row's
    entries; any other reads every word, and transforms each 2048-row
    range that is at least 90% open whole, its settled rows deciding as
    correct.  The other open rows get their noise, symbols, received
    points and verdicts, 2048 rows at a time.  Every row carries the
    values that a front-to-back read of the shard gives it, so every
    ``(trials, errors)`` is the one that decoding every row gives.  The
    grid points are the unit of parallel work: ``min(threads, points)``
    workers take them in grid order, each runs its point's shards one
    after another and stops at the first shard boundary that reaches
    ``target_errors``, and the estimates are gathered in grid order.  So
    the output is byte-stable for a fixed plan whatever the thread
    count, and a point opens only the streams its shards need.  Each
    worker draws into one set of shard buffers, reused from point to
    point, so the call's memory does not depend on how the threads
    interleave.  With one worker (one thread, or a one-point grid) the
    points run on the calling thread, so a one-point grid gains nothing
    from threads.

    A point with zero observed errors reports mean 0 with
    ``reliable=False`` (so does any point with fewer than 20 errors);
    such estimates carry no confidence statement.
    """
    if not isinstance(plan, SimPlan):
        raise ValueError(f"plan must be a SimPlan, got {plan!r}")
    threads = check_integer("threads", threads, 1)
    generator = plan.constellation.lattice.generator
    decoder = _decoder(generator, plan.constellation.K)
    cert = None if _is_diagonal(generator) else _certificate(generator, plan.constellation.K)
    points = range(len(plan.grid))
    workers = min(threads, len(points))
    entries = min(SHARD_SIZE, plan.max_trials) * plan.constellation.dimension
    free = queue.SimpleQueue()
    for _ in range(workers):
        free.put(_shard_buffers(entries))

    def run_point(i: int) -> tuple[int, int]:
        # At most `workers` points run at once, so a free set is always
        # there; it goes back even if the point raises.
        buffers = free.get()
        try:
            return _simulate_point(plan, decoder, cert, i, float(plan.grid.rho[i]), buffers)
        finally:
            free.put(buffers)

    if workers == 1:
        counts = list(map(run_point, points))
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            counts = list(pool.map(run_point, points))
    estimates = []
    for db, rho, (trials, errors) in zip(plan.grid.db, plan.grid.rho, counts):
        mean = errors / trials
        estimates.append(
            SepEstimate(
                snr_db=float(db),
                rho=float(rho),
                mean=mean,
                ci_half_width=_CI_FACTOR * math.sqrt(mean * (1.0 - mean) / trials),
                trials=trials,
                errors_observed=errors,
                method=SepMethod.DIRECT_MC,
                reliable=errors >= _RELIABLE_ERRORS,
            )
        )
    return Curve(estimates)


def sep_csv_rows(estimates: Curve, lattice_name: str, big_k: int, seed: int | None) -> list[str]:
    """CSV lines for SEP estimates, one row per grid point.

    Header ``snr_db,sep,ci_low,ci_high,trials,errors,method,lattice,K,seed``;
    numbers carry 12 significant digits; the CI columns are the clipped
    interval ``[mean - h, mean + h]``; ``seed`` is empty for closed-form
    results (pass None).
    """
    rows = ["snr_db,sep,ci_low,ci_high,trials,errors,method,lattice,K,seed"]
    seed_text = "" if seed is None else str(int(seed))
    for est in estimates:
        ci_low = _clip_probability(est.mean - est.ci_half_width)
        ci_high = _clip_probability(est.mean + est.ci_half_width)
        rows.append(
            ",".join(
                [
                    format_sig(est.snr_db),
                    format_sig(est.mean),
                    format_sig(ci_low),
                    format_sig(ci_high),
                    str(est.trials),
                    str(est.errors_observed),
                    est.method.value,
                    lattice_name,
                    str(big_k),
                    seed_text,
                ]
            )
        )
    return rows


def write_sep_csv(path, estimates: Curve, lattice_name: str, big_k: int, seed: int | None) -> None:
    """Write :func:`sep_csv_rows` to ``path`` with a trailing newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(sep_csv_rows(estimates, lattice_name, big_k, seed)) + "\n")
