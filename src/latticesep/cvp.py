"""Closest-point search and bounded enumeration on lattice generators.

A lattice is ``{G @ z : z integer}`` with the columns of ``G`` as basis
vectors.  Everything here works on the QR-triangularized system: with
``G = Q R`` (R upper triangular, positive diagonal) and ``yt = Q.T @ y``,
``||G z - y|| == ||R z - yt||``, and the triangular structure admits a
depth-first search over integer coordinates, last coordinate first, where
each level contributes ``(R[i, i] * (z[i] - c[i]))**2`` to the squared
distance and candidate values are visited nearest-center first.
"""

from __future__ import annotations

import enum
import itertools
import math

import numpy as np

from .exceptions import BudgetError

# Two squared distances closer than this are a tie; ties resolve to the
# lexicographically smallest coefficient vector so results are reproducible.
TIE_TOL = 1e-12

# Unconstrained searches on nearly singular generators are numerically
# meaningless and potentially unbounded; refuse them.
_MAX_CONDITION = 1e8

_ENUM_MAX_NODES = 1 << 26
_QUERY_MAX_NODES = 1 << 16  # nodes one level of a radius query may hold


class Decoder(enum.Enum):
    """Search strategy for the closest constellation point."""

    BRUTE_FORCE = "brute_force"
    SPHERE_DECODER = "sphere_decoder"


def triangularize(generator: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """QR-factor ``generator`` into ``q, r`` with positive diagonal in r.

    Raises ``ValueError`` if the matrix is not square, not finite, or
    rank-deficient.
    """
    g = np.asarray(generator, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError(f"generator must be square, got shape {g.shape}")
    if not np.all(np.isfinite(g)):
        raise ValueError("generator has non-finite entries")
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r)
    scale = np.max(np.abs(g))
    if scale == 0.0 or np.min(np.abs(diag)) < 1e-12 * scale:
        raise ValueError("generator is singular or numerically rank-deficient")
    signs = np.sign(diag)
    return q * signs, r * signs[:, None]


def _babai_rounding(r_rows, yt, lo, hi):
    # Greedy nearest-plane rounding, optionally clipped to [lo, hi]; returns
    # the rounded coefficients and their exact squared distance.
    k = len(yt)
    z = [0] * k
    dist = 0.0
    for i in range(k - 1, -1, -1):
        row = r_rows[i]
        t = yt[i]
        for j in range(i + 1, k):
            t -= row[j] * z[j]
        c = t / row[i]
        zi = int(round(c))
        if lo is not None:
            zi = min(max(zi, lo), hi)
        z[i] = zi
        dist += (row[i] * (zi - c)) ** 2
    return z, dist


def _level_window(c, rii, budget, lo, hi):
    # The integer range [first, last] of values v with (rii * (v - c))**2 <=
    # budget, intersected with [lo, hi]; empty when first > last.
    if budget < 0.0:
        return 1, 0
    halfwidth = math.sqrt(budget) / rii
    first = math.ceil(c - halfwidth)
    last = math.floor(c + halfwidth)
    if lo is not None:
        first = max(first, lo)
        last = min(last, hi)
    return first, last


def _depth_first(r_rows, yt, lo, hi, budget, leaf, max_nodes):
    # Visits every coefficient vector within squared distance ``budget`` of
    # yt, last coordinate first, candidates nearest-center first, and calls
    # leaf(z, dist) at each one; the callback returns the budget for the
    # rest of the search.  Raises BudgetError once the candidate lists
    # entered hold more than max_nodes values, before building the list
    # that would pass it.
    k = len(yt)
    z = [0] * k
    acc = [0.0] * k  # acc[i]: cost contributed by levels above i
    centers = [0.0] * k
    cands: list[list[int]] = [[] for _ in range(k)]
    pos = [0] * k
    nodes = 0

    def enter(i):
        nonlocal nodes
        row = r_rows[i]
        t = yt[i]
        for j in range(i + 1, k):
            t -= row[j] * z[j]
        c = t / row[i]
        centers[i] = c
        first, last = _level_window(c, row[i], budget - acc[i], lo, hi)
        nodes += max(0, last - first + 1)
        if nodes > max_nodes:
            raise BudgetError(f"depth-first lattice search exceeded {max_nodes} nodes")
        # Nearest-center first, ties toward the smaller value.
        cands[i] = sorted(range(first, last + 1), key=lambda v: (abs(v - c), v))
        pos[i] = 0

    i = k - 1
    enter(i)
    while True:
        if pos[i] >= len(cands[i]):
            i += 1
            if i == k:
                break
            continue
        v = cands[i][pos[i]]
        pos[i] += 1
        cost = (r_rows[i][i] * (v - centers[i])) ** 2
        if acc[i] + cost > budget:
            # Candidates are nearest-first, so the rest of this level is worse.
            i += 1
            if i == k:
                break
            continue
        if i == 0:
            z[0] = v
            budget = leaf(z, acc[0] + cost)
            continue
        z[i] = v
        acc[i - 1] = acc[i] + cost
        i -= 1
        enter(i)


def _sphere_search(r_rows, yt, lo, hi):
    # Depth-first search with radius initialized from the Babai rounding
    # candidate and shrunk on every improvement.  Returns the tie-resolved
    # best coefficient vector.
    best_z, best_dist = _babai_rounding(r_rows, yt, lo, hi)

    def leaf(z, dist):
        nonlocal best_z, best_dist
        if dist < best_dist - TIE_TOL:
            best_dist = dist
            best_z = z.copy()
        else:
            # Within the tie window of the current best.
            if dist < best_dist:
                best_dist = dist
            if z < best_z:
                best_z = z.copy()
        return best_dist + TIE_TOL

    _depth_first(r_rows, yt, lo, hi, best_dist + TIE_TOL, leaf, math.inf)
    return best_z


def closest_point(
    generator: np.ndarray,
    y: np.ndarray,
    box: int | None = None,
    method: Decoder = Decoder.SPHERE_DECODER,
) -> np.ndarray:
    """Coefficients of the lattice point closest to ``y``.

    Solves ``argmin_z ||generator @ z - y||`` over all integer vectors, or
    over ``{0, ..., box-1}**k`` when ``box`` is given (the finite
    constellation case): one row of :meth:`BatchDecoder.decode`, with the
    same tie rule and the same checks.

    Returns
    -------
    ndarray of int64, shape (k,)
    """
    return BatchDecoder(generator, box, method).decode(np.reshape(y, (1, -1)))[0]


def enumerate_within_radius(
    generator: np.ndarray,
    radius: float,
    center: np.ndarray | None = None,
    max_nodes: int = _ENUM_MAX_NODES,
) -> list[tuple[tuple[int, ...], float]]:
    """All integer vectors z with ``||generator @ z - center|| <= radius``.

    The search is complete: the per-level window ``|R[i,i] * (z[i] - c[i])|
    <= remaining budget`` provably contains every solution, so no vector
    inside the radius is missed.  Returns ``(z, squared_distance)`` pairs in
    depth-first order.  Raises :class:`BudgetError` if the search tree
    holds more than ``max_nodes`` candidates.
    """
    g = np.asarray(generator, dtype=float)
    q, r = triangularize(g)
    k = g.shape[0]
    if radius < 0.0 or not math.isfinite(radius):
        raise ValueError(f"radius must be finite and non-negative, got {radius!r}")
    if center is None:
        yt = [0.0] * k
    else:
        cv = np.asarray(center, dtype=float).reshape(-1)
        if cv.shape[0] != k:
            raise ValueError(f"center shape {cv.shape} does not match dimension {k}")
        yt = [float(t) for t in q.T @ cv]
    r_rows = [[float(r[i, j]) for j in range(k)] for i in range(k)]
    budget = radius * radius + TIE_TOL
    out: list[tuple[tuple[int, ...], float]] = []

    def leaf(z, dist):
        out.append((tuple(z), dist))
        return budget

    _depth_first(r_rows, yt, None, None, budget, leaf, max_nodes)
    return out


def shortest_vector_norm(generator: np.ndarray) -> float:
    """Length of the shortest nonzero lattice vector.

    Complete enumeration inside radius ``min_i ||column_i||``, which always
    contains a nonzero vector (the shortest basis column itself).
    """
    g = np.asarray(generator, dtype=float)
    basis_min = float(np.min(np.linalg.norm(g, axis=0)))
    found = enumerate_within_radius(g, basis_min * (1.0 + 1e-12))
    best = math.inf
    for z, dist_sq in found:
        if any(z) and dist_sq < best:
            best = dist_sq
    return math.sqrt(min(best, basis_min * basis_min))


class BatchDecoder:
    """Repeated closest-point queries on one generator.

    With ``box`` the search runs over ``{0, ..., box-1}**k`` (the finite
    constellation case); ``box=None`` searches the infinite lattice, which
    the sphere decoder rejects for condition numbers above 1e8 and brute
    force rejects outright.  The generator must be square, finite and of
    full rank (:func:`triangularize`).

    Precomputes whatever the chosen strategy can reuse across calls: the
    full point table for ``BRUTE_FORCE``, the triangularization for the
    ``SPHERE_DECODER`` -- or, when the generator is exactly diagonal (the
    cubic lattices), nothing at all, because rounding each coordinate is
    then an exact closest-point rule.

    The brute-force path scores points by ``||x||**2 - 2 y.x``, which
    orders them identically to the squared distance (the ``||y||**2``
    shift is constant per query), and picks the first point within
    ``TIE_TOL`` of the row minimum -- the lexicographically smallest
    coefficient vector, as does the sphere decoder.  The diagonal path
    makes the same choice by rounding coordinates down, in coordinate
    order, while the extra squared distance this costs the row stays
    within ``TIE_TOL`` in all.
    """

    def __init__(
        self, generator: np.ndarray, box: int | None, method: Decoder = Decoder.SPHERE_DECODER
    ):
        q, r = triangularize(generator)
        g = np.asarray(generator, dtype=float)
        if box is not None:
            box = int(box)
            if box < 1:
                raise ValueError(f"box must be a positive integer, got {box}")
        self._k = g.shape[0]
        self._box = box
        self.method = method
        self._diag = None
        self._coeffs = None
        if method is Decoder.BRUTE_FORCE:
            if box is None:
                raise ValueError("brute-force search requires a box")
            total = box**self._k
            if total > 1 << 24:
                raise BudgetError(f"brute-force table of {total} points exceeds the 2**24 budget")
            coeffs = np.array(list(itertools.product(range(box), repeat=self._k)), dtype=np.int64)
            self._coeffs = coeffs
            self._points = coeffs @ g.T
            self._norms = np.sum(self._points**2, axis=1)
        elif method is Decoder.SPHERE_DECODER:
            if box is None and np.linalg.cond(g) > _MAX_CONDITION:
                raise ValueError("unbounded search rejected: generator condition number exceeds 1e8")
            diagonal = np.diagonal(g)
            if np.array_equal(g, np.diag(diagonal)):
                self._diag = diagonal.copy()
                # With f the fractional part of y / d, the lower candidate is
                # within TIE_TOL, (d f)**2 - (d (1 - f))**2 <= TIE_TOL, iff f <= _half.
                self._half = 0.5 + TIE_TOL / (2.0 * diagonal**2)
            else:
                self._qt = q.T.copy()
                self._r = r
                self._r_rows = [[float(r[i, j]) for j in range(self._k)] for i in range(self._k)]
        else:
            raise ValueError(f"unknown decoder method: {method!r}")

    @property
    def rounds(self) -> bool:
        """Whether :meth:`decode` rounds coordinates (a diagonal generator, ``SPHERE_DECODER``)."""
        return self._diag is not None

    def _targets(self, targets) -> np.ndarray:
        y = np.atleast_2d(np.asarray(targets, dtype=float))
        if y.ndim != 2 or y.shape[1] != self._k:
            raise ValueError(f"targets must have shape (m, {self._k}), got {y.shape}")
        if not np.all(np.isfinite(y)):
            raise ValueError("targets have non-finite entries")
        return y

    def decode(self, targets: np.ndarray) -> np.ndarray:
        """Closest coefficient vectors for a batch of targets.

        Parameters
        ----------
        targets : ndarray, shape (m, k)
            Received points, one per row.

        Returns
        -------
        ndarray of int64, shape (m, k)
            Coefficient vectors, in ``{0, ..., box-1}**k`` unless ``box`` is None.
        """
        y = self._targets(targets)
        if self._coeffs is not None:
            return self._coeffs[self._indices(y)]
        if self._diag is not None:
            # Exact for diagonal generators: coordinates decouple, and
            # ceil(c - _half) rounds ties within TIE_TOL down to the smaller
            # value.  In the window a coordinate was rounded down although
            # its upper candidate is closer.
            c = y / self._diag
            u = np.ceil(c - self._half)
            c -= 0.5
            window = c > u
            del c  # before the int64 copy, so decoding needs no more memory than rounding did
            if window.any():
                self._share_tie_budget(y, u, window)
            if self._box is not None:
                np.clip(u, 0, self._box - 1, out=u)
            return u.astype(np.int64)
        lo, hi = (None, None) if self._box is None else (0, self._box - 1)
        out = np.empty((y.shape[0], self._k), dtype=np.int64)
        for i in range(y.shape[0]):
            yt = [float(t) for t in self._qt @ y[i]]
            out[i] = _sphere_search(self._r_rows, yt, lo, hi)
        return out

    def radius_query(self, u: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The box points near ``y = G u + e``, for rows of symbols ``u`` and noise ``e``.

        Enumerates, for every row at once and level by level in the QR
        frame, the box points within squared distance ``|e|**2 + 2 TIE_TOL``
        of ``y``; each level expands a node only over its window
        intersected with the box.  Returns two arrays of one value per row:
        ``own``, the squared distance of ``G u`` itself, and ``other``, the
        largest squared distance of any other point found (``-inf`` if
        there is none).  ``own`` is NaN where ``u`` was not reached, and on
        a row whose search alone would hold more than ``_QUERY_MAX_NODES``
        nodes at one level; a set of rows that would is split in halves,
        so memory is bounded whatever the rows.  Offsets from ``u`` are
        enumerated, not coefficients, so distances are formed from ``e``
        without the cancellation in ``y``.  Box-constrained
        ``SPHERE_DECODER`` on a non-diagonal generator only.
        """
        if self.method is not Decoder.SPHERE_DECODER or self._diag is not None or self._box is None:
            raise ValueError("radius_query requires a box and a non-diagonal SPHERE_DECODER")
        et = e @ self._qt.T
        budget = np.einsum("ij,ij->i", e, e) + 2.0 * TIE_TOL
        own = np.full(len(e), np.nan)
        other = np.full(len(e), -np.inf)
        pending = [np.arange(len(e))]
        while pending:
            rows = pending.pop()
            leaves = self._leaves(u[rows], et[rows], budget[rows])
            if leaves is None:
                if rows.size > 1:
                    pending += [rows[rows.size // 2 :], rows[: rows.size // 2]]
                continue
            node_row, cost, on_u = leaves
            own[rows[node_row[on_u]]] = cost[on_u]
            node_row, cost = node_row[~on_u], cost[~on_u]
            if node_row.size:
                # Children follow their parents, so node_row is ascending.
                starts = np.flatnonzero(np.diff(node_row, prepend=-1))
                other[rows[node_row[starts]]] = np.maximum.reduceat(cost, starts)
        return own, other

    def _leaves(self, u, et, budget):
        # Breadth-first search of radius_query over the offsets d = z - u,
        # last level first.  A node holds its row, its cost so far, whether
        # its offsets are all 0 so far, and resid = et - R d over the levels
        # still open, whose entry i over R[i, i] is the center of level i.
        # Returns the leaves' rows, costs and flags, or None as soon as a
        # level would hold more than _QUERY_MAX_NODES nodes.
        r = self._r
        top = self._box - 1
        node_row = np.arange(len(u))
        acc = np.zeros(len(u))
        on_u = np.ones(len(u), dtype=bool)
        resid = et
        for i in range(self._k - 1, -1, -1):
            center = resid[:, i] / r[i, i]
            halfwidth = np.sqrt(budget[node_row] - acc) / r[i, i]
            level = u[node_row, i]
            first = np.maximum(np.ceil(center - halfwidth), -level)
            count = np.minimum(np.floor(center + halfwidth), top - level) - first + 1.0
            count = np.maximum(count, 0.0).astype(np.int64)
            total = int(count.sum())
            if total > _QUERY_MAX_NODES:
                return None
            parent = np.repeat(np.arange(count.size), count)
            v = np.arange(total) + np.repeat(first - (np.cumsum(count) - count), count)
            cost = acc[parent] + (r[i, i] * (v - center[parent])) ** 2
            keep = cost <= budget[node_row[parent]]
            parent, v, acc = parent[keep], v[keep], cost[keep]
            node_row = node_row[parent]
            on_u = on_u[parent] & (v == 0.0)
            if i:
                resid = resid[parent, :i] - v[:, None] * r[:i, i]
        return node_row, acc, on_u

    def _share_tie_budget(self, y: np.ndarray, u: np.ndarray, window: np.ndarray) -> None:
        # A coordinate in the window rounded down at an extra squared
        # distance d**2 (2 (c - u) - 1) <= TIE_TOL.  The lexicographic rule
        # lets a row spend TIE_TOL once in all, so rows with several such
        # coordinates keep rounding down, in coordinate order, only while
        # the running sum fits.  Candidates outside the box cost nothing.
        if self._box is not None:
            window &= (u >= 0) & (u < self._box - 1)
        rows = np.flatnonzero(np.count_nonzero(window, axis=1) >= 2)
        if rows.size == 0:
            return
        c = y[rows] / self._diag
        extra = np.where(window[rows], self._diag**2 * (2.0 * (c - u[rows]) - 1.0), 0.0)
        spent = np.zeros(rows.size)
        for i in range(self._k):
            spent += extra[:, i]
            over = spent > TIE_TOL
            u[rows[over], i] += 1
            spent[over] -= extra[over, i]

    def decode_indices(self, targets: np.ndarray) -> np.ndarray:
        """Row indices into the brute-force point table (``BRUTE_FORCE`` only).

        The index of a coefficient vector ``u`` is its rank in row-major
        (lexicographic) order, ``sum(u[i] * box**(k-1-i))``.
        """
        if self._coeffs is None:
            raise ValueError("decode_indices requires the BRUTE_FORCE point table")
        return self._indices(self._targets(targets))

    def _indices(self, y: np.ndarray) -> np.ndarray:
        total = self._points.shape[0]
        chunk = max(1, (1 << 22) // total)
        out = np.empty(y.shape[0], dtype=np.int64)
        for start in range(0, y.shape[0], chunk):
            block = y[start : start + chunk]
            # |p|**2 - 2 y . p, formed in place: -2 x is exact, so the
            # bits are those of norms - 2.0 * product.
            scores = block @ self._points.T
            scores *= -2.0
            scores += self._norms
            best = scores.min(axis=1, keepdims=True)
            out[start : start + block.shape[0]] = np.argmax(scores <= best + TIE_TOL, axis=1)
        return out


def voronoi_test_vectors(generator: np.ndarray) -> np.ndarray:
    """Lattice vectors sufficient to decide Voronoi-cell membership exactly.

    For each of the ``2**k - 1`` nonzero cosets of twice the lattice, collects
    every shortest coset vector.  The union is a superset of the
    Voronoi-relevant vectors and a subset of the lattice, so
    ``x . v <= ||v||**2 / 2`` for all returned ``v`` holds if and only if the
    origin is a closest lattice point to ``x``.

    Returns the vectors as rows, shape ``(m, k)``.
    """
    g = np.asarray(generator, dtype=float)
    q, r = triangularize(g)
    if np.linalg.cond(g) > _MAX_CONDITION:
        raise ValueError("unbounded search rejected: generator condition number exceeds 1e8")
    k = g.shape[0]
    r_rows = [[float(r[i, j]) for j in range(k)] for i in range(k)]
    vectors = []
    for c in itertools.product((0, 1), repeat=k):
        if not any(c):
            continue
        half = g @ (np.array(c, dtype=float) / 2.0)
        target = -half
        z0 = np.array(_sphere_search(r_rows, [float(t) for t in q.T @ target], None, None))
        d0 = float(np.linalg.norm(g @ z0 - target))
        hits = enumerate_within_radius(g, d0 * (1.0 + 1e-12) + 1e-12, center=target)
        d_best = min(dist_sq for _, dist_sq in hits)
        for z, dist_sq in hits:
            if dist_sq <= d_best * (1.0 + 1e-9) + 1e-12:
                vectors.append(g @ (np.array(c, dtype=float) + 2.0 * np.array(z, dtype=float)))
    return np.array(vectors)
