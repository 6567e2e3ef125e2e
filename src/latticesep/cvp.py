"""Closest-point search and bounded enumeration on lattice generators.

A lattice is ``{G @ z : z integer}`` with the columns of ``G`` as basis
vectors.  Every search here runs on the QR-triangularized system: with
``G = Q R`` (R upper triangular, positive diagonal) and ``yt = Q.T @ y``,
``||G z - y||**2 == sum_i (R[i, i] * (z[i] - c[i]))**2``, where the center
``c[i]`` of level i depends only on ``z[i+1:]``.  One enumerator lists, for
many rows at once, every integer vector within a per-row squared-distance
budget (and, optionally, per-row coordinate bounds), level by level from
the last coordinate (Pohst enumeration, as in Agrell, Eriksson, Vardy &
Zeger, IEEE Trans. IT 2002, with the per-level center update of
Ghasemmehdi & Agrell, IEEE Trans. IT 2011).  Closest-point decoding, the
radius query, bounded enumeration and the Voronoi test vectors all reduce
its leaves.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .exceptions import BudgetError, check_integer

# Two squared distances closer than this are a tie; ties resolve to the
# lexicographically smallest coefficient vector so results are reproducible.
TIE_TOL = 1e-12

_MAX_CONDITION = 1e8

_ENUM_MAX_NODES = 1 << 26
_CHUNK = 1 << 13  # nodes the enumerator lists at one step
_MAX_COORDINATE = 2.0**52  # beyond it, float64 no longer holds every integer


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


def _check_condition(generator: np.ndarray, what: str) -> None:
    # Searches on nearly singular generators are numerically meaningless
    # and potentially unbounded; every search refuses them here, naming `what`.
    condition = float(np.linalg.cond(generator))
    if condition > _MAX_CONDITION:
        raise ValueError(
            f"{what} needs a generator condition number <= {_MAX_CONDITION:.0e}, got {condition:.3g}"
        )


def _frame(qt, r, y, name):
    # The rows of y in the QR frame, yt = y Q, or a ValueError naming
    # `name` unless every basis coordinate, R^-1 yt, is at most 2**52 in
    # size (NaN fails both comparisons).
    with np.errstate(invalid="ignore", over="ignore"):
        yt = y @ qt.T
        coordinates = np.linalg.solve(r, yt.T)
    least, most = np.min(coordinates, initial=0.0), np.max(coordinates, initial=0.0)
    if not (-_MAX_COORDINATE <= least and most <= _MAX_COORDINATE):
        raise ValueError(f"{name} must be finite, with basis coordinates of at most 2**52 in size")
    return yt


def _leaves(r, center, budget, lo=None, hi=None, max_nodes=math.inf):
    # Yields every integer vector z with ||R z - center[row]||**2 <=
    # budget[row], and lo[row] <= z <= hi[row] when bounds are given, as
    # chunks (row, z, cost) of at most _CHUNK leaves, in all ordered by row,
    # then by (z[k-1], ..., z[0]).  A node at level i holds its row, its
    # cost so far and a state row: resid = center - R z over levels 0..i,
    # whose entry i over R[i, i] is the center of level i, then z over the
    # levels above i.  A level's children are listed _CHUNK at a time,
    # depth-first over the chunks, so memory is bounded whatever the rows
    # and windows.  budget is read as the search goes: lowering a row's
    # entry between chunks prunes the rest of that row's search.  Raises
    # BudgetError as soon as the windows counted would take the nodes
    # listed past max_nodes, before they are listed.  windows and children
    # are functions of their own so that their temporaries are freed
    # before the search descends.
    listed = 0.0

    def windows(i, row, acc, state):
        # The centers of level i, and each node's offset (child t of the
        # listing takes v = t + offset) and end in the level's listing.
        nonlocal listed
        c = state[:, i] / r[i, i]
        halfwidth = np.sqrt(np.maximum(budget[row] - acc, 0.0)) / r[i, i]
        first = np.ceil(c - halfwidth)
        last = np.floor(c + halfwidth)
        if lo is not None:
            first = np.maximum(first, lo[row, i])
            last = np.minimum(last, hi[row, i])
        count = np.maximum(last - first + 1.0, 0.0)
        listed += count.sum()
        if listed > max_nodes:
            raise BudgetError(f"lattice enumeration exceeded {max_nodes} nodes")
        ends = np.cumsum(count.astype(np.int64))
        return c, first - (ends - count), ends

    def children(i, row, acc, state, c, offset, ends, start):
        # The children start, start + 1, ... of the listing, up to _CHUNK
        # of them, that are within budget: their rows, costs and states.
        t = np.arange(start, min(start + _CHUNK, int(ends[-1])))
        parent = np.searchsorted(ends, t, side="right")
        v = t + offset[parent]
        cost = acc[parent] + (r[i, i] * (v - c[parent])) ** 2
        keep = cost <= budget[row[parent]]
        parent, v = parent[keep], v[keep]
        child = state[parent]
        child[:, :i] -= v[:, None] * r[:i, i]
        child[:, i] = v
        return row[parent], cost[keep], child

    def expand(i, row, acc, state):
        c, offset, ends = windows(i, row, acc, state)
        for start in range(0, int(ends[-1]), _CHUNK):
            row_, cost, child = children(i, row, acc, state, c, offset, ends, start)
            if not row_.size:
                continue
            if i == 0:
                yield row_, child, cost
            else:
                yield from expand(i - 1, row_, cost, child)

    if len(center):
        yield from expand(len(r) - 1, np.arange(len(center)), np.zeros(len(center)), center)


def _babai(r, center, lo=None, hi=None):
    # Nearest-plane rounding of every row, clipped to [lo, hi] when bounds
    # are given: the coefficient vectors and their costs, formed as _leaves
    # forms them.
    m, k = center.shape
    z = np.empty((m, k))
    cost = np.zeros(m)
    resid = center
    for i in range(k - 1, -1, -1):
        c = resid[:, i] / r[i, i]
        v = np.rint(c)
        if lo is not None:
            v = np.clip(v, lo[:, i], hi[:, i])
        cost = cost + (r[i, i] * (v - c)) ** 2
        z[:, i] = v
        resid = resid[:, :i] - v[:, None] * r[:i, i]
    return z, cost


def _near_best(r, center, slack, lo=None, hi=None):
    # Every vector within slack(d) of its row's least cost d, once, as
    # arrays (row, z) in lexicographic order.  The search starts from each
    # row's Babai point, whose slack is the row's first budget, and lowers
    # the budget to slack(least cost so far) as leaves come: the sphere
    # decoder's shrinking radius.  The Babai points stay candidates, so
    # every row has one even where rounding keeps the enumeration from
    # reaching it again.  Budgets only fall, so the candidates need their
    # filter only at the end, and before it whenever they have doubled.
    z, cost = _babai(r, center, lo, hi)
    budget = slack(cost)

    def within(found):
        row, z, cost = (np.concatenate(parts) for parts in zip(*found))
        keep = cost <= budget[row]
        return [(row[keep], z[keep], cost[keep])]

    found = [(np.arange(len(center)), z, cost)]
    held = live = len(center)
    for row, z, cost in _leaves(r, center, budget, lo, hi):
        # Rows ascend within a chunk.
        starts = np.flatnonzero(np.diff(row, prepend=-1))
        seen = row[starts]
        budget[seen] = np.minimum(budget[seen], slack(np.minimum.reduceat(cost, starts)))
        keep = cost <= budget[row]
        found.append((row[keep], z[keep], cost[keep]))
        held += found[-1][0].size
        if held > 2 * live:
            found = within(found)
            held = live = found[0][0].size
    row, z, _ = within(found)[0]
    order = np.lexsort(np.vstack([z.T[::-1], row]))
    row, z = row[order], z[order]
    # A Babai point the enumeration reached again is listed twice, in a row.
    # Built from the row starts, so that no row at all gives empty arrays.
    fresh = np.diff(row, prepend=-1) != 0
    fresh[1:] |= np.any(np.diff(z, axis=0) != 0.0, axis=1)
    return row[fresh], z[fresh]


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
    same tie rule and the same checks.  A diagonal generator is searched
    like any other, with no per-coordinate rounding.

    Returns
    -------
    ndarray of int64, shape (k,)
    """
    return BatchDecoder(generator, box, method).decode(np.reshape(y, (1, -1)))[0]


def enumerate_within_radius(
    generator: np.ndarray,
    radius: float,
    center: np.ndarray | None = None,
) -> list[tuple[tuple[int, ...], float]]:
    """All integer vectors z with ``||generator @ z - center|| <= radius``.

    The search is complete: the per-level window ``|R[i,i] * (z[i] - c[i])|
    <= remaining budget`` provably contains every solution, so no vector
    inside the radius is missed.  Returns ``(z, squared_distance)`` pairs in
    ascending order of ``(z[k-1], ..., z[0])``, last coordinate first.
    Raises :class:`BudgetError` if the search tree holds more than
    ``2**26`` candidates, and ``ValueError`` for a non-finite center
    or one with a basis coordinate above ``2**52`` in size.
    """
    g = np.asarray(generator, dtype=float)
    q, r = triangularize(g)
    k = g.shape[0]
    if radius < 0.0 or not math.isfinite(radius):
        raise ValueError(f"radius must be finite and non-negative, got {radius!r}")
    if center is None:
        yt = np.zeros((1, k))
    else:
        cv = np.asarray(center, dtype=float).reshape(-1)
        if cv.shape[0] != k:
            raise ValueError(f"center shape {cv.shape} does not match dimension {k}")
        yt = _frame(q.T, r, cv[None, :], "center")
    budget = np.array([radius * radius + TIE_TOL])
    out: list[tuple[tuple[int, ...], float]] = []
    for _, z, cost in _leaves(r, yt, budget, max_nodes=_ENUM_MAX_NODES):
        out += zip(map(tuple, z.astype(np.int64).tolist()), cost.tolist())
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
    ``SPHERE_DECODER``.  The sphere decoder searches a diagonal generator
    (the cubic lattices) as it searches any other, although its closest
    point separates by coordinate: the simulator decides diagonal trials
    entry by entry itself (:mod:`latticesep.sep`), so the rounding rule
    has one copy, and sends only the rows near a half-way point here.
    Decoding 10**4 rows of Z8 with ``box=4`` directly takes about 43 ms
    on one core.

    Every strategy has one tie rule: of the points within ``TIE_TOL`` of
    the least squared distance, the lexicographically smallest
    coefficient vector wins.  The brute-force path scores points by
    ``||x||**2 - 2 y.x``, which orders them identically to the squared
    distance (the ``||y||**2`` shift is constant per query), and picks the
    first point within ``TIE_TOL`` of the row minimum; where that score's
    rounding leaves more than one candidate, the candidates are re-scored
    by ``||y - x||**2``.  The sphere decoder
    enumerates every point within ``TIE_TOL`` of the Babai point's
    distance, shrinking that radius as closer points come, and applies
    the rule to the points left.
    """

    def __init__(
        self, generator: np.ndarray, box: int | None, method: Decoder = Decoder.SPHERE_DECODER
    ):
        q, r = triangularize(generator)
        g = np.asarray(generator, dtype=float)
        if box is not None:
            box = check_integer("box", box, 1)
        self._k = g.shape[0]
        self._box = box
        self.method = method
        self._coeffs = None
        if method is Decoder.BRUTE_FORCE:
            if box is None:
                raise ValueError("brute-force search requires a box")
            total = box**self._k
            if total > 1 << 24:
                raise BudgetError(f"brute-force table of {total} points exceeds the 2**24 budget")
            # Every vector of {0, ..., box-1}**k, in lexicographic order.
            self._coeffs = np.indices((box,) * self._k).reshape(self._k, -1).T
            self._points = self._coeffs @ g.T
            self._norms = np.sum(self._points**2, axis=1)
        elif method is Decoder.SPHERE_DECODER:
            if box is None:
                _check_condition(g, "an unbounded search")
            self._qt = q.T.copy()
            self._r = r
        else:
            raise ValueError(f"unknown decoder method: {method!r}")

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
            Received points, one per row.  On a ``SPHERE_DECODER`` a
            target whose basis coordinates exceed ``2**52`` in size is a
            ``ValueError``.

        Returns
        -------
        ndarray of int64, shape (m, k)
            Coefficient vectors, in ``{0, ..., box-1}**k`` unless ``box`` is None.
        """
        y = self._targets(targets)
        if self._coeffs is not None:
            return self._coeffs[self._indices(y)]
        # The tie rule by enumeration: of each row's points within TIE_TOL
        # of its least squared distance, the lexicographically smallest.
        yt = _frame(self._qt, self._r, y, "targets")
        lo = hi = None
        if self._box is not None:
            lo, hi = np.broadcast_to(0.0, y.shape), np.broadcast_to(self._box - 1.0, y.shape)
        row, z = _near_best(self._r, yt, lambda d: d + TIE_TOL, lo, hi)
        return z[np.flatnonzero(np.diff(row, prepend=-1))].astype(np.int64)

    def radius_query(self, u: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The box points near ``y = G u + e``, for rows of symbols ``u`` and noise ``e``.

        Enumerates, for every row at once and level by level in the QR
        frame, the box points within squared distance ``|e|**2 + 2 TIE_TOL``
        of ``y``; each level expands a node only over its window
        intersected with the box.  Returns two arrays of one value per row:
        ``own``, the squared distance of ``G u`` itself (NaN where ``u``
        was not reached), and ``other``, the largest squared distance of
        any other point found (``-inf`` if there is none).  Offsets from
        ``u`` are enumerated, not coefficients, so distances are formed
        from ``e`` without the cancellation in ``y``; a row of ``e`` whose
        basis coordinates exceed ``2**52`` in size is a ``ValueError``.
        Box-constrained ``SPHERE_DECODER`` only.
        """
        if self.method is not Decoder.SPHERE_DECODER or self._box is None:
            raise ValueError("radius_query requires a box and a SPHERE_DECODER")
        et = _frame(self._qt, self._r, e, "e")
        budget = np.einsum("ij,ij->i", e, e) + 2.0 * TIE_TOL
        own = np.full(len(e), np.nan)
        other = np.full(len(e), -np.inf)
        for row, offset, cost in _leaves(self._r, et, budget, -u, self._box - 1 - u):
            on_u = ~np.any(offset, axis=1)
            own[row[on_u]] = cost[on_u]
            row, cost = row[~on_u], cost[~on_u]
            if row.size:
                # Rows ascend within a chunk.
                starts = np.flatnonzero(np.diff(row, prepend=-1))
                seen = row[starts]
                other[seen] = np.maximum(other[seen], np.maximum.reduceat(cost, starts))
        return own, other

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
        chunk = max(1, (1 << 20) // total)
        out = np.empty(y.shape[0], dtype=np.int64)
        # The score |p|**2 - 2 y . p is off by up to about eps (|p|**2 + 2
        # |y|_1 |p|); a row with more than one point within TIE_TOL plus
        # that of its least score is re-scored by |y - p|**2.
        top = self._norms.max()
        rounding = 64.0 * np.finfo(float).eps * (top + 2.0 * math.sqrt(top) * np.abs(y).sum(axis=1))
        slack = TIE_TOL + rounding
        for start in range(0, y.shape[0], chunk):
            block = y[start : start + chunk]
            # Formed in place: -2 x is exact, so the bits are those of
            # norms - 2.0 * product.
            scores = block @ self._points.T
            scores *= -2.0
            scores += self._norms
            best = scores.min(axis=1, keepdims=True)
            near = scores <= best + slack[start : start + block.shape[0], None]
            out[start : start + block.shape[0]] = np.argmax(near, axis=1)
            if np.count_nonzero(near) > block.shape[0]:
                tied = np.flatnonzero(np.count_nonzero(near, axis=1) > 1)
                out[start + tied] = self._rescore(block[tied], near[tied])
        return out

    def _rescore(self, y: np.ndarray, near: np.ndarray) -> np.ndarray:
        # The tie rule on the points marked in each row of `near`, from
        # squared distances formed as differences: the first (smallest)
        # index within TIE_TOL of the row's least.
        row, index = np.nonzero(near)
        diff = y[row] - self._points[index]
        dist = np.einsum("ij,ij->i", diff, diff)
        least = np.minimum.reduceat(dist, np.flatnonzero(np.diff(row, prepend=-1)))
        keep = dist <= least[row] + TIE_TOL
        row, index = row[keep], index[keep]
        return index[np.flatnonzero(np.diff(row, prepend=-1))]


def voronoi_test_vectors(generator: np.ndarray) -> np.ndarray:
    """The Voronoi-relevant vectors: the facet normals of the Voronoi cell.

    ``x . v <= ||v||**2 / 2`` for all returned ``v`` holds if and only if
    the origin is a closest lattice point to ``x``.  By Voronoi's criterion
    (Conway & Sloane, *Low-dimensional lattices VI*, Proc. R. Soc. A 1992;
    Agrell, Eriksson, Vardy & Zeger, IEEE Trans. IT 2002), ``v`` is relevant
    iff ``+-v`` are the only shortest vectors of its coset ``v + 2L``.  So
    for each of the ``2**k - 1`` nonzero cosets of twice the lattice, the
    shortest coset vectors are searched for (squared norms within a
    relative 1e-9, plus 1e-12, of the coset's least), and of these the
    ones within ``TIE_TOL`` of the least are kept if there are exactly two,
    and the whole coset is dropped if there are more: 240 vectors on E8
    (of 2400 searched), 24 on E4, 4 on Z2, 6 on A2.

    Dropping is sound with the ``TIE_TOL / 2`` margins of the simulator's
    certificate.  Tied ``v, w`` of one coset give lattice vectors ``a = (v +
    w) / 2`` and ``b = (v - w) / 2``, both nonzero and shorter than ``v``,
    with ``v = a + b`` and ``a . b = (||v||**2 - ||w||**2) / 4 >= -TIE_TOL /
    4``, so ``h_v - x . v >= (h_a - x . a) + (h_b - x . b) - TIE_TOL / 4``
    with ``h_v = ||v||**2 / 2``; a vector longer than its coset's least
    splits the same way with ``a . b > 0``.  By induction on the norm, a
    margin ``h - x . v > TIE_TOL / 2`` on every returned vector then holds
    on every nonzero lattice vector, with ``TIE_TOL / 4`` to spare.  That
    spare must cover the rounding of the norms, so where a coset's
    allowance ``16 k eps ||v||**2`` reaches ``TIE_TOL / 4`` (squared norms
    above 70 / k: large-scale bases, never a unit-volume catalog lattice),
    every vector the search found for that coset is kept: a superset, which
    is always sound.

    Returns the vectors as rows, shape ``(m, k)``, coset by coset.
    """
    g = np.asarray(generator, dtype=float)
    _, r = triangularize(g)
    _check_condition(g, "the relevant-vector search")
    k = g.shape[0]
    cosets = np.indices((2,) * k, dtype=float).reshape(k, -1).T[1:]
    # The coset c + 2z is shortest where z is closest to -c/2; in the QR
    # frame -G c/2 is -R c/2.  Every coset has a row, in ascending order.
    row, z = _near_best(r, cosets @ r.T / -2.0, lambda d: d * (1.0 + 1e-9) + 1e-12)
    vectors = (cosets[row] + 2.0 * z) @ g.T
    norms = np.einsum("ij,ij->i", vectors, vectors)
    starts = np.flatnonzero(np.diff(row, prepend=-1))
    least = np.minimum.reduceat(norms, starts)
    tied = norms <= least[row] + TIE_TOL
    pair = np.add.reduceat(tied, starts) == 2
    guarded = 16.0 * k * np.finfo(float).eps * least >= TIE_TOL / 4.0
    return vectors[(tied & pair[row]) | guarded[row]]
