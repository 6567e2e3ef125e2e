"""Deterministic, replayable random streams for the Monte Carlo engines.

Every stochastic routine in this package draws from a counter-based Philox
generator keyed by an explicit integer path, so a result is a pure function
of ``(seed, path)`` and never of thread count, platform, or call order.

Two conventions make runs reproducible down to the byte:

* **Stream identity.**  ``stream(seed, *path)`` keys a fresh Philox
  generator with ``numpy.random.SeedSequence([seed, *path])``.  Components
  of the path identify the consumer (a grid index, a shard index, a facet
  class); two draws with the same seed and path always yield the same
  values, and distinct paths yield statistically independent streams.

* **Fixed layout, read by position.**  Normal variates are produced by
  an explicit Box-Muller transform (:func:`standard_normals`) rather than
  the generator's built-in ziggurat sampler, whose output stream is an
  implementation detail of numpy.  Uniform symbol draws use plain
  ``Generator.random`` scaled and floored (:func:`uniform_symbols`).  A
  consumer lays its uniforms out in a fixed order, and because Philox is
  counter-based (Salmon, Moraes, Dror & Shaw, SC 2011) any word of that
  layout can be read at its position (:func:`seek`) without drawing the
  words before it: a value depends on its position alone, never on which
  other words were read or in what order.

The transform comes in steps that a caller may also take apart:
:func:`normal_radii` draws the radial uniforms ``u`` and returns the
radii ``r`` (:func:`uniforms_to_radii`, the same map on uniforms already
drawn), :func:`normal_angles` draws angular uniforms and returns the
angles, and :func:`normals_from_angles` returns ``r cos`` / ``r sin`` --
of the whole block, a contiguous range or chosen entries (within
``4.3e-6``, from float32 trig: :func:`coarse_normals`).  Every entry of
the block is at most its pair's radius in magnitude, and ``r >= L``
exactly when ``1 - u <= exp(-L**2 / 2)``, where ``1 - u`` is exact.  So
a caller can settle a trial from its raw radial uniforms alone, then
form only the radii and read only the angles that the remaining trials
use.  The radii and angles can be
written into caller-owned buffers.  :func:`uniforms_to_symbols` is the
symbol map of :func:`uniform_symbols` on uniforms already drawn.

Work is split into shards of :data:`SHARD_SIZE` trials.  Each shard owns a
private stream, so shards can be evaluated in any order -- or in parallel
-- and accumulated in shard order to produce an identical result.
"""

from __future__ import annotations

import numpy as np

from .exceptions import check_integer

__all__ = [
    "SHARD_SIZE",
    "coarse_normals",
    "derive_seed",
    "normal_angles",
    "normal_radii",
    "normals_from_angles",
    "seek",
    "standard_normals",
    "stream",
    "uniform_symbols",
    "uniforms_to_radii",
    "uniforms_to_symbols",
]

SHARD_SIZE = 1 << 16
"""Number of trials drawn from a single shard stream."""

_MAX_SEED = 1 << 64


def _check_seed(seed: int) -> int:
    return check_integer("seed", seed, 0, _MAX_SEED - 1)


def _seed_parts(seed: int, path) -> list[int]:
    return [_check_seed(seed)] + [check_integer("stream path component", part, 0) for part in path]


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return the Philox generator identified by ``(seed, *path)``.

    Parameters
    ----------
    seed : int
        Root seed in ``[0, 2**64)``.
    *path : int
        Non-negative integers naming the consumer of the stream, e.g.
        ``stream(seed, grid_index, shard_index)``.

    Returns
    -------
    numpy.random.Generator
        A generator whose output depends only on ``seed`` and ``path``.
    """
    sequence = np.random.SeedSequence(_seed_parts(seed, path))
    return np.random.Generator(np.random.Philox(seed=sequence))


def derive_seed(seed: int, *path: int) -> int:
    """Derive a child seed from ``(seed, *path)``.

    Used to hand an independent root seed to a sub-computation (for
    example, one facet class of a larger estimate) while keeping the
    whole computation a function of the original seed.
    """
    return int(np.random.SeedSequence(_seed_parts(seed, path)).generate_state(1, np.uint64)[0])


def seek(rng: np.random.Generator, origin: dict, position: int) -> None:
    """Set ``rng`` so that its next uniform is word ``position`` of its stream.

    ``origin`` is ``rng.bit_generator.state`` as :func:`stream` returned
    the generator, before any draw.  Word ``t`` of a Philox stream is word
    ``t mod 4`` of the block at counter ``floor(t / 4) + 1``, and
    ``advance(k)`` adds ``k`` to the counter and empties the block buffer;
    so the seek restores ``origin``, advances ``floor(position / 4)`` and
    discards ``position mod 4`` words.  It reads the same words forward,
    backward, or from inside a partly used block.
    """
    bits = rng.bit_generator
    bits.state = origin
    bits.advance(position // 4)
    if position % 4:
        rng.random(position % 4)


def uniforms_to_radii(u: np.ndarray) -> np.ndarray:
    """Box-Muller radii ``sqrt(-2 log1p(-u))`` of radial uniforms ``u``, in place.

    Overwrites ``u`` with the radii and returns it.  A radius is at least
    ``L`` exactly when ``1 - u <= exp(-L**2 / 2)``, and ``1 - u`` is exact
    for every value ``Generator.random`` returns (a multiple of
    ``2**-53``), so a caller can screen the uniforms before transforming
    them.
    """
    np.negative(u, out=u)
    np.log1p(u, out=u)
    u *= -2.0
    return np.sqrt(u, out=u)


def normal_radii(rng: np.random.Generator, count: int, out: np.ndarray | None = None) -> np.ndarray:
    """Step 1 of :func:`standard_normals`: the radii of a block of ``count`` normals.

    Draws the ``ceil(count / 2)`` radial uniforms ``u1`` and returns
    ``r = sqrt(-2 log1p(-u1))`` (:func:`uniforms_to_radii`), one radius per
    Box-Muller pair, in the leading entries of ``out`` if it is given.
    """
    pairs = (count + 1) // 2
    return uniforms_to_radii(rng.random(pairs) if out is None else rng.random(out=out[:pairs]))


def normal_angles(rng: np.random.Generator, pairs: int, out: np.ndarray | None = None) -> np.ndarray:
    """Step 2 of :func:`standard_normals`: the next ``pairs`` angles ``2 pi u2``.

    Written to the leading entries of ``out`` if it is given.
    """
    angle = rng.random(pairs) if out is None else rng.random(out=out[:pairs])
    angle *= 2.0 * np.pi
    return angle


def normals_from_angles(
    radius: np.ndarray, angle: np.ndarray, count: int, entries: np.ndarray | slice | None = None
) -> np.ndarray:
    """Step 3 of :func:`standard_normals`: normals of a block from its radii and angles.

    With ``pairs = radius.size``, entry ``t`` of the block is
    ``radius[t] cos(angle[t])`` for ``t < pairs`` and
    ``radius[t - pairs] sin(angle[t - pairs])`` otherwise, so its magnitude
    is at most its pair's radius.  Without ``entries`` the call returns the
    whole block of ``count`` normals; with ``entries`` (a ``slice(lo, hi)``
    of the block, or ascending indices into it) it returns those entries
    alone, bit for bit as the whole block holds them, reading only their
    radii and angles.
    """
    return _polar(radius, angle, count, entries, np.float64)


def coarse_normals(radius: np.ndarray, angle: np.ndarray, count: int, entries=None) -> np.ndarray:
    """:func:`normals_from_angles` with the cosines and sines taken in single precision.

    Rounding an angle ``0 <= a < 2 pi`` to float32 moves it by at most
    ``2 pi 2**-24`` and the float32 trig is within ``2**-23``, so entry
    ``t`` is within ``r (2 pi 2**-24 + 2**-23) ~ 4.9e-7 r`` of its double-
    precision value: within ``4.3e-6``, as a Box-Muller radius is at most
    ``sqrt(-2 log 2**-53) ~ 8.57``.  The trig costs a tenth.  The
    simulator's rounding shards and the Monte Carlo cell masses of
    :func:`latticesep.sep.exact_sep_theorem1` use it to decide most
    entries or samples, and form exactly only those near a limit.
    """
    return _polar(radius, angle, count, entries, np.float32)


def _polar(radius, angle, count, entries, precision) -> np.ndarray:
    pairs = radius.size
    if entries is None:
        entries = slice(0, count)
    if isinstance(entries, slice):
        lo, hi = entries.start, entries.stop
        split, size = min(max(pairs - lo, 0), hi - lo), hi - lo
        cosines, sines = slice(lo, lo + split), slice(max(lo, pairs) - pairs, max(hi - pairs, 0))
    else:
        split, size = int(np.searchsorted(entries, pairs)), entries.size
        cosines, sines = entries[:split], entries[split:] - pairs
    out = np.empty(size)
    for part, index, trig in ((out[:split], cosines, np.cos), (out[split:], sines, np.sin)):
        trig(angle[index].astype(precision, copy=False), out=part)  # in `precision`, stored as float64
        part *= radius[index]
    return out


def standard_normals(rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw ``count`` standard normal variates by Box-Muller.

    The transform consumes exactly ``2 * ceil(count / 2)`` uniforms from
    ``rng``: first all radial uniforms ``u1``, then all angular uniforms
    ``u2``.  With ``r = sqrt(-2 log(1 - u1))`` the output block is
    ``concat(r cos(2 pi u2), r sin(2 pi u2))`` truncated to ``count``.
    ``log(1 - u1)`` is evaluated as ``log1p(-u1)``, which is finite for
    every value ``Generator.random`` can return.  The steps are
    :func:`normal_radii`, :func:`normal_angles` and
    :func:`normals_from_angles`.

    Parameters
    ----------
    rng : numpy.random.Generator
        Source of uniforms, normally obtained from :func:`stream`.
    count : int
        Number of variates to produce, ``count >= 0``.

    Returns
    -------
    numpy.ndarray
        Shape ``(count,)`` array of independent ``N(0, 1)`` samples.
    """
    count = check_integer("count", count, 0)
    radius = normal_radii(rng, count)
    return normals_from_angles(radius, normal_angles(rng, radius.size), count)


def uniforms_to_symbols(u: np.ndarray, levels: int) -> np.ndarray:
    """Symbols ``floor(levels * u)`` of uniforms ``u``, clipped to ``levels - 1``.

    Overwrites ``u`` with ``levels * u``.  Returns an ``int64`` array of
    the shape of ``u``.
    """
    u *= levels
    symbols = u.astype(np.int64)
    return np.minimum(symbols, levels - 1, out=symbols)


def uniform_symbols(rng: np.random.Generator, count: int, levels: int) -> np.ndarray:
    """Draw ``count`` symbols uniformly from ``{0, ..., levels - 1}``.

    Each symbol is ``floor(levels * u)`` for one uniform ``u``, clipped to
    ``levels - 1`` to guard against the (unreachable in practice) case
    ``u == 1.0`` after rounding (:func:`uniforms_to_symbols`).

    Returns
    -------
    numpy.ndarray
        Shape ``(count,)`` array of dtype ``int64``.
    """
    count = check_integer("count", count, 0)
    levels = check_integer("levels", levels, 1)
    return uniforms_to_symbols(rng.random(count), levels)
