"""Scalar special functions used by the error-probability formulas.

The regularized upper incomplete gamma function Q(a, x) is the chi-square tail
that all sphere bounds reduce to; the Gaussian tail Q(t) drives the
one-dimensional decision-distance terms.  Both are kept deliberately
dependency-free.  The bounds need Q(a, x) only at half-integer orders
``a = k/2`` (k a facet dimension), so it is served there alone: by the lower
series below ``x = a + 1`` and by the finite sum that Q takes at those orders
above it.  The Gaussian tail is an exact rewrite of ``erfc``.
"""

from __future__ import annotations

import math

from .exceptions import ConvergenceError, InternalCheckError

# Iteration control for the lower series of the incomplete gamma function.  It
# converges well inside this budget over the supported domain (a in [0.5, 64],
# x in [0, 1e4]).
_GAMMA_TOL = 1e-14
_GAMMA_MAX_ITER = 500

# Probabilities may leave [0, 1] only by accumulated rounding; anything larger
# than this is a bug in the calling formula, not noise.
_CLAMP_TOL = 1e-9


def clamp_probability(value: float) -> float:
    """Clamp a computed probability to [0, 1].

    Excursions beyond ``1e-9`` outside the unit interval are not rounding
    noise and raise :class:`InternalCheckError`.
    """
    if math.isnan(value) or value < -_CLAMP_TOL or value > 1.0 + _CLAMP_TOL:
        raise InternalCheckError(f"probability {value!r} outside [0, 1] beyond tolerance")
    return min(max(value, 0.0), 1.0)


def q_function(t: float) -> float:
    """Gaussian tail probability Q(t) = P[X > t] for X ~ N(0, 1).

    Evaluated as ``0.5 * erfc(t / sqrt(2))``, which is exact in the tails up
    to the precision of ``erfc`` itself.  Underflows to 0 for large ``t``
    rather than raising.

    Parameters
    ----------
    t : float
        Threshold, any finite value.
    """
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"q_function requires finite t, got {t!r}")
    return 0.5 * math.erfc(t / math.sqrt(2.0))


def regularized_gamma_upper(a: float, x: float) -> float:
    """Regularized upper incomplete gamma function Q(a, x) = Gamma(a, x) / Gamma(a).

    Q(a, x) is the survival function of a Gamma(a, 1) variable; with
    ``a = k/2`` and ``x = r**2 * rho / 2`` it is the probability that a
    k-dimensional standard Gaussian lands outside the sphere of radius r.

    Only half-integer orders are served, which is all the chi-square tails of
    the sphere bounds need.  Below ``x = a + 1``, ``1 - P(a, x)`` comes from
    the lower series, iterated to a relative tolerance of 1e-14 (it raises
    :class:`ConvergenceError` after 500 terms, which does not happen on the
    supported domain a in [0.5, 64], x in [0, 1e4]).  Above it Q is the
    finite sum ``Q(m, x) = e**-x * sum_{j<m} x**j / j!`` for integer ``a = m``
    and ``Q(m + 1/2, x) = erfc(sqrt(x)) + e**-x * sum_{j<m} x**(j + 1/2) /
    Gamma(j + 3/2)``.  The series is kept below the seam because the finite
    sum alone loses monotonicity by a few ulps where ``1 - Q`` is tiny.

    Parameters
    ----------
    a : float
        Order, a positive multiple of 1/2.
    x : float
        Evaluation point, finite and >= 0.

    Returns
    -------
    float
        Q(a, x) in [0, 1] with Q(a, 0) = 1; monotone decreasing in x for
        ``a = k/2`` with k <= 16, every order the package calls (checked on
        dense grids of [0, 800]).  Higher orders may rise by about 1e-14
        relative just below the seam (a = 62 and 63).
    """
    a = float(a)
    x = float(x)
    if not (a > 0.0 and (2.0 * a).is_integer()):
        raise ValueError(f"regularized_gamma_upper requires a positive multiple of 1/2, got a={a!r}")
    if not math.isfinite(x) or x < 0.0:
        raise ValueError(f"regularized_gamma_upper requires finite x >= 0, got x={x!r}")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        q = 1.0 - _gamma_lower_series(a, x)
    else:
        q = _gamma_upper_finite_sum(a, x)
    return clamp_probability(q)


def _gamma_lower_series(a: float, x: float) -> float:
    # P(a, x) by the ascending series, valid and fast for x < a + 1.
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(_GAMMA_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _GAMMA_TOL:
            # x**a * exp(-x) / Gamma(a) in log space; exp() underflows to
            # at most a subnormal far in the tail, where 1 - P rounds to 1.
            return total * math.exp(a * math.log(x) - x - math.lgamma(a))
    raise ConvergenceError(f"gamma lower series did not converge for a={a}, x={x}")


def _gamma_upper_finite_sum(a: float, x: float) -> float:
    # Q(a, x) for half-integer a: erfc(sqrt(x)) (odd 2a only) plus the terms
    # x**s * exp(-x) / Gamma(s + 1), s = j or j + 1/2 for j < floor(a), added
    # smallest first (x >= a + 1 makes them rise with j).
    half = a % 1.0
    q = math.erfc(math.sqrt(x)) if half else 0.0
    log_x = math.log(x)
    for j in range(int(a)):
        s = j + half
        q += math.exp(s * log_x - x - math.lgamma(s + 1.0))
    return q
