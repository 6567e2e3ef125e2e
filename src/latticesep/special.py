"""Scalar special functions used by the error-probability formulas.

The regularized upper incomplete gamma function Q(a, x) is the chi-square tail
that all sphere bounds reduce to; the Gaussian tail Q(t) drives the
one-dimensional decision-distance terms.  Both are kept deliberately
dependency-free: the gamma function is evaluated by the classic split between
the lower series and the upper continued fraction, and the Gaussian tail is an
exact rewrite of ``erfc``.
"""

from __future__ import annotations

import math

from .exceptions import ConvergenceError, InternalCheckError

# Iteration control for the incomplete gamma evaluation.  The series and the
# continued fraction both converge well inside this budget over the supported
# domain (a in [0.5, 64], x in [0, 1e4]).
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

    Uses the standard split: the lower series for ``x < a + 1`` and the
    Lentz-form continued fraction otherwise.  Both iterate to a relative
    tolerance of 1e-14 and raise :class:`ConvergenceError` after 500 terms
    (which does not happen on the supported domain a in [0.5, 64],
    x in [0, 1e4]).

    Parameters
    ----------
    a : float
        Shape parameter, finite and > 0.
    x : float
        Evaluation point, finite and >= 0.

    Returns
    -------
    float
        Q(a, x) in [0, 1]; monotone decreasing in x with Q(a, 0) = 1.
    """
    a = float(a)
    x = float(x)
    if not math.isfinite(a) or a <= 0.0:
        raise ValueError(f"regularized_gamma_upper requires finite a > 0, got a={a!r}")
    if not math.isfinite(x) or x < 0.0:
        raise ValueError(f"regularized_gamma_upper requires finite x >= 0, got x={x!r}")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        q = 1.0 - _gamma_lower_series(a, x)
    else:
        q = _gamma_upper_continued_fraction(a, x)
    return clamp_probability(q)


def _gamma_prefactor(a: float, x: float) -> float:
    # x**a * exp(-x) / Gamma(a), computed in log space; underflows to 0
    # gracefully for x far in the tail.
    log_pref = a * math.log(x) - x - math.lgamma(a)
    if log_pref < -745.0:  # below exp() underflow of float64
        return 0.0
    return math.exp(log_pref)


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
            return total * _gamma_prefactor(a, x)
    raise ConvergenceError(f"gamma lower series did not converge for a={a}, x={x}")


def _gamma_upper_continued_fraction(a: float, x: float) -> float:
    # Q(a, x) by the continued fraction in modified Lentz form, for x >= a + 1.
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _GAMMA_MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _GAMMA_TOL:
            return h * _gamma_prefactor(a, x)
    raise ConvergenceError(f"gamma continued fraction did not converge for a={a}, x={x}")
