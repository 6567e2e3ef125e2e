"""Special-function contracts: gamma tails, Gaussian tail, sphere radii.

Expected values are frozen from independent oracles: closed-form identities
(exp/erfc), scipy's Cephes-based gammaincc, and hand-derived constants.
"""

import math

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from latticesep import ConvergenceError, InternalCheckError
from latticesep.special import clamp_probability, q_function, regularized_gamma_upper
from latticesep.bounds import inscribed_radius_sq, volume_matched_radius_sq


class TestRegularizedGammaUpper:
    def test_at_zero_is_one(self):
        for a in (0.5, 1.0, 2.5, 7.0, 64.0):
            assert regularized_gamma_upper(a, 0.0) == 1.0

    def test_exponential_identity(self):
        # Q(1, x) = exp(-x) exactly.
        for x in (0.0, 0.3, 1.25, 1.5915494309189535, 5.0, 40.0, 700.0):
            assert regularized_gamma_upper(1.0, x) == pytest.approx(math.exp(-x), rel=1e-12)

    def test_exponential_identity_is_exact_above_the_seam(self):
        # For x >= a + 1 = 2 the finite sum is the single term exp(-x).
        for x in (2.0, 5.0, 40.0, 44.351673654196915, 700.0, 800.0):
            assert regularized_gamma_upper(1.0, x) == math.exp(-x)

    def test_erfc_identity(self):
        # Q(1/2, x) = erfc(sqrt(x)) exactly.
        for x in (0.0, 0.01, 0.5, 1.25, 4.0, 12.5, 100.0):
            assert regularized_gamma_upper(0.5, x) == pytest.approx(math.erfc(math.sqrt(x)), rel=1e-12)

    def test_frozen_examples(self):
        # exp(-5/pi) and erfc(sqrt(1.25)), both hand-derived and scipy-confirmed.
        assert regularized_gamma_upper(1.0, 1.5915494309189535) == pytest.approx(
            0.20360988774564512, rel=1e-12
        )
        assert regularized_gamma_upper(0.5, 1.25) == pytest.approx(0.11384629800665769, rel=1e-12)

    def test_against_scipy_grid(self):
        # Relative accuracy within 1e-12 across the supported domain.
        a_values = np.concatenate([np.arange(0.5, 8.5, 0.5), [12.0, 16.0, 24.0, 32.0, 48.0, 64.0]])
        x_values = np.concatenate(
            [[0.0], np.geomspace(1e-6, 1e4, 61), np.arange(0.5, 30.0, 0.5)]
        )
        for a in a_values:
            expected = scipy.special.gammaincc(a, x_values)
            for x, ref in zip(x_values, expected):
                got = regularized_gamma_upper(float(a), float(x))
                assert got == pytest.approx(ref, rel=1e-12, abs=1e-300)

    def test_monotone_decreasing_in_x(self):
        for a in (0.5, 1.0, 2.0, 4.0, 32.0):
            xs = np.linspace(0.0, 50.0, 201)
            qs = [regularized_gamma_upper(a, float(x)) for x in xs]
            assert all(q1 >= q2 for q1, q2 in zip(qs, qs[1:]))

    def test_monotone_on_dense_grids(self):
        # Every facet dimension k <= 16, across the seam x = a + 1 between
        # the lower series and the finite sum, and deep into both tails.
        grids = (np.linspace(0.0, 80.0, 8001), np.geomspace(1e-8, 800.0, 8001))
        for k in range(1, 17):
            for grid in grids:
                qs = [regularized_gamma_upper(k / 2.0, float(x)) for x in grid]
                assert all(q1 >= q2 for q1, q2 in zip(qs, qs[1:])), k

    @given(
        a=st.integers(1, 128).map(lambda k: k / 2.0),
        x=st.floats(0.0, 1e4, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_range_and_scipy_agreement(self, a, x):
        got = regularized_gamma_upper(a, x)
        assert 0.0 <= got <= 1.0
        ref = float(scipy.special.gammaincc(a, x))
        assert got == pytest.approx(ref, rel=1e-11, abs=1e-300)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            regularized_gamma_upper(0.0, 1.0)
        with pytest.raises(ValueError):
            regularized_gamma_upper(-1.0, 1.0)
        with pytest.raises(ValueError):
            regularized_gamma_upper(1.0, -0.5)
        for a in (1.25, 2.3, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                regularized_gamma_upper(a, 1.0)
        with pytest.raises(ValueError):
            regularized_gamma_upper(1.0, float("inf"))

    def test_deep_tail_underflows_to_zero(self):
        assert regularized_gamma_upper(0.5, 1e4) == 0.0

    def test_convergence_error_is_raisable(self):
        assert issubclass(ConvergenceError, Exception)


class TestQFunction:
    def test_at_zero(self):
        assert q_function(0.0) == pytest.approx(0.5, rel=1e-15)

    def test_frozen_example(self):
        # Q(sqrt(10)/2), numerically erfc(sqrt(10)/(2*sqrt(2)))/2.
        assert q_function(1.5811388300841898) == pytest.approx(0.056923149003329065, rel=1e-12)

    def test_against_normal_sf(self):
        ts = np.linspace(-8.0, 8.0, 161)
        refs = scipy.stats.norm.sf(ts)
        for t, ref in zip(ts, refs):
            assert q_function(float(t)) == pytest.approx(float(ref), rel=1e-12)

    def test_symmetry(self):
        for t in (0.1, 0.75, 2.5, 6.0):
            assert q_function(t) + q_function(-t) == pytest.approx(1.0, rel=1e-14)

    def test_deep_tail_clamps_to_zero(self):
        assert q_function(40.0) == 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            q_function(float("inf"))
        with pytest.raises(ValueError):
            q_function(float("nan"))


class TestSphereRadiusSq:
    def test_volume_matched_examples(self):
        # 1-d cell of length W=1: ball of volume 1 is [-1/2, 1/2], R^2 = 1/4.
        assert volume_matched_radius_sq(1, 2, 1.0) == pytest.approx(0.25, rel=1e-12)
        # Full-dimension cell of volume 1 in 2-d: pi R^2 = 1.
        assert volume_matched_radius_sq(2, 2, None) == pytest.approx(1.0 / math.pi, rel=1e-12)

    def test_inscribed_example(self):
        assert inscribed_radius_sq(math.sqrt(2.0)) == pytest.approx(0.5, rel=1e-12)

    def test_volume_consistency(self):
        # The k-ball of the returned radius has volume W^k (k < n) or 1 (k = n).
        for n in (2, 4, 8, 16):
            for k in range(1, n + 1):
                for w in (0.7, 1.0, 1.4874):
                    r_sq = volume_matched_radius_sq(k, n, w)
                    volume = math.pi ** (k / 2.0) * r_sq ** (k / 2.0) / math.gamma(k / 2.0 + 1.0)
                    target = w**k if k < n else 1.0
                    assert volume == pytest.approx(target, rel=1e-12)

    def test_inscribed_ignores_dimension(self):
        # The packing radius takes no dimension: MSUB uses it for every k.
        assert inscribed_radius_sq(1.5) == 1.5 * 1.5 / 4.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            volume_matched_radius_sq(0, 2, 1.0)
        with pytest.raises(ValueError):
            volume_matched_radius_sq(3, 2, 1.0)
        with pytest.raises(ValueError):
            volume_matched_radius_sq(1, 2, None)
        with pytest.raises(ValueError):
            inscribed_radius_sq(None)
        with pytest.raises(ValueError):
            inscribed_radius_sq(-1.0)


class TestClampProbability:
    def test_rounding_noise_clamped(self):
        assert clamp_probability(1.0 + 1e-12) == 1.0
        assert clamp_probability(-1e-12) == 0.0
        assert clamp_probability(0.5) == 0.5

    def test_large_excursion_is_internal_error(self):
        with pytest.raises(InternalCheckError):
            clamp_probability(1.1)
        with pytest.raises(InternalCheckError):
            clamp_probability(-1e-6)
        with pytest.raises(InternalCheckError):
            clamp_probability(float("nan"))
