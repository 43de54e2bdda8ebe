"""Comparison metrics and slope fitting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugewalk import analysis as an


class TestL2Bracket:
    def test_riemann_sum(self):
        assert an.l2_bracket(np.array([1.0, 2.0, 3.0]), 0.5) == pytest.approx(3.0)

    def test_multicomponent(self):
        assert an.l2_bracket(np.ones((4, 2)), 0.25) == pytest.approx(2.0)


class TestRelativeDifference:
    def test_identical_fields(self):
        a = np.array([1.0 + 2j, -0.5, 3j])
        assert an.relative_difference(a, a, 0.1) == 0.0

    def test_known_value(self):
        a = np.array([1.0, 1.0, 1.0, 1.0])
        b = a + 0.1
        assert an.relative_difference(a, b, 0.3) == pytest.approx(0.1)

    def test_extractor(self):
        a = np.array([1.0 + 5j, 1.0 - 5j])
        b = np.array([1.0 + 0j, 1.0 + 0j])
        assert an.relative_difference(a, b, 1.0, np.real) == 0.0
        assert an.relative_difference(a, b, 1.0, np.imag) == pytest.approx(1.0)

    def test_not_symmetric_in_reference(self):
        a = np.array([2.0, 2.0])
        b = np.array([1.0, 1.0])
        assert an.relative_difference(a, b, 1.0) == pytest.approx(0.5)
        assert an.relative_difference(b, a, 1.0) == pytest.approx(1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            an.relative_difference(np.zeros(3), np.zeros(4), 0.1)

    def test_zero_reference(self):
        with pytest.raises(ZeroDivisionError):
            an.relative_difference(np.zeros(3), np.ones(3), 0.1)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000),
           st.floats(0.1, 10.0, allow_nan=False))
    def test_scale_invariant_and_nonnegative(self, seed, lam):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        b = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        d = an.relative_difference(a, b, 0.1)
        assert d >= 0.0
        assert an.relative_difference(lam * a, lam * b, 0.1) == pytest.approx(d)
        # independent of the lattice step (it cancels between the brackets)
        assert an.relative_difference(a, b, 0.7) == pytest.approx(d)


class TestMeanPosition:
    def test_point_mass(self):
        probs = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
        x = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        assert an.mean_position(probs, x, 0.5) == 0.0
        probs = np.roll(probs, 1)
        assert an.mean_position(probs, x, 0.5) == pytest.approx(1.0)

    def test_normalization_independent(self):
        probs = np.array([1.0, 2.0, 3.0])
        x = np.array([-1.0, 0.0, 1.0])
        assert an.mean_position(probs, x, 0.1) == an.mean_position(5 * probs, x, 0.9)

    def test_zero_norm(self):
        with pytest.raises(ZeroDivisionError):
            an.mean_position(np.zeros(3), np.arange(3.0), 0.1)


class TestMeanPositionDot:
    """The numerator is one dot product; the l2_bracket formula sums
    probs * x pairwise.  Packets sit off the origin, so x-bar has no
    cancellation to magnify the difference."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.floats(-30.0, 30.0).filter(lambda c: abs(c) >= 1.0),
           st.floats(0.2, 3.0))
    def test_matches_l2_bracket_formula(self, seed, centre, width):
        eps = 0.025
        x = eps * np.arange(-1400, 1401)
        noise = np.random.default_rng(seed).uniform(0.5, 1.5, x.size)
        probs = noise * np.exp(-((x - centre) / width) ** 2)
        want = an.l2_bracket(probs * x, eps) / an.l2_bracket(probs, eps)
        assert abs(an.mean_position(probs, x, eps) - want) <= 1e-14 * abs(want)


class TestConvergenceSeries:
    def test_requires_decreasing_epsilons(self):
        with pytest.raises(ValueError):
            an.ConvergenceSeries(np.array([0.1, 0.2]), np.array([1.0, 2.0]))

    def test_requires_positive_deltas(self):
        with pytest.raises(ValueError):
            an.ConvergenceSeries(np.array([0.2, 0.1]), np.array([1.0, 0.0]))

    def test_requires_matching_shapes(self):
        with pytest.raises(ValueError):
            an.ConvergenceSeries(np.array([0.2, 0.1]), np.array([1.0]))


class TestFitLoglogSlope:
    def test_exact_power_law(self):
        eps = np.array([0.4, 0.2, 0.1, 0.05])
        series = an.ConvergenceSeries(eps, 3.7 * eps ** 1.5)
        slope, r2 = an.fit_loglog_slope(series)
        assert slope == pytest.approx(1.5, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_needs_three_points(self):
        series = an.ConvergenceSeries(np.array([0.2, 0.1]), np.array([2.0, 1.0]))
        with pytest.raises(ValueError):
            an.fit_loglog_slope(series)

    def test_r2_below_one_for_noise(self):
        eps = np.array([0.4, 0.2, 0.1, 0.05, 0.025])
        deltas = eps * np.array([1.0, 1.5, 0.7, 1.2, 0.9])
        _, r2 = an.fit_loglog_slope(an.ConvergenceSeries(eps, deltas))
        assert r2 < 1.0
