"""Comparison metrics: the L2 bracket, the mean relative difference between
walk and continuum fields, mean position, and log-log slope fitting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def l2_bracket(f: np.ndarray, epsilon: float) -> float:
    """<f> = sum over sites of f * eps (Riemann sum on the shared lattice).
    For multi-component f, trailing axes are summed too."""
    return float(np.sum(np.asarray(f)) * epsilon)


def relative_difference(a: np.ndarray, b: np.ndarray, epsilon: float,
                        extractor=None) -> float:
    """delta = sqrt(<|a - b|^2> / <|a|^2>), a being the reference.  extractor
    (e.g. np.real) is applied to both fields first; multi-component fields
    have |.|^2 summed over the trailing axis."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if extractor is not None:
        a, b = extractor(a), extractor(b)
    denom = l2_bracket(np.abs(a) ** 2, epsilon)
    if denom == 0.0:
        raise ZeroDivisionError("reference field has zero norm")
    num = l2_bracket(np.abs(a - b) ** 2, epsilon)
    return float(np.sqrt(num / denom))


def mean_position(site_probabilities: np.ndarray, positions: np.ndarray,
                  epsilon: float) -> float:
    """xbar = sum_p x_p |Psi_p|^2 eps / Pi, the numerator one dot product."""
    probs = np.asarray(site_probabilities, dtype=float)
    norm = l2_bracket(probs, epsilon)
    if norm == 0.0:
        raise ZeroDivisionError("zero-norm state has no mean position")
    return float(probs @ np.asarray(positions, dtype=float)) * epsilon / norm


@dataclass(frozen=True)
class ConvergenceSeries:
    epsilons: np.ndarray
    deltas: np.ndarray

    def __post_init__(self):
        eps = np.asarray(self.epsilons, dtype=float)
        deltas = np.asarray(self.deltas, dtype=float)
        if eps.shape != deltas.shape or eps.ndim != 1:
            raise ValueError("epsilons and deltas must be 1-D and the same length")
        if not np.all(np.diff(eps) < 0):
            raise ValueError("epsilons must be strictly decreasing")
        if np.any(deltas <= 0):
            raise ValueError("deltas must be positive")
        object.__setattr__(self, "epsilons", eps)
        object.__setattr__(self, "deltas", deltas)


def fit_loglog_slope(series: ConvergenceSeries) -> tuple[float, float]:
    """Least-squares slope of log(delta) vs log(eps), with r^2."""
    if len(series.epsilons) < 3:
        raise ValueError("need at least 3 points to fit a slope")
    lx = np.log(series.epsilons)
    ly = np.log(series.deltas)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), r2
