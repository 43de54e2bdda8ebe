"""The 2N-component discrete-time quantum walk: coin, evolution, gauge
transformation of states, probability accounting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import GaugeField, GaugeTransformation, LatticeSpec
from .unitary import DimensionError


@dataclass(frozen=True)
class WalkConfig:
    """theta is the coin angle; in the continuum parameterization
    theta = -eps * m."""

    dim: int
    theta: float

    def __post_init__(self):
        if not np.isfinite(self.theta):
            raise ValueError("theta must be finite")

    @classmethod
    def from_mass(cls, dim: int, mass: float, epsilon: float) -> "WalkConfig":
        if mass < 0:
            raise ValueError("mass must be >= 0")
        return cls(dim, -epsilon * mass)


class WalkState:
    """One time slice of the walk.  amplitudes has shape (n_sites, 2N) with
    the psi^- block in columns [:N] and psi^+ in columns [N:]."""

    def __init__(self, spec: LatticeSpec, dim: int, j: int, amplitudes: np.ndarray):
        amplitudes = np.asarray(amplitudes, dtype=complex)
        if amplitudes.shape != (spec.n_sites, 2 * dim):
            raise DimensionError(f"amplitudes shape {amplitudes.shape}, expected {(spec.n_sites, 2 * dim)}")
        if not np.all(np.isfinite(amplitudes)):
            raise ValueError("non-finite amplitudes")
        self.spec = spec
        self.dim = dim
        self.j = j
        self.amplitudes = amplitudes

    @property
    def psi_minus(self) -> np.ndarray:
        return self.amplitudes[:, : self.dim]

    @property
    def psi_plus(self) -> np.ndarray:
        return self.amplitudes[:, self.dim :]

    def site_probabilities(self) -> np.ndarray:
        return np.sum(np.abs(self.amplitudes) ** 2, axis=1)


def total_probability(state: WalkState) -> float:
    return float(np.sum(np.abs(state.amplitudes) ** 2))


def coin_matrix(theta: float, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """B(theta, P, Q) = [[cos(theta) P, i sin(theta) Q],
                         [i sin(theta) P, cos(theta) Q]]."""
    p = np.asarray(p, dtype=complex)
    q = np.asarray(q, dtype=complex)
    if p.shape != q.shape or p.shape[0] != p.shape[1]:
        raise DimensionError("P and Q must be square matrices of the same size")
    c, s = np.cos(theta), 1j * np.sin(theta)
    return np.block([[c * p, s * q], [s * p, c * q]])


def _same_space(a: LatticeSpec, b: LatticeSpec) -> bool:
    """Same sites: a state is valid on any time extent with its spacing."""
    return a.epsilon == b.epsilon and a.p_max == b.p_max


def step(state: WalkState, field: GaugeField, config: WalkConfig) -> WalkState:
    """One walk step: shift (psi^- from p+1, psi^+ from p-1, periodic), then
    the coin with P, Q taken at the destination site (j, p)."""
    if state.dim != field.dim or state.dim != config.dim:
        raise DimensionError("state, field and config dimensions disagree")
    if not _same_space(state.spec, field.spec):
        raise DimensionError("state and field lattices disagree")
    minus_in = np.roll(state.psi_minus, -1, axis=0)  # psi^-_{j, p+1}
    plus_in = np.roll(state.psi_plus, 1, axis=0)     # psi^+_{j, p-1}
    p_rot = (field.P(state.j) @ minus_in[..., None])[..., 0]
    q_rot = (field.Q(state.j) @ plus_in[..., None])[..., 0]
    c, s = np.cos(config.theta), 1j * np.sin(config.theta)
    out = np.hstack([c * p_rot + s * q_rot, s * p_rot + c * q_rot])
    return WalkState(state.spec, state.dim, state.j + 1, out)


def evolve(state: WalkState, field: GaugeField, config: WalkConfig, steps: int,
           observer=None) -> WalkState:
    if steps < 0:
        raise ValueError("steps must be >= 0")
    for _ in range(steps):
        state = step(state, field, config)
        if observer is not None:
            observer(state)
    return state


def gauge_transform_state(state: WalkState, g: GaugeTransformation) -> WalkState:
    """Psi' = (1_2 tensor G_{j,p}) Psi, i.e. G applied to both N-blocks."""
    if state.dim != g.dim or not _same_space(state.spec, g.spec):
        raise DimensionError("gauge transformation does not match state")
    # rows of the (n_sites, 2, N) view are the two N-blocks at a site
    blocks = state.amplitudes.reshape(state.spec.n_sites, 2, state.dim)
    out = blocks @ np.swapaxes(g.G(state.j), -1, -2)
    return WalkState(state.spec, state.dim, state.j, out.reshape(state.amplitudes.shape))
