"""The 2N-component discrete-time quantum walk: coin, evolution, gauge
transformation of states, probability accounting."""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass

import numpy as np

from .lattice import RUN, GaugeField, GaugeTransformation, LatticeSpec, uniform_in_x
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


def row_probabilities(amplitudes: np.ndarray) -> np.ndarray:
    """|Psi_p|^2: the squared norm of each row of an (n_sites, k) complex
    array, summed as re^2 + im^2 over the row's float view."""
    v = np.ascontiguousarray(amplitudes, dtype=complex).view(float)
    return np.einsum("ij,ij->i", v, v)


class WalkState:
    """One time slice of the walk.  amplitudes is C-contiguous, of shape
    (n_sites, 2N), with the psi^- block in columns [:N] and psi^+ in
    columns [N:]."""

    def __init__(self, spec: LatticeSpec, dim: int, j: int, amplitudes: np.ndarray):
        amplitudes = np.ascontiguousarray(amplitudes, dtype=complex)
        if amplitudes.shape != (spec.n_sites, 2 * dim):
            raise DimensionError(f"amplitudes shape {amplitudes.shape}, expected {(spec.n_sites, 2 * dim)}")
        # NaN or inf in either part of any entry fails on the float view
        if not np.isfinite(amplitudes.view(float)).all():
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
        return row_probabilities(self.amplitudes)


def total_probability(state: WalkState) -> float:
    # summed from np.abs, not row_probabilities: gauge_check.json records the
    # drift of this total, and its last bits follow the summation used
    return float(np.sum(np.abs(state.amplitudes) ** 2))


def coin_matrix(theta: float, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """B(theta, P, Q) = [[cos(theta) P, i sin(theta) Q],
                         [i sin(theta) P, cos(theta) Q]]."""
    p = np.asarray(p, dtype=complex)
    q = np.asarray(q, dtype=complex)
    if p.shape != q.shape or p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise DimensionError("P and Q must be square matrices of the same size")
    n = p.shape[0]
    c, s = np.cos(theta), 1j * np.sin(theta)
    b = np.empty((2 * n, 2 * n), dtype=complex)
    b[:n, :n], b[:n, n:] = c * p, s * q
    b[n:, :n], b[n:, n:] = s * p, c * q
    return b


@functools.lru_cache(maxsize=8)
def _shift_index(n_sites: int, dim: int, thread: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices into (n_sites, 2N) amplitudes that gather the shifted
    state: psi^-_{p+1} into the psi^- block, psi^+_{p-1} into psi^+ (periodic),
    and the array a thread's steps gather into, so a step frees one large array
    (the old state), not two that the heap top would trim and fault back in."""
    index = np.arange(n_sites * 2 * dim).reshape(n_sites, 2, dim)
    index[:, 0] = np.roll(index[:, 0], -1, axis=0)
    index[:, 1] = np.roll(index[:, 1], 1, axis=0)
    index.setflags(write=False)
    return index.ravel(), np.empty(index.size, dtype=complex)


def _same_space(a: LatticeSpec, b: LatticeSpec) -> bool:
    """Same sites: a state is valid on any time extent with its spacing."""
    return a.epsilon == b.epsilon and a.p_max == b.p_max


def step(state: WalkState, field: GaugeField, config: WalkConfig) -> WalkState:
    """One walk step: shift (psi^- from p+1, psi^+ from p-1, periodic), then
    the coin with P, Q taken at the destination site (j, p).

    When both links of slice j are uniform in x, every site has the same
    coin B(theta, P, Q) (see coin_matrix), and the step is one product of
    the shifted (n_sites, 2N) rows with B transposed.  That is the per-site
    formula with its scalars moved inside, c (P psi) -> (c P) psi, so the
    two paths agree to rounding (~1e-15).  Slices that vary in x keep the
    per-site arithmetic unchanged."""
    if state.dim != field.dim or state.dim != config.dim:
        raise DimensionError("state, field and config dimensions disagree")
    if not _same_space(state.spec, field.spec):
        raise DimensionError("state and field lattices disagree")
    n, amps = state.dim, state.amplitudes
    p, q = field.P(state.j), field.Q(state.j)
    # the links come first, since a build may run outside code; mode="wrap" (every
    # index is in range) lets take fill buf without a buffer of its own
    index, buf = _shift_index(len(amps), n, threading.get_ident())
    shifted = amps.ravel().take(index, out=buf, mode="wrap").reshape(amps.shape)
    if uniform_in_x(p) and uniform_in_x(q):
        out = shifted @ coin_matrix(config.theta, p[0], q[0]).T
    else:
        p_rot = (p @ shifted[:, :n, None])[..., 0]
        q_rot = (q @ shifted[:, n:, None])[..., 0]
        c, s = np.cos(config.theta), 1j * np.sin(config.theta)
        # the output is allocated after the temporaries, so they are freed below
        # a live array; with the output allocated first they were freed at the
        # heap top, trimmed, and faulted back in on every step of a large lattice
        out = np.concatenate((c * p_rot + s * q_rot, s * p_rot + c * q_rot), axis=1)
    return WalkState(state.spec, state.dim, state.j + 1, out)


def walk(state: WalkState, field: GaugeField, config: WalkConfig, steps: int):
    """Yield the state after each of `steps` walk steps from state.  Before
    each lattice.RUN steps the field builds the slices they read as one run,
    field.P(j, ahead); the states are step's, bit for bit."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    for done in range(steps):
        if done % RUN == 0:
            field.P(state.j, min(RUN, steps - done))
        state = step(state, field, config)
        yield state


def evolve(state: WalkState, field: GaugeField, config: WalkConfig, steps: int) -> WalkState:
    """The state after `steps` walk steps from state: walk's last."""
    for state in walk(state, field, config, steps):
        pass
    return state


def gauge_transform_state(state: WalkState, g: GaugeTransformation) -> WalkState:
    """Psi' = (1_2 tensor G_{j,p}) Psi, i.e. G applied to both N-blocks."""
    if state.dim != g.dim or not _same_space(state.spec, g.spec):
        raise DimensionError("gauge transformation does not match state")
    # rows of the (n_sites, 2, N) view are the two N-blocks at a site
    blocks = state.amplitudes.reshape(state.spec.n_sites, 2, state.dim)
    out = blocks @ np.swapaxes(g.G(state.j), -1, -2)
    return WalkState(state.spec, state.dim, state.j, out.reshape(state.amplitudes.shape))
