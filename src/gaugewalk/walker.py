"""The 2N-component discrete-time quantum walk: coin (and its real form for
x-uniform steps), evolution, gauge transformation of states, probability
accounting."""

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
        self._hold(spec, dim, j, amplitudes)

    @classmethod
    def _made(cls, spec: LatticeSpec, dim: int, j: int, amplitudes: np.ndarray) -> "WalkState":
        """The state of amplitudes a step has just made, C-contiguous complex
        of shape (n_sites, 2N) by construction: only the finiteness test."""
        state = cls.__new__(cls)
        state._hold(spec, dim, j, amplitudes)
        return state

    def _hold(self, spec: LatticeSpec, dim: int, j: int, amplitudes: np.ndarray) -> None:
        # NaN or inf in either part of any entry fails on the float view
        if np.count_nonzero(np.isfinite(amplitudes.view(float))) < 2 * amplitudes.size:
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
    return float(np.sum(row_probabilities(state.amplitudes)))


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


@functools.lru_cache(maxsize=8)
def _mixer(theta: float, dim: int) -> np.ndarray:
    """B(theta, 1, 1) transposed, read-only: it mixes the rotated blocks
    (P psi^-, Q psi^+) of a per-site step, B(theta, P, Q) = B(theta, 1, 1) diag(P, Q)."""
    eye = np.eye(dim)
    b = coin_matrix(theta, eye, eye).T
    b.setflags(write=False)
    return b


@functools.lru_cache(maxsize=8)
def _coin_map(theta: float, dim: int) -> np.ndarray:
    """Read-only (4N^2, 16N^2) map, of 0, +-cos(theta) and +-sin(theta), from
    the float view of the links (P, Q) to C, the interleaved real form of
    B(theta, P, Q) transposed: row i is C for the links whose view is unit i."""
    units = np.eye(4 * dim * dim).view(complex).reshape(-1, 2, dim, dim)
    b = np.array([coin_matrix(theta, p, q).T for p, q in units])
    # row 2l of C is row l of B^T as floats, row 2l + 1 that of i B^T
    m = np.stack((b, 1j * b), axis=2).view(float).reshape(len(units), -1)
    m.setflags(write=False)
    return m


def _real_coin(theta: float, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """C with v.view(float) @ C == (v @ B(theta, P, Q).T).view(float).  Each
    entry is one link coordinate times one map entry, so C is the real form
    of coin_matrix(theta, P, Q).T bit for bit."""
    n = len(p)
    return (np.array((p, q)).view(float).ravel() @ _coin_map(theta, n)).reshape(4 * n, 4 * n)


def _same_space(a: LatticeSpec, b: LatticeSpec) -> bool:
    """Same sites: a state is valid on any time extent with its spacing."""
    return a.epsilon == b.epsilon and a.p_max == b.p_max


def step(state: WalkState, field: GaugeField, config: WalkConfig) -> WalkState:
    """One walk step: shift (psi^- from p+1, psi^+ from p-1, periodic), then
    the coin with the pair R = (P, Q) = field.R(j) taken at the destination
    site (j, p).

    When slice j is uniform in x (R's site stride is 0), every site has the
    same coin B(theta, P, Q) (see coin_matrix), and the step is one real
    product of the shifted rows' float view, (n_sites, 4N), with _real_coin,
    the interleaved real form of B transposed, entry for entry coin_matrix's.
    That is the per-site formula with its scalars moved inside,
    c (P psi) -> (c P) psi, so the two paths agree to rounding (~1e-15).
    A slice that varies in x takes B(theta, P, Q) = B(theta, 1, 1) diag(P, Q):
    one stacked product of R with the blocks (psi^-, psi^+) writes P psi^- and
    Q psi^+ at every site into one array, then one product of its rows with
    B(theta, 1, 1) transposed mixes them."""
    if state.dim != field.dim or state.dim != config.dim:
        raise DimensionError("state, field and config dimensions disagree")
    if not _same_space(state.spec, field.spec):
        raise DimensionError("state and field lattices disagree")
    n, amps = state.dim, state.amplitudes
    r = field.R(state.j)
    # the links come first, since a build may run outside code; mode="wrap" (every
    # index is in range) lets take fill buf without a buffer of its own
    index, buf = _shift_index(len(amps), n, threading.get_ident())
    shifted = amps.ravel().take(index, out=buf, mode="wrap").reshape(amps.shape)
    if uniform_in_x(r):
        out = (shifted.view(float) @ _real_coin(config.theta, r[0, 0], r[1, 0])).view(complex)
    else:
        # the output is allocated after rot, so rot is freed below a live array;
        # freed at the heap top it was trimmed and faulted back in on every step
        rot = np.empty((len(amps), 2, n, 1), dtype=complex)
        # (P, Q) times (psi^-, psi^+), kind-major, into rot's site-major blocks
        np.matmul(r, shifted.reshape(len(amps), 2, n).swapaxes(0, 1)[..., None], out=rot.swapaxes(0, 1))
        out = rot.reshape(len(amps), 2 * n) @ _mixer(config.theta, n)
    return WalkState._made(state.spec, state.dim, state.j + 1, out)


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
