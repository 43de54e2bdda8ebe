"""Continuum reference: the 2N-component Dirac equation on a periodic grid,
pseudo-spectral in space, second-order Runge-Kutta in time.

A SpinorField holds either point values on the grid or their DFT
coefficients (its `spectral` flag).  A potential uniform in x acts mode by
mode on either; one per point acts only on point values, so a spectral field
takes only a pair uniform in x (see lattice.sample_potentials).

`solve` chooses its march once, from the potential's t = 0 sample alone.
For one uniform in x, no two modes couple, and it marches Fourier
coefficients with no FFT per step: those of the packet's band, the rows
|m| <= M that hold every row above BAND_CUTOFF of the largest, as a grid of
2M + 1 points with the caller's period and x_min, or the caller's whole grid
when the band fills it.  For one per point it marches point values on the
caller's grid (one FFT out and one back per right-hand side).

Each grid keeps, once per N, the derivative symbol ik and the chirality sign
(+1 on psi^-, -1 on psi^+) tiled to a spinor's (n, 2N) shape
(`SpectralGrid.spinor_symbols`), so the per-step products run over whole
contiguous arrays."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattice import LatticeSpec, sample_potentials
from .unitary import DimensionError, GeneratorSet

# coefficient rows at or below this fraction of the largest row are left out
# of the band (see _band)
BAND_CUTOFF = 1e-15


class NumericalAbort(RuntimeError):
    """Raised when the solution stops being finite; carries the time."""

    def __init__(self, t: float, cause: str = "non-finite field"):
        super().__init__(f"{cause} at t = {t:.6g}")
        self.t = t


@dataclass(frozen=True)
class SpectralGrid:
    """Periodic grid of n_points spaced dx apart starting at x_min; period
    n_points * dx."""

    n_points: int
    x_min: float
    dx: float

    def __post_init__(self):
        if self.n_points < 8:
            raise ValueError("need at least 8 grid points")
        if not 0 < self.dx < np.inf:
            raise ValueError(f"dx must be positive and finite, got {self.dx!r}")
        if not np.isfinite(self.x_min):
            raise ValueError(f"x_min must be finite, got {self.x_min!r}")

    @classmethod
    def from_lattice(cls, spec: LatticeSpec) -> "SpectralGrid":
        """Grid points coincide with the walker sites x_p = p*eps."""
        return cls(spec.n_sites, -spec.p_max * spec.epsilon, spec.epsilon)

    @property
    def length(self) -> float:
        return self.n_points * self.dx

    def positions(self) -> np.ndarray:
        """Grid points; one read-only array per grid."""
        return self._positions

    def wavenumbers(self) -> np.ndarray:
        return 2 * np.pi * np.fft.fftfreq(self.n_points, d=self.dx)

    def spinor_symbols(self, dim: int) -> tuple[np.ndarray, np.ndarray]:
        """(ik, sign) tiled to the (n_points, 2 dim) shape of a spinor field:
        ik per mode in every column, with the (even-n) Nyquist mode's
        derivative zeroed, and +1 on the psi^- columns, -1 on the psi^+ ones.
        Read-only, built once per grid and dim."""
        pair = self._tiled.get(dim)
        if pair is None:
            ik = np.repeat(self._symbol[:, None], 2 * dim, axis=1)
            # complex, so multiplying a field by it needs no per-call cast
            sign = np.tile(np.repeat((1.0 + 0j, -1.0 + 0j), dim), (self.n_points, 1))
            ik.flags.writeable = sign.flags.writeable = False
            pair = self._tiled[dim] = (ik, sign)
        return pair

    @cached_property
    def _positions(self) -> np.ndarray:
        x = self.x_min + self.dx * np.arange(self.n_points)
        x.flags.writeable = False
        return x

    @cached_property
    def _symbol(self) -> np.ndarray:
        ik = 1j * self.wavenumbers()
        if self.n_points % 2 == 0:
            ik[self.n_points // 2] = 0.0
        ik.flags.writeable = False
        return ik

    @cached_property
    def _tiled(self) -> dict:
        return {}

    def synthesize(self, coefficients: np.ndarray) -> np.ndarray:
        """f(x_i) = sum_m c_m exp(i k_m x_i) for coefficients indexed in DFT
        mode order; columns are handled independently."""
        phase = np.exp(1j * self.wavenumbers() * self.x_min)
        shaped = coefficients * (phase[:, None] if coefficients.ndim == 2 else phase)
        return np.fft.ifft(shaped, axis=0) * self.n_points


class SpinorField:
    """2N complex components per grid point, psi^- block first.  With
    spectral=True the rows are the DFT coefficients (numpy's unnormalized
    fft along the grid axis) instead of point values."""

    def __init__(self, grid: SpectralGrid, dim: int, values: np.ndarray, spectral: bool = False):
        values = np.asarray(values, dtype=complex)
        if values.shape != (grid.n_points, 2 * dim):
            raise DimensionError(f"values shape {values.shape}, expected {(grid.n_points, 2 * dim)}")
        self.grid = grid
        self.dim = dim
        self.values = values
        self.spectral = spectral

    def to_spectral(self) -> "SpinorField":
        if self.spectral:
            return self
        return SpinorField(self.grid, self.dim, np.fft.fft(self.values, axis=0), True)

    def to_physical(self) -> "SpinorField":
        if not self.spectral:
            return self
        return SpinorField(self.grid, self.dim, np.fft.ifft(self.values, axis=0))


def spectral_derivative(f: SpinorField) -> SpinorField:
    """Componentwise d/dx in f's representation: multiply the coefficients
    by ik (FFT in and out for an x-space field)."""
    hat = f.to_spectral().values * f.grid.spinor_symbols(f.dim)[0]
    d = SpinorField(f.grid, f.dim, hat, True)
    return d if f.spectral else d.to_physical()


@dataclass(frozen=True)
class DiracParams:
    """mass plus coordinate functions b0, b1: (t, x-array) -> coordinates of
    the gauge potential, read as a pair by lattice.sample_potentials;
    (count,) means uniform in x, (n, count) one per point.  A pair uniform
    in x at t = 0 must stay uniform (see solve)."""

    mass: float
    b0: object
    b1: object
    gens: GeneratorSet

    def __post_init__(self):
        if not 0 <= self.mass < np.inf:
            raise ValueError(f"mass must be >= 0 and finite, got {self.mass!r}")

    def potential_matrices(self, t: float, x: np.ndarray, uniform: bool | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(B0, B1) at time t, of one shape: one matrix each for a pair uniform
        in x, one per point otherwise (`uniform`: see sample_potentials)."""
        # both samples in one assemble: its rows are computed independently
        b = self.gens.assemble(np.array(sample_potentials(self.b0, self.b1, t, x, len(self.gens), uniform)))
        return b[0], b[1]


def coupling_matrix(b0: np.ndarray, b1: np.ndarray, mass: float) -> np.ndarray:
    """i [[B0 - B1, -m], [-m, B0 + B1]]: the non-derivative part of the Dirac
    generator, from B0, B1 of one shape: (2N,2N) uniform, (n,2N,2N) per point."""
    n, lead = b0.shape[-1], b0.shape[:-2]
    c = np.zeros(lead + (2 * n, 2 * n), dtype=complex)
    np.subtract(b0, b1, out=c[..., :n, :n])
    np.add(b0, b1, out=c[..., n:, n:])
    # the diagonals of the two off-diagonal blocks, as strided views of the
    # flattened matrices: entries (i, n + i) and (n + i, i)
    flat = c.reshape(lead + (4 * n * n,))
    flat[..., n : 2 * n * n : 2 * n + 1] = flat[..., 2 * n * n :: 2 * n + 1] = -mass
    c *= 1j
    return c


def dirac_rhs(f: SpinorField, params: DiracParams, t: float) -> SpinorField:
    """d/dt Psi with
       d0 psi^- = +d1 psi^- + i (B0 - B1) psi^- - i m psi^+
       d0 psi^+ = -d1 psi^+ + i (B0 + B1) psi^+ - i m psi^-,
    in f's representation: a spectral f takes only a pair uniform in x."""
    if f.dim != params.gens.dim:
        raise DimensionError("field and generator dimensions disagree")
    c = coupling_matrix(*params.potential_matrices(t, f.grid.positions(), f.spectral or None), params.mass)
    out = f.values @ c.T if c.ndim == 2 else np.einsum("pij,pj->pi", c, f.values)
    d = spectral_derivative(f)
    # signed in place: a field-sized temporary per call costs page faults
    # on large grids
    dv = d.values
    dv *= f.grid.spinor_symbols(f.dim)[1]
    out += dv
    return SpinorField(f.grid, f.dim, out, f.spectral)


def rk2_step(f: SpinorField, params: DiracParams, t: float, dt: float) -> SpinorField:
    """Midpoint rule: k1 = rhs(f,t); k2 = rhs(f + dt/2 k1, t + dt/2);
    result = f + dt k2."""
    if not 0 < dt < np.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    k1 = dirac_rhs(f, params, t).values
    k1 *= 0.5 * dt
    k1 += f.values
    k2 = dirac_rhs(SpinorField(f.grid, f.dim, k1, f.spectral), params, t + 0.5 * dt).values
    k2 *= dt
    k2 += f.values
    return SpinorField(f.grid, f.dim, k2, f.spectral)


def u_plus(k: float, m: float) -> np.ndarray:
    """Positive-energy eigenvector of the plane-wave Hamiltonian
    H(k) = [[-k, m], [m, k]] on (psi^-, psi^+): (E - k, m) normalized,
    E = sqrt(k^2 + m^2)."""
    if m <= 0:
        raise ValueError("u_plus requires m > 0")
    e = np.sqrt(k * k + m * m)
    vec = np.array([e - k, m], dtype=complex)
    return vec / np.linalg.norm(vec)


def gaussian_packet(k0: float, sigma: float, color: np.ndarray, grid: SpectralGrid,
                    mass: float) -> SpinorField:
    """Sum over the grid's DFT modes of exp(-(k-k0)^2 / 2 sigma^2 + ikx) times
    u_+(k) tensor color, normalized to unit L2 bracket."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    color = np.asarray(color, dtype=complex)
    color = color / np.linalg.norm(color)
    dim = color.shape[0]
    if sigma * grid.length < 4 * np.pi:
        warnings.warn("packet under-resolved: sigma * domain < 4*pi", stacklevel=2)
    ks = grid.wavenumbers()
    weights = np.exp(-((ks - k0) ** 2) / (2 * sigma * sigma))
    coeffs = np.zeros((grid.n_points, 2 * dim), dtype=complex)
    for i, k in enumerate(ks):
        if weights[i] == 0.0:
            continue
        spin = u_plus(k, mass)
        coeffs[i, :dim] = weights[i] * spin[0] * color
        coeffs[i, dim:] = weights[i] * spin[1] * color
    values = grid.synthesize(coeffs)
    norm = np.sqrt(np.sum(np.abs(values) ** 2) * grid.dx)
    return SpinorField(grid, dim, values / norm)


def _band(full: SpinorField) -> SpinorField:
    """The coefficient march's start: the rows |m| <= M of full's
    coefficients on a grid of 2M + 1 points with full's period and x_min, or
    full itself when that grid would not be smaller.  M is the largest |m| of
    a row above BAND_CUTOFF of the largest row, and at least 4 (a grid has 8
    points or more)."""
    values, n = full.values, full.grid.n_points
    weight = np.max(np.abs(values), axis=1)
    rows = np.flatnonzero(weight > BAND_CUTOFF * weight.max())
    m = max(4, int(np.max(np.minimum(rows, n - rows), initial=0)))
    if 2 * m + 1 >= n:
        return full
    grid = SpectralGrid(2 * m + 1, full.grid.x_min, full.grid.length / (2 * m + 1))
    return SpinorField(grid, full.dim, np.concatenate((values[: m + 1], values[n - m :])), True)


def _padded(f: SpinorField, grid: SpectralGrid) -> SpinorField:
    """Band coefficients f as coefficients on `grid`, zero outside the band (f if on `grid`)."""
    if f.grid is grid:
        return f
    m = f.grid.n_points // 2
    values = np.zeros((grid.n_points, 2 * f.dim), dtype=complex)
    values[: m + 1], values[grid.n_points - m :] = f.values[: m + 1], f.values[m + 1 :]
    return SpinorField(grid, f.dim, values, True)


def solve(initial: SpinorField, params: DiracParams, t_max: float, dt: float) -> SpinorField:
    """March with rk2_step from t = 0 to t_max (last step shortened to land
    exactly on t_max); aborts with NumericalAbort on non-finite values.  A
    non-finite initial field is a ValueError naming its first bad row, before
    any transform.

    The march is chosen once, from the potential's t = 0 sample alone:
    Fourier coefficients (the packet's band, see _band) when it is uniform in
    x, and then the pair must stay uniform; point values on the caller's grid
    when it is per point.  The caller receives an x-space field on its own
    grid."""
    if not 0 < dt < np.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if not 0 <= t_max < np.inf:
        raise ValueError(f"t_max must be >= 0 and finite, got {t_max!r}")
    bad = np.flatnonzero(~np.isfinite(initial.values).all(axis=1))
    if bad.size:
        raise ValueError(f"initial field is not finite at row {bad[0]}")
    if t_max <= 1e-12:  # no step to take
        return initial.to_physical()
    x = initial.grid.positions()
    per_point = sample_potentials(params.b0, params.b1, 0.0, x, len(params.gens))[0].ndim == 2
    f = initial.to_physical() if per_point else _band(initial.to_spectral())
    t = 0.0
    while t < t_max - 1e-12:
        h = min(dt, t_max - t)
        f = rk2_step(f, params, t, h)
        t += h
        if not np.isfinite(f.values).all():
            raise NumericalAbort(t)
    return _padded(f, initial.grid).to_physical()
