"""Continuum reference: the 2N-component Dirac equation on a periodic grid,
pseudo-spectral in space, second-order Runge-Kutta in time.

A SpinorField holds either point values on the grid or their DFT
coefficients (its `spectral` flag).  When the gauge potential is uniform in x
the derivative and the potential both act mode by mode, so `solve` marches
the Fourier coefficients and needs no FFT per step; x-dependent potentials
are marched in x space."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattice import LatticeSpec
from .unitary import DimensionError, GeneratorSet


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
        if self.dx <= 0:
            raise ValueError("dx must be positive")

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

    def derivative_symbol(self) -> np.ndarray:
        """ik per mode, with the (even-n) Nyquist mode's derivative zeroed;
        one read-only array per grid."""
        return self._symbol

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

    @property
    def psi_minus(self) -> np.ndarray:
        return self.values[:, : self.dim]

    @property
    def psi_plus(self) -> np.ndarray:
        return self.values[:, self.dim :]

    def site_probabilities(self) -> np.ndarray:
        return np.sum(np.abs(self.to_physical().values) ** 2, axis=1)


def spectral_derivative(f: SpinorField) -> SpinorField:
    """Componentwise d/dx in f's representation: multiply the coefficients
    by ik (FFT in and out for an x-space field)."""
    hat = f.to_spectral().values * f.grid.derivative_symbol()[:, None]
    d = SpinorField(f.grid, f.dim, hat, True)
    return d if f.spectral else d.to_physical()


@dataclass(frozen=True)
class DiracParams:
    """mass plus coordinate functions b0, b1: (t, x-array) -> coordinates of
    the gauge potential in the generator basis; (count,) means uniform in x."""

    mass: float
    b0: object
    b1: object
    gens: GeneratorSet

    def __post_init__(self):
        if self.mass < 0:
            raise ValueError("mass must be >= 0")

    def uniform_in_x(self, x: np.ndarray) -> bool:
        """True if both coordinate functions return one coordinate vector,
        shape (count,), rather than one per point (probed at t = 0)."""
        return all(np.ndim(fn(0.0, x)) == 1 for fn in (self.b0, self.b1))

    def potential_matrices(self, t: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        out = []
        for fn in (self.b0, self.b1):
            coords = np.asarray(fn(t, x), dtype=float)
            if not np.isfinite(coords).all():
                raise ValueError(f"non-finite potential at t = {t}")
            out.append(self.gens.assemble(coords))
        return out[0], out[1]


def coupling_matrix(b0: np.ndarray, b1: np.ndarray, mass: float) -> np.ndarray:
    """i [[B0 - B1, -m], [-m, B0 + B1]]: the non-derivative part of the Dirac
    generator, (2N,2N) for uniform potentials or (n,2N,2N) per point."""
    n = b0.shape[-1]
    diff = b0 - b1
    c = np.empty(diff.shape[:-2] + (2 * n, 2 * n), dtype=complex)
    c[..., :n, :n] = diff
    c[..., n:, n:] = b0 + b1
    c[..., :n, n:] = c[..., n:, :n] = -mass * np.eye(n)
    c *= 1j
    return c


def dirac_rhs(f: SpinorField, params: DiracParams, t: float) -> SpinorField:
    """d/dt Psi with
       d0 psi^- = +d1 psi^- + i (B0 - B1) psi^- - i m psi^+
       d0 psi^+ = -d1 psi^+ + i (B0 + B1) psi^+ - i m psi^-,
    in f's representation; an x-dependent potential needs an x-space f."""
    if f.dim != params.gens.dim:
        raise DimensionError("field and generator dimensions disagree")
    d = spectral_derivative(f)
    c = coupling_matrix(*params.potential_matrices(t, f.grid.positions()), params.mass)
    if c.ndim == 2:
        out = f.values @ c.T
    elif f.spectral:
        raise DimensionError("an x-dependent potential cannot act on a spectral field")
    else:
        out = np.einsum("pij,pj->pi", c, f.values)
    out += d.values * np.repeat((1.0, -1.0), f.dim)
    return SpinorField(f.grid, f.dim, out, f.spectral)


def rk2_step(f: SpinorField, params: DiracParams, t: float, dt: float) -> SpinorField:
    """Midpoint rule: k1 = rhs(f,t); k2 = rhs(f + dt/2 k1, t + dt/2);
    result = f + dt k2."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    k1 = dirac_rhs(f, params, t).values
    k1 *= 0.5 * dt
    k1 += f.values
    k2 = dirac_rhs(SpinorField(f.grid, f.dim, k1, f.spectral), params, t + 0.5 * dt).values
    k2 *= dt
    k2 += f.values
    return SpinorField(f.grid, f.dim, k2, f.spectral)


def free_hamiltonian(k: float, m: float) -> np.ndarray:
    """H(k) = [[-k, m], [m, k]] acting on (psi^-, psi^+) plane-wave amplitudes."""
    return np.array([[-k, m], [m, k]], dtype=complex)


def u_plus(k: float, m: float) -> np.ndarray:
    """Positive-energy eigenvector of H(k): (E - k, m) normalized, E = sqrt(k^2 + m^2)."""
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


def solve(initial: SpinorField, params: DiracParams, t_max: float, dt: float,
          observer=None) -> SpinorField:
    """March with rk2_step from t = 0 to t_max (last step shortened to land
    exactly on t_max); aborts with NumericalAbort on non-finite values.

    When both coordinate functions are uniform in x, the march runs on the
    Fourier coefficients: the FFT is linear and commutes with the uniform
    potential and mass terms, so this is the same RK2 up to rounding, with
    one transform in and one out instead of two pairs per step.  The
    observer and the caller always receive x-space fields."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_max < 0:
        raise ValueError("t_max must be >= 0")
    spectral = params.uniform_in_x(initial.grid.positions())
    f, t = initial, 0.0
    while t < t_max - 1e-12:
        h = min(dt, t_max - t)
        f = rk2_step(f.to_spectral() if spectral else f, params, t, h)
        t += h
        if not np.isfinite(f.values).all():
            raise NumericalAbort(t)
        if observer is not None:
            observer(t, f.to_physical())
    return f.to_physical()
