"""U(N)/SU(N) matrix algebra: generator bases, exponential map, factorization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Tolerance for unitarity of matrices we construct ourselves.
CONSTRUCTION_TOL = 1e-12
# Looser tolerance when accepting matrices from the outside.
INPUT_TOL = 1e-10

SIGMA_1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_3 = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = (SIGMA_1, SIGMA_2, SIGMA_3)


class DimensionError(ValueError):
    pass


class UnitarityError(ValueError):
    pass


def unitarity_defect(m: np.ndarray) -> float:
    """Max-norm of M†M - 1, zero for exactly unitary M."""
    m = np.asarray(m)
    n = m.shape[-1]
    return float(np.max(np.abs(np.swapaxes(m.conj(), -1, -2) @ m - np.eye(n))))


def is_unitary(m: np.ndarray, tol: float = CONSTRUCTION_TOL) -> bool:
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    return unitarity_defect(m) <= tol


def gell_mann(n: int) -> np.ndarray:
    """The N^2 - 1 generalized Gell-Mann matrices (traceless Hermitian,
    HS-orthogonal with Tr(g_i g_j) = 2 delta_ij).  For n = 2 these are the
    Pauli matrices in the order (sigma_1, sigma_2, sigma_3)."""
    if n < 1:
        raise DimensionError(f"dimension must be >= 1, got {n}")
    gens = []
    for j in range(n):
        for k in range(j + 1, n):
            s = np.zeros((n, n), dtype=complex)
            s[j, k] = s[k, j] = 1.0
            a = np.zeros((n, n), dtype=complex)
            a[j, k] = -1j
            a[k, j] = 1j
            gens.append(s)
            gens.append(a)
    for ell in range(1, n):
        d = np.zeros((n, n), dtype=complex)
        coeff = np.sqrt(2.0 / (ell * (ell + 1)))
        for i in range(ell):
            d[i, i] = coeff
        d[ell, ell] = -ell * coeff
        gens.append(d)
    return np.array(gens).reshape(max(n * n - 1, 0), n, n)


@dataclass(frozen=True)
class GeneratorSet:
    """A Hermitian basis of the Lie algebra u(N) (or su(N))."""

    dim: int
    gens: np.ndarray  # (count, N, N)

    def __post_init__(self):
        gens = np.asarray(self.gens, dtype=complex)
        object.__setattr__(self, "gens", gens)
        if gens.ndim != 3 or gens.shape[1:] != (self.dim, self.dim):
            raise DimensionError(f"generator array shape {gens.shape} does not match dim {self.dim}")
        herm = np.max(np.abs(gens - np.swapaxes(gens.conj(), -1, -2)))
        if herm > 1e-13:
            raise ValueError(f"generators not Hermitian (defect {herm:.2e})")
        # Hilbert-Schmidt Gram matrix must be nonsingular (linear independence).
        flat = gens.reshape(len(gens), -1)
        gram = (flat.conj() @ flat.T).real
        if np.linalg.matrix_rank(gram, tol=1e-10) != len(gens):
            raise ValueError("generators are linearly dependent")

    def __len__(self) -> int:
        return len(self.gens)

    def assemble(self, coords: np.ndarray) -> np.ndarray:
        """Sum_k coords[..., k] * gens[k], a Hermitian matrix per leading index."""
        coords = np.asarray(coords, dtype=float)
        if coords.shape[-1] != len(self.gens):
            raise DimensionError(f"expected {len(self.gens)} coordinates, got {coords.shape[-1]}")
        return np.einsum("...k,kij->...ij", coords, self.gens)


def generators_u(n: int) -> GeneratorSet:
    """N^2 generators of u(N): the identity (U(1) direction) plus the
    generalized Gell-Mann matrices divided by two."""
    if n < 1:
        raise DimensionError(f"dimension must be >= 1, got {n}")
    gens = [np.eye(n, dtype=complex)]
    gens.extend(0.5 * g for g in gell_mann(n))
    return GeneratorSet(n, np.array(gens))


def generators_su(n: int) -> GeneratorSet:
    """The N^2 - 1 traceless generators only (Gell-Mann / 2)."""
    if n < 2:
        raise DimensionError(f"su(N) needs N >= 2, got {n}")
    return GeneratorSet(n, 0.5 * gell_mann(n))


def exp_map(coords: np.ndarray, gens: GeneratorSet) -> np.ndarray:
    """exp(i sum_k X^k tau_k) via eigendecomposition of the Hermitian argument,
    so the result is unitary up to rounding.  Supports batched coords."""
    coords = np.asarray(coords, dtype=float)
    if not np.all(np.isfinite(coords)):
        raise ValueError("non-finite coordinates")
    h = gens.assemble(coords)
    w, v = np.linalg.eigh(h)
    phases = np.exp(1j * w)
    return np.einsum("...ik,...k,...jk->...ij", v, phases, v.conj())


@dataclass(frozen=True)
class FactorResult:
    """U(1) x SU(N) split M = delta * special, principal branch.  For a stack
    of matrices, delta and branch_discontinuous are arrays over the stack."""

    delta: complex | np.ndarray
    special: np.ndarray
    branch_discontinuous: bool | np.ndarray  # det M at (or numerically near) -1


def factorize(m: np.ndarray, tol: float = INPUT_TOL) -> FactorResult:
    """Split a unitary M, or each matrix of a stack (..., N, N), into a U(1)
    phase delta = exp(i alpha / N), with alpha the principal argument of
    det M in (-pi, pi], and an SU(N) part M / delta."""
    m = np.asarray(m, dtype=complex)
    defect = unitarity_defect(m)
    if defect > tol:
        raise UnitarityError(f"input not unitary (defect {defect:.2e} > {tol:.1e})")
    alpha = np.angle(np.linalg.det(m))
    # np.angle may return -pi; the principal interval is (-pi, pi]
    alpha = np.where(alpha <= -np.pi, np.pi, alpha)
    branch = np.pi - np.abs(alpha) < 1e-9
    delta = np.exp(1j * alpha / m.shape[-1])
    if m.ndim == 2:
        return FactorResult(complex(delta), m / delta, bool(branch))
    return FactorResult(delta, m / delta[..., None, None], branch)


def su2_closed_form(v: np.ndarray) -> np.ndarray:
    """exp(i v . sigma / 2) = cos(|v|/2) 1 + i sin(|v|/2) vhat . sigma."""
    v = np.asarray(v, dtype=float)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        return np.eye(2, dtype=complex)
    vhat = v / norm
    sigma_v = vhat[0] * SIGMA_1 + vhat[1] * SIGMA_2 + vhat[2] * SIGMA_3
    return np.cos(norm / 2) * np.eye(2) + 1j * np.sin(norm / 2) * sigma_v


def random_unitary(n: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Random element of U(N) from Gaussian Lie-algebra coordinates."""
    gens = generators_u(n)
    return exp_map(scale * rng.standard_normal(len(gens)), gens)
