"""U(N)/SU(N) matrix algebra: generator bases, exponential map, factorization."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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


def stack_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for stacks of small matrices, as N broadcast products summed in place."""
    out = a[..., :, :1] * b[..., :1, :]
    for k in range(1, a.shape[-1]):
        out += a[..., :, k:k + 1] * b[..., k:k + 1, :]
    return out


def gram_residual(m: np.ndarray) -> np.ndarray:
    """M†M - 1 for M or each matrix of a stack; NaN or inf, silently, for a non-finite M."""
    m = np.asarray(m)
    with np.errstate(invalid="ignore"):  # inf * 0 and inf - inf
        gram = stack_matmul(m.conj().mT, m)
    gram.reshape(*gram.shape[:-2], -1)[..., :: m.shape[-1] + 1] -= 1  # every diagonal, one strided view
    return gram


def unitarity_defect(m: np.ndarray) -> float:
    """Max-norm of M†M - 1 (gram_residual) over M or a stack; NaN or inf, silently, for a non-finite M."""
    return float(np.abs(gram_residual(m)).max())


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
        # (count, 2 N^2) reals: row k is gens[k] with real and imaginary
        # parts interleaved, so real coordinates assemble by one real matmul
        object.__setattr__(self, "_flat", np.ascontiguousarray(flat).view(float))

    def __len__(self) -> int:
        return len(self.gens)

    @cached_property
    def _exp3_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """exp3.exp_3x3's tables for these generators (N = 3), made on first use."""
        from .exp3 import tables

        return tables(self.gens)

    def assemble(self, coords: np.ndarray) -> np.ndarray:
        """Sum_k coords[..., k] * gens[k], a Hermitian matrix per leading index."""
        coords = np.asarray(coords, dtype=float)
        if coords.shape[-1] != len(self.gens):
            raise DimensionError(f"expected {len(self.gens)} coordinates, got {coords.shape[-1]}")
        return (coords @ self._flat).view(complex).reshape(coords.shape[:-1] + (self.dim, self.dim))


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


def _exp_2x2(h: np.ndarray) -> np.ndarray:
    """exp(iH) for a stack of Hermitian 2x2 H.  With H = a0 1 + K, a0 = tr H / 2
    and K traceless, K^2 = r^2 1 where r^2 = ((h00 - h11) / 2)^2 + |h01|^2, so
    exp(iH) = e^{i a0} (cos r 1 + i (sin r / r) K)."""
    h00, h11, h01 = h[..., 0, 0].real, h[..., 1, 1].real, h[..., 0, 1]
    d = 0.5 * (h00 - h11)
    r = np.hypot(d, np.abs(h01))
    phase = np.exp(0.5j * (h00 + h11))
    cos = phase * np.cos(r)
    # np.sinc(x) = sin(pi x) / (pi x), exactly 1 at r = 0
    isin = 1j * phase * np.sinc(r / np.pi)
    out = np.empty(h.shape, dtype=complex)
    out[..., 0, 0] = cos + isin * d
    out[..., 1, 1] = cos - isin * d
    out[..., 0, 1] = isin * h01
    out[..., 1, 0] = np.multiply(isin, h01.conj())  # no elision, so no reordering at large batch
    return out


def exp_map(coords: np.ndarray, gens: GeneratorSet) -> np.ndarray:
    """exp(i sum_k X^k tau_k) of the Hermitian argument H, unitary up to
    rounding.  Closed forms for N <= 3: the phase e^{iH} for N = 1,
    e^{i a0} (cos r 1 + i (sin r / r) K) for N = 2 (see _exp_2x2) and the
    Cayley-Hamilton form for N = 3 (see exp3.exp_3x3), each one code path for
    every batch size; N >= 4 goes through the eigendecomposition of H.
    Supports batched coords."""
    coords = np.asarray(coords, dtype=float)
    if not np.isfinite(coords).all():
        raise ValueError("non-finite coordinates")
    if gens.dim == 3:
        from .exp3 import exp_3x3  # loaded on first use, see exp3

        return exp_3x3(coords, gens)
    h = gens.assemble(coords)
    if gens.dim == 1:
        return np.exp(1j * h)
    if gens.dim == 2:
        return _exp_2x2(h)
    w, v = np.linalg.eigh(h)
    # V diag(e^{iw}) V†: scale the columns of V, then one matmul
    return (v * np.exp(1j * w)[..., None, :]) @ v.conj().mT


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
    if not defect <= tol:  # NaN, from a non-finite entry, fails too
        raise UnitarityError(f"input not unitary (defect {defect:.2e} > {tol:.1e})")
    alpha = np.angle(np.linalg.det(m))
    # np.angle may return -pi; the principal interval is (-pi, pi]
    alpha = np.where(alpha <= -np.pi, np.pi, alpha)
    branch = np.pi - np.abs(alpha) < 1e-9
    delta = np.exp(1j * alpha / m.shape[-1])
    if m.ndim == 2:
        return FactorResult(complex(delta), m / delta, bool(branch))
    return FactorResult(delta, m / delta[..., None, None], branch)
