"""Spacetime-lattice gauge fields, gauge transformations, and the discrete
curvature built from the holonomy-like products U and V."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .unitary import (
    CONSTRUCTION_TOL,
    DimensionError,
    GeneratorSet,
    exp_map,
    factorize,
    unitarity_defect,
)


class SiteRangeError(IndexError):
    pass


# Time slices each field or transformation keeps built: a curvature needs
# three neighbouring slices, a transformed curvature four slices of G.
SLICE_CACHE = 4


@dataclass(frozen=True)
class LatticeSpec:
    """Spacetime lattice: sites p = -p_max .. p_max at x_p = p*eps, time
    indices j = 0 .. j_max at t_j = j*eps.  Space is periodic in p."""

    epsilon: float
    p_max: int
    j_max: int

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.p_max < 2 or self.j_max < 2:
            raise ValueError("p_max and j_max must be >= 2")

    @property
    def n_sites(self) -> int:
        return 2 * self.p_max + 1

    def positions(self) -> np.ndarray:
        return self.epsilon * np.arange(-self.p_max, self.p_max + 1)

    def time(self, j: int) -> float:
        return j * self.epsilon

    def site_index(self, p: int) -> int:
        """Array index for lattice label p, with periodic wrap."""
        return (p + self.p_max) % self.n_sites


def _check_time_index(spec: LatticeSpec, j: int, lo: int = 0) -> None:
    if not lo <= j <= spec.j_max:
        raise SiteRangeError(f"time index {j} outside [{lo}, {spec.j_max}]")


def _validate_slice(arr: np.ndarray, spec: LatticeSpec, dim: int, j: int, what: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=complex)
    if arr.shape != (spec.n_sites, dim, dim):
        raise DimensionError(f"{what} slice j={j} has shape {arr.shape}, expected {(spec.n_sites, dim, dim)}")
    # a slice uniform in x is one matrix viewed at every site: check it once
    distinct = arr[:1] if arr.strides[0] == 0 else arr
    if not np.all(np.isfinite(distinct)):
        bad = np.argwhere(~np.isfinite(distinct))[0]
        raise ValueError(f"non-finite {what} entry at j={j}, p={int(bad[0]) - spec.p_max}")
    defect = unitarity_defect(distinct)
    if defect > CONSTRUCTION_TOL:
        raise ValueError(f"{what} slice j={j} not unitary (defect {defect:.2e})")
    arr.setflags(write=False)
    return arr


class GaugeField:
    """The discrete gauge potential R = (P, Q): one U(N) matrix pair per
    spacetime site.  slice_fn(j) gives (P_j, Q_j), each (n_sites, N, N); a
    slice uniform in x is one matrix broadcast to that shape (stride 0 over
    sites) and is validated once, not per site.  Built slices are read-only;
    each instance memoises its last SLICE_CACHE and rebuilds evicted ones."""

    def __init__(self, spec: LatticeSpec, dim: int, slice_fn):
        self.spec = spec
        self.dim = dim
        self._slices = functools.lru_cache(SLICE_CACHE)(
            lambda j: tuple(_validate_slice(a, spec, dim, j, w) for a, w in zip(slice_fn(j), ("P", "Q")))
        )

    @classmethod
    def identity(cls, spec: LatticeSpec, dim: int) -> "GaugeField":
        eye = np.broadcast_to(np.eye(dim, dtype=complex), (spec.n_sites, dim, dim))
        return cls(spec, dim, lambda j: (eye, eye))

    @classmethod
    def from_potentials(cls, b_p, b_q, spec: LatticeSpec, gens: GeneratorSet) -> "GaugeField":
        """P_{j,p} = exp_map(eps * b_P(t_j, x_p)), likewise Q.  The coordinate
        functions take (t, x-array) and return (n_sites, count) or (count,)."""

        x = spec.positions()
        shape = (spec.n_sites, gens.dim, gens.dim)

        def sample(fn, t):
            coords = np.asarray(fn(t, x), dtype=float)
            if coords.shape[:-1] not in ((), (spec.n_sites,)):
                raise DimensionError(f"potential sample at t={t} has shape {coords.shape}")
            if not np.all(np.isfinite(coords)):
                bad = np.argwhere(~np.isfinite(coords))[0]
                raise ValueError(f"non-finite potential sample at t={t}"
                                 + (f", x={x[bad[0]]}" if coords.ndim == 2 else ""))
            return np.broadcast_to(exp_map(spec.epsilon * coords, gens), shape)

        return cls(spec, gens.dim, lambda j: (sample(b_p, spec.time(j)), sample(b_q, spec.time(j))))

    @classmethod
    def from_arrays(cls, spec: LatticeSpec, p_arr: np.ndarray, q_arr: np.ndarray) -> "GaugeField":
        p_arr = np.asarray(p_arr, dtype=complex)
        q_arr = np.asarray(q_arr, dtype=complex)
        return cls(spec, p_arr.shape[-1], lambda j: (p_arr[j], q_arr[j]))

    @classmethod
    def random(cls, spec: LatticeSpec, dim: int, seed: int, scale: float = 1.0) -> "GaugeField":
        """Random field, deterministic per (seed, j) so slices can be dropped
        and rebuilt identically."""
        from .unitary import generators_u

        gens = generators_u(dim)

        def build(j):
            rng = np.random.default_rng(np.random.SeedSequence([seed, j]))
            coords = scale * rng.standard_normal((2, spec.n_sites, len(gens)))
            return exp_map(coords[0], gens), exp_map(coords[1], gens)

        return cls(spec, dim, build)

    def P(self, j: int) -> np.ndarray:
        _check_time_index(self.spec, j)
        return self._slices(j)[0]

    def Q(self, j: int) -> np.ndarray:
        _check_time_index(self.spec, j)
        return self._slices(j)[1]

    def at(self, j: int, p: int) -> tuple[np.ndarray, np.ndarray]:
        i = self.spec.site_index(p)
        return self.P(j)[i], self.Q(j)[i]


class GaugeTransformation:
    """A lattice of U(N) matrices G_{j,p}."""

    def __init__(self, spec: LatticeSpec, dim: int, slice_fn):
        self.spec = spec
        self.dim = dim
        self._slices = functools.lru_cache(SLICE_CACHE)(lambda j: _validate_slice(slice_fn(j), spec, dim, j, "G"))

    @classmethod
    def identity(cls, spec: LatticeSpec, dim: int) -> "GaugeTransformation":
        eye = np.broadcast_to(np.eye(dim, dtype=complex), (spec.n_sites, dim, dim))
        return cls(spec, dim, lambda j: eye)

    @classmethod
    def random(cls, spec: LatticeSpec, dim: int, seed: int, scale: float = 1.0) -> "GaugeTransformation":
        from .unitary import generators_u

        gens = generators_u(dim)

        def build(j):
            rng = np.random.default_rng(np.random.SeedSequence([seed, 7, j]))
            return exp_map(scale * rng.standard_normal((spec.n_sites, len(gens))), gens)

        return cls(spec, dim, build)

    def G(self, j: int) -> np.ndarray:
        # transforming slice j_max of a field needs G on slice j_max + 1
        if not 0 <= j <= self.spec.j_max + 1:
            raise SiteRangeError(f"time index {j} outside [0, {self.spec.j_max + 1}]")
        return self._slices(j)

    def at(self, j: int, p: int) -> np.ndarray:
        return self.G(j)[self.spec.site_index(p)]

    def inverse(self) -> "GaugeTransformation":
        return GaugeTransformation(self.spec, self.dim, lambda j: np.swapaxes(self.G(j).conj(), -1, -2))


def _dagger(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a.conj(), -1, -2)


def transform_potentials(field_: GaugeField, g: GaugeTransformation) -> GaugeField:
    """P' = G_{j+1,p} P G^-1_{j,p+1},  Q' = G_{j+1,p} Q G^-1_{j,p-1}."""
    if field_.spec != g.spec or field_.dim != g.dim:
        raise DimensionError("gauge transformation does not match field")

    def build(j):
        g_up = g.G(j + 1)
        g_here = g.G(j)
        # index i holds p = i - p_max; p+1 lives at index i+1
        p_new = g_up @ field_.P(j) @ _dagger(np.roll(g_here, -1, axis=0))
        q_new = g_up @ field_.Q(j) @ _dagger(np.roll(g_here, 1, axis=0))
        return p_new, q_new

    return GaugeField(field_.spec, field_.dim, build)


def holonomy_u_slice(field_: GaugeField, j: int) -> np.ndarray:
    """U_{j,p} = Q†_{j,p} P_{j,p} for every p on slice j."""
    return _dagger(field_.Q(j)) @ field_.P(j)


def holonomy_v_slice(field_: GaugeField, j: int) -> np.ndarray:
    """V_{j,p} = Q_{j,p} P_{j-1,p-1} for every p on slice j (needs slice j-1)."""
    if j < 1:
        raise SiteRangeError("V needs slice j-1; j must be >= 1")
    return field_.Q(j) @ np.roll(field_.P(j - 1), 1, axis=0)


def holonomy_u(field_: GaugeField, j: int, p: int) -> np.ndarray:
    return holonomy_u_slice(field_, j)[field_.spec.site_index(p)]


def holonomy_v(field_: GaugeField, j: int, p: int) -> np.ndarray:
    return holonomy_v_slice(field_, j)[field_.spec.site_index(p)]


@dataclass(frozen=True)
class CurvatureSample:
    site: tuple[int, int]
    value: np.ndarray = field(repr=False)


def curvature_slice(field_: GaugeField, j: int) -> np.ndarray:
    """F_{j,p} = U†_{j-1,p} V†_{j,p-1} U_{j+1,p} V_{j,p+1} for every p."""
    if not 1 <= j <= field_.spec.j_max - 1:
        raise SiteRangeError(f"curvature needs slices j-1..j+1; j={j} out of range")
    u_prev = holonomy_u_slice(field_, j - 1)
    u_next = holonomy_u_slice(field_, j + 1)
    v_here = holonomy_v_slice(field_, j)
    v_left = np.roll(v_here, 1, axis=0)   # V_{j,p-1} at index of p
    v_right = np.roll(v_here, -1, axis=0)  # V_{j,p+1}
    return _dagger(u_prev) @ _dagger(v_left) @ u_next @ v_right


def discrete_curvature(field_: GaugeField, j: int, p: int) -> CurvatureSample:
    return CurvatureSample((j, p), curvature_slice(field_, j)[field_.spec.site_index(p)])


def curvature_gauge_conjugator(g: GaugeTransformation, j: int, p: int) -> np.ndarray:
    """The matrix G_{j-1,p+1} conjugating the curvature under a gauge change:
    F'_{j,p} = G_{j-1,p+1} F_{j,p} G^-1_{j-1,p+1}."""
    if j < 1:
        raise SiteRangeError("conjugator needs slice j-1")
    return g.at(j - 1, p + 1)


def continuous_curvature(b0, b1, gens: GeneratorSet, t: float, x: float, h: float = 1e-5,
                         db0=None, db1=None) -> np.ndarray:
    """F_10 = d_1 B_0 - d_0 B_1 - i [B_1, B_0] with B_mu = sum_k b^k_mu tau_k.
    Derivatives are central differences of step h unless analytic derivative
    callables (db0, db1) -> (d/dt, d/dx) coordinate pairs are supplied."""
    if h <= 0:
        raise ValueError("h must be positive")

    def mat(fn, tt, xx):
        return gens.assemble(np.asarray(fn(tt, xx), dtype=float))

    if db0 is not None and db1 is not None:
        d1_b0 = gens.assemble(np.asarray(db0(t, x)[1], dtype=float))
        d0_b1 = gens.assemble(np.asarray(db1(t, x)[0], dtype=float))
    else:
        d1_b0 = (mat(b0, t, x + h) - mat(b0, t, x - h)) / (2 * h)
        d0_b1 = (mat(b1, t + h, x) - mat(b1, t - h, x)) / (2 * h)
    b1m = mat(b1, t, x)
    b0m = mat(b0, t, x)
    out = d1_b0 - d0_b1 - 1j * (b1m @ b0m - b0m @ b1m)
    if not np.all(np.isfinite(out)):
        raise ValueError("non-finite curvature sample")
    return out


@dataclass(frozen=True)
class AbelianPotential:
    """Real phase lattices Y0, Y1 of shape (j_max+1, n_sites)."""

    spec: LatticeSpec
    Y0: np.ndarray
    Y1: np.ndarray

    def __post_init__(self):
        shape = (self.spec.j_max + 1, self.spec.n_sites)
        for name in ("Y0", "Y1"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != shape:
                raise DimensionError(f"{name} has shape {arr.shape}, expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite entries in {name}")
            object.__setattr__(self, name, arr)


def abelian_field(y: AbelianPotential) -> GaugeField:
    """The N=1 gauge field (P, Q) = (e^{i Y_P}, e^{i Y_Q}) with Y_P = Y0 - Y1,
    Y_Q = Y0 + Y1."""
    p_arr = np.exp(1j * (y.Y0 - y.Y1))[..., None, None]
    q_arr = np.exp(1j * (y.Y0 + y.Y1))[..., None, None]
    return GaugeField.from_arrays(y.spec, p_arr, q_arr)


def _f10_at(y: AbelianPotential, j: int, i: int) -> float:
    """f10 = d1 Y0 - d0 Y1 at time index j, array index i, with
    d0 = L0 - Sigma_1 and d1 = Delta_1 (central difference)."""
    n = y.spec.n_sites
    ip, im = (i + 1) % n, (i - 1) % n
    d1_y0 = (y.Y0[j, ip] - y.Y0[j, im]) / 2
    d0_y1 = y.Y1[j + 1, i] - (y.Y1[j, ip] + y.Y1[j, im]) / 2
    return d1_y0 - d0_y1


def abelian_discrete_curvature(y: AbelianPotential, j: int, p: int) -> tuple[float, complex]:
    """Returns (f10 at (j,p), the U(1) curvature phase exp[2i (I f10)_{j,p}])
    with the smoothing operator I = 1 + L0^-1 L1^-1."""
    if not 1 <= j <= y.spec.j_max - 1:
        raise SiteRangeError(f"abelian curvature needs 1 <= j <= j_max-1, got {j}")
    i = y.spec.site_index(p)
    f_here = _f10_at(y, j, i)
    f_back = _f10_at(y, j - 1, (i - 1) % y.spec.n_sites)
    return f_here, complex(np.exp(2j * (f_here + f_back)))


def curvature_factorization_check(field_: GaugeField, j: int, p: int) -> tuple[float, bool]:
    """Residual of F(R) = F(delta_R) F(Rbar) at one site, where every P, Q is
    split into its U(1) phase and SU(N) part.  Also reports whether any
    factorization sat on the det = -1 branch cut."""
    f_full = discrete_curvature(field_, j, p).value
    # slices j-1, j, j+1 of (P, Q) become slices 0, 1, 2 of a three-slice window
    split = factorize(np.array([(field_.P(k), field_.Q(k)) for k in (j - 1, j, j + 1)]))
    window = LatticeSpec(field_.spec.epsilon, field_.spec.p_max, 2)
    f_delta, f_bar = (discrete_curvature(GaugeField.from_arrays(window, part[:, 0], part[:, 1]), 1, p).value
                      for part in (split.delta[..., None, None], split.special))
    residual = float(np.max(np.abs(f_full - complex(f_delta[0, 0]) * f_bar)))
    return residual, bool(np.any(split.branch_discontinuous))
