"""Spacetime-lattice gauge fields, gauge transformations, and the discrete
curvature built from the holonomy-like products U and V."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .unitary import (
    CONSTRUCTION_TOL,
    DimensionError,
    GeneratorSet,
    UnitarityError,
    exp_map,
    factorize,
    generators_u,
    gram_residual,
    stack_matmul,
    unitarity_defect,
)


class SiteRangeError(IndexError):
    pass


# Time slices each field or transformation keeps, the last ones built:
# enough for the whole check lattice of gauge_check_residuals (53 field
# slices, 54 of G), so its random-j curvature samples never rebuild a slice.
# A slice uniform in x is one matrix, so the memo costs memory only for
# per-site slices.
SLICE_CACHE = 64
# Slices walker.walk asks a field for at once, P(j, RUN), before RUN steps.
RUN = 32


@dataclass(frozen=True)
class LatticeSpec:
    """Spacetime lattice: sites p = -p_max .. p_max at x_p = p*eps, time
    indices j = 0 .. j_max at t_j = j*eps.  Space is periodic in p."""

    epsilon: float
    p_max: int
    j_max: int

    def __post_init__(self):
        if not 0 < self.epsilon < np.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon!r}")
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


def uniform_in_x(arr: np.ndarray) -> bool:
    """Whether a slice of shape (n_sites, N, N), or a stack of them such as
    GaugeField.R's (2, n_sites, N, N), is uniform in x: one matrix (per
    member) broadcast to every site, with stride 0 over sites."""
    return arr.strides[-3] == 0


def _check_links(links: np.ndarray, spec: LatticeSpec, j: int, kinds: str) -> None:
    """One unitarity check per kind of links[l, k, s], kind kinds[k] ("P",
    "Q" or "G") on slice j + l at site s (s = 0 only for a run uniform in
    x).  A failure names the first bad slice and kind, in stepping order."""
    # a non-finite entry makes the defect NaN or inf, which fails this test
    if all(unitarity_defect(links[:, k]) <= CONSTRUCTION_TOL for k in range(len(kinds))):
        return
    per_link = np.abs(gram_residual(links)).max(axis=(-3, -2, -1))
    l, k = np.argwhere(~(per_link <= CONSTRUCTION_TOL))[0]
    finite = np.isfinite(links[l, k]).all(axis=(-2, -1))
    if not finite.all():
        raise UnitarityError(f"non-finite {kinds[k]} entry at j={j + l}, p={np.argmin(finite) - spec.p_max}")
    raise UnitarityError(f"{kinds[k]} slice j={j + l} not unitary (defect {per_link[l, k]:.2e})")


def sample_potentials(b0, b1, t: float, x: np.ndarray, count: int,
                      uniform: bool | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(b0, b1)(t, x) as real coordinates in a basis of `count` generators,
    of one kind: uniform in x, both samples (count,), or per point,
    (len(x), count) with a uniform member broadcast (read-only) to it.
    `uniform` fixes the kind, as the caller's t = 0 sample did; None takes
    this sample's.  A shape outside the kind is one DimensionError naming t
    and both shapes; a nonzero imaginary part or a non-finite entry is
    refused too."""
    a, b = b0(t, x), b1(t, x)
    # the common sample, two finite float (count,) arrays, in one test; any other takes the checks below
    if (uniform is not False and type(a) is type(b) is np.ndarray and a.dtype == b.dtype == float
            and a.shape == b.shape == (count,) and np.count_nonzero(np.isfinite((a, b))) == 2 * count):
        return a, b
    samples = np.asarray(a), np.asarray(b)
    shapes = samples[0].shape, samples[1].shape
    if uniform is None:
        uniform = shapes == ((count,), (count,))
    pair = []
    for coords in samples:
        if coords.shape != (count,) and (uniform or coords.shape != (len(x), count)):
            want = f"{(count,)}, as the pair is uniform in x" if uniform else f"{(count,)} or {(len(x), count)}"
            raise DimensionError(f"potential sample at t={t:.6g} has shapes {shapes[0]} and {shapes[1]}: "
                                 f"each must be {want}")
        if np.iscomplexobj(coords) and np.any(coords.imag != 0):
            raise ValueError(f"potential sample at t={t:.6g} has a nonzero imaginary part")
        coords = np.asarray(coords.real, dtype=float)
        if not np.isfinite(coords).all():
            bad = np.argwhere(~np.isfinite(coords))[0]
            raise ValueError(f"non-finite potential sample at t={t:.6g}"
                             + (f", x={x[bad[0]]}" if coords.ndim == 2 else ""))
        pair.append(coords)
    c0, c1 = pair
    if not uniform and min(c0.ndim, c1.ndim) == 1:
        c0, c1 = (np.broadcast_to(c, (len(x), count)) for c in (c0, c1))
    return c0, c1


def _random_run(spec: LatticeSpec, dim: int, seed: int, tag: int, scale: float, kinds: int):
    """(j, count) -> exp_map(scale * z) for slices j .. j + count - 1, with z
    standard normal u(N) coordinates of shape (count, kinds, n_sites, N^2).
    The draws come from one Philox stream keyed by SeedSequence([seed, tag]);
    slice j sets its counter to (0, j, 0, 0), so a slice is the same on every
    rebuild, in any build order and at any offset in a run, and no two
    slices share a stream."""
    gens = generators_u(dim)
    shape = (kinds, spec.n_sites, len(gens))
    bitgen = np.random.Philox(np.random.SeedSequence([seed, tag]))
    rng = np.random.Generator(bitgen)
    # a fresh state has an empty output buffer, so the counter alone decides the draws
    state = bitgen.state
    counter = state["state"]["counter"]

    def run(j, count):
        z = np.empty((count,) + shape)
        for l in range(count):
            counter[1] = j + l
            bitgen.state = state
            rng.standard_normal(out=z[l])
        z *= scale
        return exp_map(z, gens)

    return run


def _memo(spec: LatticeSpec, run, kinds: str, hi: int):
    """request(j, ahead): slice j, j in [0, hi], as one read-only
    (n_sites, N, N) array per kind, then their kind-major stack (kinds,
    n_sites, N, N), all views of the run's links.  A hit is one dict lookup;
    a miss builds the run run(j, ahead), clipped at hi, checks it and keeps
    its slices: the memo holds the last SLICE_CACHE slices built."""
    memo = {}

    def request(j, ahead):
        if ahead < 1:
            raise ValueError(f"ahead must be >= 1, got {ahead}")
        slices = memo.get(j)
        if slices is not None:
            return slices
        if not 0 <= j <= hi:
            raise SiteRangeError(f"time index {j} outside [0, {hi}]")
        links = run(j, min(ahead, hi + 1 - j))
        _check_links(links, spec, j, kinds)
        # a run uniform in x has one site: each slice is a stride-0 view of it
        links = np.broadcast_to(links, links.shape[:2] + (spec.n_sites,) + links.shape[3:])
        built = [(*s, s) for s in links]
        for k, slices in enumerate(built, j):
            memo.pop(k, None)  # a rebuilt slice counts as the newest
            memo[k] = slices
        while len(memo) > SLICE_CACHE:
            del memo[next(iter(memo))]
        return built[0]

    return request


class GaugeField:
    """The discrete gauge potential R = (P, Q): one U(N) matrix pair per
    spacetime site.  run(j, count) builds slices j .. j + count - 1 as links
    of shape (count, 2, n_sites or 1, N, N), P then Q, one site for a run
    uniform in x; each run gets one unitarity check per kind.  P(j, ahead),
    Q(j, ahead) and R(j, ahead), the pair as one (2, n_sites, N, N) array
    with R[0] = P and R[1] = Q, are read-only views of the run's links,
    stride 0 over sites when uniform, and the same objects on every hit; a
    request that misses builds a run of `ahead` slices from j (see _memo)."""

    def __init__(self, spec: LatticeSpec, dim: int, run):
        self.spec = spec
        self.dim = dim
        self._request = _memo(spec, run, "PQ", spec.j_max)

    @classmethod
    def identity(cls, spec: LatticeSpec, dim: int) -> "GaugeField":
        eye = np.eye(dim, dtype=complex)
        return cls(spec, dim, lambda j, count: np.broadcast_to(eye, (count, 2, 1, dim, dim)))

    @classmethod
    def from_potentials(cls, b0, b1, spec: LatticeSpec, gens: GeneratorSet) -> "GaugeField":
        """The links of the continuum potential B_mu = sum_k b_mu^k tau_k:
        P_{j,p} = exp_map(eps * (b0 - b1)(t_j, x_p)), Q_{j,p} = exp_map(eps *
        (b0 + b1)(t_j, x_p)).  b0 and b1 are coordinate functions of
        (t, x-array), read by sample_potentials.

        The t = 0 sample, taken here, fixes the pair's kind (uniform in x or
        per site, see sample_potentials), so a pair bad at t = 0 fails before
        any link is built; slice 0's run uses it.  A run samples slice j
        first, so its errors name t_j, then the next slices up to its count
        or j_max; a later sample that raises ends the run, and its slice
        raises when requested."""
        x = spec.positions()
        first = sample_potentials(b0, b1, 0.0, x, len(gens))
        uniform = first[0].ndim == 1

        def run(j, count):
            pairs = [first if j == 0 else sample_potentials(b0, b1, spec.time(j), x, len(gens), uniform)]
            for k in range(j + 1, min(j + count, spec.j_max + 1)):
                try:
                    pairs.append(sample_potentials(b0, b1, spec.time(k), x, len(gens), uniform))
                except Exception:  # the run ends; slice k's own request raises it
                    break
            c = np.array(pairs)  # (run, 2, count) or (run, 2, n_sites, count)
            # (b0 - b1, b0 + b1) per slice of the run
            coords = np.stack((c[:, 0] - c[:, 1], c[:, 0] + c[:, 1]), 1) * spec.epsilon
            # (run, 2, 1, N, N) or (run, 2, n_sites, N, N): the distinct links
            return exp_map(coords, gens).reshape(len(pairs), 2, -1, gens.dim, gens.dim)

        return cls(spec, gens.dim, run)

    @classmethod
    def from_arrays(cls, spec: LatticeSpec, p_arr: np.ndarray, q_arr: np.ndarray) -> "GaugeField":
        """P and Q given as arrays of shape (j_max + 1, n_sites, N, N).  When
        both are broadcast over sites (stride 0), each slice is uniform in x."""
        p_arr = np.asarray(p_arr, dtype=complex)
        q_arr = np.asarray(q_arr, dtype=complex)
        dim = p_arr.shape[-1]
        want = (spec.j_max + 1, spec.n_sites, dim, dim)
        if p_arr.shape != want or q_arr.shape != want:
            raise DimensionError(f"P and Q arrays have shapes {p_arr.shape} and {q_arr.shape}, expected {want}")
        sites = slice(1) if p_arr.strides[1] == q_arr.strides[1] == 0 else slice(None)
        return cls(spec, dim, lambda j, count: np.stack((p_arr[j:j + count, sites], q_arr[j:j + count, sites]), 1))

    @classmethod
    def random(cls, spec: LatticeSpec, dim: int, seed: int, scale: float = 1.0) -> "GaugeField":
        """Random field: slice j is (P, Q) = exp_map of Gaussian u(N)
        coordinates drawn from the counter-based stream of _random_run
        (tag 0), deterministic per (seed, j), so slices can be dropped and
        rebuilt identically, in any order and in runs of any length."""
        return cls(spec, dim, _random_run(spec, dim, seed, 0, scale, 2))

    def P(self, j: int, ahead: int = 1) -> np.ndarray:
        return self._request(j, ahead)[0]

    def Q(self, j: int, ahead: int = 1) -> np.ndarray:
        return self._request(j, ahead)[1]

    def R(self, j: int, ahead: int = 1) -> np.ndarray:
        return self._request(j, ahead)[2]


class GaugeTransformation:
    """A lattice of U(N) matrices G_{j,p}, j = 0 .. j_max + 1.  run(j, count)
    gives slices j .. j + count - 1 of shape (count, 1, n_sites or 1, N, N),
    built and memoised as GaugeField's are: G(j, ahead) that misses builds a
    run of `ahead` slices from j, clipped at j_max + 1."""

    def __init__(self, spec: LatticeSpec, dim: int, run):
        self.spec = spec
        self.dim = dim
        # transforming slice j_max of a field needs G on slice j_max + 1
        self._request = _memo(spec, run, "G", spec.j_max + 1)

    @classmethod
    def random(cls, spec: LatticeSpec, dim: int, seed: int, scale: float = 1.0) -> "GaugeTransformation":
        """Random transformation: G_j = exp_map of Gaussian u(N) coordinates
        from the counter-based stream of _random_run (tag 7), deterministic
        per (seed, j) and distinct from the field drawn with the same seed."""
        return cls(spec, dim, _random_run(spec, dim, seed, 7, scale, 1))

    def G(self, j: int, ahead: int = 1) -> np.ndarray:
        return self._request(j, ahead)[0]


@cache
def _neighbours(n_sites: int) -> np.ndarray:
    """Read-only (right, left): at the index of site p, those of p + 1 and p - 1, periodic."""
    pair = (np.arange(n_sites) + np.array([[1], [-1]])) % n_sites
    pair.flags.writeable = False
    return pair


def transform_potentials(field_: GaugeField, g: GaugeTransformation) -> GaugeField:
    """P' = G_{j+1,p} P G^-1_{j,p+1},  Q' = G_{j+1,p} Q G^-1_{j,p-1}.  A run
    of slices j .. j + count - 1 reads each G once, in ascending j: G slices
    j .. j + count - 1 as one run, G(j + count) as a request of its own; its
    first request of the field builds the field's slices as one run."""
    if field_.spec != g.spec or field_.dim != g.dim:
        raise DimensionError("gauge transformation does not match field")

    right, left = _neighbours(field_.spec.n_sites)

    def run(j, count):
        js = range(j, j + count)
        gs = np.array([g.G(k, max(1, j + count - k)) for k in range(j, j + count + 1)])
        g_up, g_inv = gs[1:], gs[:-1].conj().mT
        p, q = np.array([field_.P(k, j + count - k) for k in js]), np.array([field_.Q(k) for k in js])
        return np.stack([stack_matmul(stack_matmul(g_up, a), g_inv[:, s]) for a, s in ((p, right), (q, left))], 1)

    return GaugeField(field_.spec, field_.dim, run)


def holonomy_u(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """U_{j,p} = Q†_{j,p} P_{j,p} at every site, from slice j's P and Q."""
    return q.conj().mT @ p


def holonomy_v(q: np.ndarray, p_prev: np.ndarray) -> np.ndarray:
    """V_{j,p} = Q_{j,p} P_{j-1,p-1} at every site, from Q on slice j and P
    on slice j-1; leading stack axes, before the site axis, pass through."""
    return q @ p_prev[..., _neighbours(p_prev.shape[-3])[1], :, :]


def _around(field_: GaugeField, j) -> np.ndarray:
    """(P, Q) on slices j-1, j, j+1, which a curvature at j reads, as one (3, 2, n_sites, N, N)
    array, [k] on slice j - 1 + k; around each j of a sequence, (3, 2, len(j), n_sites, N, N)."""
    pq = []
    for i in np.atleast_1d(j).tolist():
        if not 1 <= i <= field_.spec.j_max - 1:
            raise SiteRangeError(f"curvature needs slices j-1..j+1; j={i} out of range")
        field_.P(i - 1, 3)  # a miss builds the three slices as one run
        pq.append([(field_.P(k), field_.Q(k)) for k in (i - 1, i, i + 1)])
    pq = np.moveaxis(np.array(pq), 0, 2)
    return pq if np.ndim(j) else pq[:, :, 0]


def _curvature(pq) -> np.ndarray:
    """F_{j,p} = U†_{j-1,p} V†_{j,p-1} U_{j+1,p} V_{j,p+1} for every p, from
    pq[k] = (P, Q) on slices j-1, j, j+1 (k = 0, 1, 2), stacks or not."""
    (p_prev, q_prev), (_, q_here), (p_next, q_next) = pq
    u_prev = holonomy_u(p_prev, q_prev)
    u_next = holonomy_u(p_next, q_next)
    v_here = holonomy_v(q_here, p_prev)
    right, left = _neighbours(v_here.shape[-3])  # V_{j,p+1} is v_here at right, V_{j,p-1} at left
    return u_prev.conj().mT @ v_here[..., left, :, :].conj().mT @ u_next @ v_here[..., right, :, :]


def curvature_slice(field_: GaugeField, j) -> np.ndarray:
    """The curvature F_{j,p} at every site p of slice j; for a sequence of
    slices, one stack of them."""
    return _curvature(_around(field_, j))


def discrete_curvature(field_: GaugeField, j: int, p: int) -> np.ndarray:
    """The (N, N) curvature F_{j,p}."""
    return curvature_slice(field_, j)[field_.spec.site_index(p)]


def curvature_gauge_conjugator(g: GaugeTransformation, j) -> np.ndarray:
    """G_{j-1,p+1} at the index of every site p of slice j, the matrices
    conjugating the curvature under a gauge change:
    F'_{j,p} = G_{j-1,p+1} F_{j,p} G^-1_{j-1,p+1}; for a sequence of slices, one stack."""
    js = np.atleast_1d(j).tolist()
    if min(js) < 1:
        raise SiteRangeError("conjugator needs slice j-1")
    c = np.array([g.G(i - 1) for i in js])[..., _neighbours(g.spec.n_sites)[0], :, :]
    return c if np.ndim(j) else c[0]


def continuous_curvature(b0, b1, gens: GeneratorSet, t: float, x: float) -> np.ndarray:
    """F_10 = d_1 B_0 - d_0 B_1 - i [B_1, B_0] at (t, x), with B_mu = sum_k
    b^k_mu tau_k and the derivatives taken as central differences of step
    h = 1e-5.  b0 and b1 are the (t, x-array) functions the walk and the
    Dirac reference take, read by sample_potentials at x - h, x, x + h."""
    h = 1e-5
    xs, count = x + h * np.array([-1.0, 0.0, 1.0]), len(gens)

    def at(tt):
        """(B0, B1) at the three points, as an array of shape (2, 3, N, N)."""
        c = np.array(sample_potentials(b0, b1, tt, xs, count))
        return gens.assemble(np.broadcast_to(c.reshape(2, -1, count), (2, 3, count)))

    b0s, b1s = at(t)
    d1_b0 = (b0s[2] - b0s[0]) / (2 * h)
    d0_b1 = (at(t + h)[1, 1] - at(t - h)[1, 1]) / (2 * h)
    out = d1_b0 - d0_b1 - 1j * (b1s[1] @ b0s[1] - b0s[1] @ b1s[1])
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


def abelian_discrete_curvature(y: AbelianPotential, j: int) -> tuple[np.ndarray, np.ndarray]:
    """(f10, the U(1) curvature phase exp[2i (I f10)]) at every site of slice
    j, each of shape (n_sites,).  f10 = d1 Y0 - d0 Y1 with d0 = L0 - Sigma_1
    and d1 = Delta_1 (central difference); the smoothing operator is
    I = 1 + L0^-1 L1^-1, so (I f10)_{j,p} = f10_{j,p} + f10_{j-1,p-1}."""
    if not 1 <= j <= y.spec.j_max - 1:
        raise SiteRangeError(f"abelian curvature needs 1 <= j <= j_max-1, got {j}")
    # f10 on slices j-1 and j; rolling by -1 (+1) puts site p+1 (p-1) at the index of p
    y0, y1 = y.Y0[j - 1 : j + 1], y.Y1[j - 1 : j + 2]
    d1_y0 = (np.roll(y0, -1, 1) - np.roll(y0, 1, 1)) / 2
    d0_y1 = y1[1:] - (np.roll(y1[:-1], -1, 1) + np.roll(y1[:-1], 1, 1)) / 2
    f10 = d1_y0 - d0_y1
    f_here, f_back = f10[1], np.roll(f10[0], 1)
    return f_here, np.exp(2j * (f_here + f_back))


def curvature_factorization_check(field_: GaugeField, j, curvature=None) -> tuple:
    """Largest residual of F(R) = F(delta_R) F(Rbar) over the sites of slice
    j, where every P, Q is split into its U(1) phase and SU(N) part.  Also
    reports whether any factorization sat on the det = -1 branch cut.  For a
    sequence of slices, both as arrays, one entry per slice, from one
    factorize.  `curvature` is F(R), curvature_slice(field_, j), if known."""
    pq = _around(field_, j)
    split = factorize(pq)
    f_full = _curvature(pq) if curvature is None else curvature
    f_delta, f_bar = (_curvature(part) for part in (split.delta[..., None, None], split.special))
    residual = np.abs(f_full - f_delta * f_bar).max(axis=(-3, -2, -1))
    branch = split.branch_discontinuous.any(axis=(0, 1, -1))
    return (residual, branch) if np.ndim(j) else (float(residual), bool(branch))
