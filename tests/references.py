"""Independent references the tests compare the library against, and the
fields the tests share."""

import numpy as np

from gaugewalk import dirac as dr
from gaugewalk import lattice as lat
from gaugewalk import unitary as un
from gaugewalk import walker as wk


def su2_closed_form(v):
    """exp(i v . sigma / 2) = cos(|v|/2) 1 + i sin(|v|/2) vhat . sigma."""
    v = np.asarray(v, dtype=float)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        return np.eye(2, dtype=complex)
    vhat = v / norm
    sigma_v = vhat[0] * un.PAULI[0] + vhat[1] * un.PAULI[1] + vhat[2] * un.PAULI[2]
    return np.cos(norm / 2) * np.eye(2) + 1j * np.sin(norm / 2) * sigma_v


def random_unitary(n, rng):
    """A random U(N) matrix: exp_map of standard normal u(N) coordinates."""
    gens = un.generators_u(n)
    return un.exp_map(rng.standard_normal(len(gens)), gens)


def constant_field(spec, p, q):
    """The field whose every time slice is (p, q), each (n_sites, N, N)."""
    return lat.GaugeField.from_arrays(spec, *(np.broadcast_to(a, (spec.j_max + 1,) + a.shape) for a in (p, q)))


def constant_transformation(spec, g):
    """The transformation whose every time slice is g, of shape (n_sites, N, N)."""
    return lat.GaugeTransformation(spec, g.shape[-1], lambda j, count: np.broadcast_to(g, (count, 1) + g.shape))


def field_sources(spec, dim, seed=0):
    """Source name -> a function that makes a fresh field on spec, the same
    field on every call, for each way GaugeField builds its links."""
    rng = np.random.default_rng(seed)
    gens = un.generators_u(dim)
    p, q = un.exp_map(rng.standard_normal((2, spec.j_max + 1, spec.n_sites, len(gens))), gens)
    a = rng.standard_normal((3, len(gens)))
    x_profile = np.cos(spec.positions())[:, None]
    return {
        "random": lambda: lat.GaugeField.random(spec, dim, seed, scale=0.7),
        "arrays": lambda: lat.GaugeField.from_arrays(spec, p, q),
        "uniform arrays": lambda: lat.GaugeField.from_arrays(
            spec, *(np.broadcast_to(links[:, :1], links.shape) for links in (p, q))),
        "identity": lambda: lat.GaugeField.identity(spec, dim),
        "transformed": lambda: lat.transform_potentials(
            lat.GaugeField.random(spec, dim, seed, scale=0.7),
            lat.GaugeTransformation.random(spec, dim, seed + 1, scale=0.7)),
        "uniform potentials": lambda: lat.GaugeField.from_potentials(
            lambda t, x: a[0] + t * a[1], lambda t, x: np.cos(t) * a[2], spec, gens),
        "per-site potentials": lambda: lat.GaugeField.from_potentials(
            lambda t, x: x_profile * a[0] + t * a[1], lambda t, x: np.cos(t) * a[2], spec, gens),
    }


def slice_curvature(pq):
    """F_{j,p} = U+_{j-1,p} V+_{j,p-1} U_{j+1,p} V_{j,p+1} at every site of one
    slice, from pq[k] = (P, Q) on slices j-1, j, j+1, each (n_sites, N, N):
    the one-slice products the gauge check made before it took stacks."""
    (p0, q0), (_, q1), (p2, q2) = pq
    n = len(p0)
    right, left = (np.arange(n) + 1) % n, (np.arange(n) - 1) % n
    v = q1 @ p0[left]
    return (q0.conj().mT @ p0).conj().mT @ v[left].conj().mT @ (q2.conj().mT @ p2) @ v[right]


def slice_factorization(field_, j):
    """(largest residual of F(R) = F(delta_R) F(Rbar) over slice j, whether a
    link it read sat on the det = -1 branch cut), one slice at a time."""
    pq = np.array([(field_.P(k), field_.Q(k)) for k in (j - 1, j, j + 1)])
    split = un.factorize(pq)
    f_full, f_delta, f_bar = (slice_curvature(part) for part in (pq, split.delta[..., None, None], split.special))
    return float(np.max(np.abs(f_full - f_delta * f_bar))), bool(np.any(split.branch_discontinuous))


def gauge_check_residuals_per_sample(dim, spec, seed, steps=50):
    """experiments.gauge_check_residuals with its curvature samples taken one
    slice at a time, as a loop over the 8 random slices."""
    rng = np.random.default_rng(seed)
    field_ = lat.GaugeField.random(spec, dim, seed, scale=0.5)
    g = lat.GaugeTransformation.random(spec, dim, seed + 1, scale=0.5)
    field_t = lat.transform_potentials(field_, g)
    amps = rng.standard_normal((spec.n_sites, 2 * dim)) + 1j * rng.standard_normal((spec.n_sites, 2 * dim))
    amps /= np.linalg.norm(amps)
    psi = wk.WalkState(spec, dim, 0, amps)
    wcfg = wk.WalkConfig(dim, 0.3)
    plain = wk.evolve(psi, field_, wcfg, steps)
    g.G(0, lat.RUN)
    primed = wk.evolve(wk.gauge_transform_state(psi, g), field_t, wcfg, steps)
    square = float(np.max(np.abs(primed.amplitudes - wk.gauge_transform_state(plain, g).amplitudes)))

    covariance = factorization = 0.0
    for j in map(int, rng.integers(1, spec.j_max, size=8)):
        f_plain, f_primed = (slice_curvature([(f.P(k), f.Q(k)) for k in (j - 1, j, j + 1)])
                             for f in (field_, field_t))
        conj = g.G(j - 1)[(np.arange(spec.n_sites) + 1) % spec.n_sites]
        covariance = max(covariance, float(np.max(np.abs(f_primed - conj @ f_plain @ conj.conj().mT))))
        resid, branch = slice_factorization(field_, j)
        if not branch:
            factorization = max(factorization, resid)
    return {
        "commuting_square": square,
        "curvature_covariance": covariance,
        "curvature_factorization": factorization,
        "probability_drift": abs(wk.total_probability(plain) - wk.total_probability(psi)),
    }


def generator_potentials(dim, seed):
    """Smooth u(N) potentials b0(t, x), b1(t, x), one sample per point: sines
    and cosines of x and t with random coefficients of scale 0.3, so that
    for N >= 2 they commute neither with each other nor across points."""
    a = 0.3 * np.random.default_rng(seed).standard_normal((4, dim * dim))

    def b0(t, x):
        x = np.asarray(x)[:, None]
        return np.sin(x + 0.5 * t) * a[0] + np.cos(0.7 * x - t) * a[1]

    def b1(t, x):
        x = np.asarray(x)[:, None]
        return np.cos(0.8 * x + t) * a[2] + np.sin(0.3 * x - 0.6 * t) * a[3]

    return b0, b1


GENERATOR_EPSILONS = (0.1, 0.05, 0.025, 0.0125, 0.00625, 0.003125)


def one_step_generator_errors(walk, reference, dim, t0, epsilons=GENERATOR_EPSILONS, x_max=12.0, seed=0):
    """The walk's one-step generator against the Dirac generator, per
    lattice step.  walk and reference are each (b0, b1, mass), given apart
    so that either can be a wrong-physics variant; each eps must halve the
    one before.

    On x in [-x_max, x_max], Psi is a Gaussian times (1 + 0.3 sin x) times a
    random complex 2N-vector.  L(eps) = (Psi_{j0+1} - Psi_{j0}) / eps is one
    walk step from slice j0 = t0 / eps, D(eps) = dirac.dirac_rhs(Psi, t0) on
    the same sites.  Returns the relative errors |L - D| / |D| for every
    eps, and those of the Richardson form R(eps) = 2 L(eps/2)[::2] - L(eps),
    which has no eps^1 term, for every eps but the last."""
    gens = un.generators_u(dim)
    color = np.array([1, 1j]) @ np.random.default_rng(seed).standard_normal((2, 2 * dim))
    steps, rhs = [], []
    for eps in epsilons:
        j0 = round(t0 / eps)
        spec = lat.LatticeSpec(eps, round(x_max / eps), j0 + 2)
        x = spec.positions()
        psi = (np.exp(-x * x / 2) * (1 + 0.3 * np.sin(x)))[:, None] * color
        field_ = lat.GaugeField.from_potentials(walk[0], walk[1], spec, gens)
        after = wk.step(wk.WalkState(spec, dim, j0, psi), field_, wk.WalkConfig.from_mass(dim, walk[2], eps))
        steps.append((after.amplitudes - psi) / eps)
        params = dr.DiracParams(reference[2], reference[0], reference[1], gens)
        f = dr.SpinorField(dr.SpectralGrid.from_lattice(spec), dim, psi)
        rhs.append(dr.dirac_rhs(f, params, spec.time(j0)).values)
    norms = [np.linalg.norm(d) for d in rhs]
    plain = [np.linalg.norm(l - d) / n for l, d, n in zip(steps, rhs, norms)]
    richardson = [np.linalg.norm(2 * steps[i + 1][::2] - steps[i] - rhs[i]) / norms[i]
                  for i in range(len(epsilons) - 1)]
    return np.array(plain), np.array(richardson)


def local_slopes(errors):
    """log2 of each error over the next: the local order when eps halves."""
    return np.log2(errors[:-1] / errors[1:])
