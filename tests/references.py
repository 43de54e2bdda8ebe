"""Independent references the tests compare the library against, and the
fields the tests share."""

import numpy as np

from gaugewalk import lattice as lat
from gaugewalk import unitary as un


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
