"""Independent references the tests compare the library against."""

import numpy as np

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
