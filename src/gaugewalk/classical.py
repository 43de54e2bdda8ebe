"""Wong-type classical reference: a relativistic point particle carrying an
SU(2) isospin charge in the uniform 'electric' field generated by the
potential A_1 = E_ym * t along the first isospin direction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ClassicalState:
    x: float
    p: float
    isospin: np.ndarray  # (3,)

    def __post_init__(self):
        iso = np.asarray(self.isospin, dtype=float)
        if iso.shape != (3,):
            raise ValueError("isospin must have 3 components")
        object.__setattr__(self, "isospin", iso)


def isospin_from_color(color: np.ndarray) -> np.ndarray:
    """I^a = <color| sigma_a / 2 |color>; (1,1)/sqrt(2) gives (1/2, 0, 0)."""
    from .unitary import PAULI

    c = np.asarray(color, dtype=complex)
    c = c / np.linalg.norm(c)
    return np.array([float((c.conj() @ (s @ c)).real) / 2 for s in PAULI])


def wong_rhs(s: ClassicalState, e_ym: float, g: float, m: float, t: float
             ) -> tuple[float, float, np.ndarray]:
    """(dx/dt, dp/dt, dI/dt).  The physical field strength of A_1^a =
    E_ym t delta^{a1} is E^a = -dA_1/dt = -E_ym delta^{a1}, so
    dp/dt = g I.E = -g E_ym I_1; the isospin precesses about the potential,
    dI^a/dt = g xdot eps^{abc} A_1^b I^c."""
    if not 0 < m < np.inf:
        raise ValueError(f"mass must be positive and finite, got {m!r}")
    xdot = s.p / np.sqrt(s.p * s.p + m * m)
    pdot = -g * e_ym * s.isospin[0]
    a1 = np.array([e_ym * t, 0.0, 0.0])
    idot = g * xdot * np.cross(a1, s.isospin)
    return xdot, pdot, idot


def rk4_step(s: ClassicalState, e_ym: float, g: float, m: float, t: float,
             dt: float) -> ClassicalState:
    if not 0 < dt < np.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")

    def shifted(k, h):
        return ClassicalState(s.x + h * k[0], s.p + h * k[1], s.isospin + h * k[2])

    k1 = wong_rhs(s, e_ym, g, m, t)
    k2 = wong_rhs(shifted(k1, dt / 2), e_ym, g, m, t + dt / 2)
    k3 = wong_rhs(shifted(k2, dt / 2), e_ym, g, m, t + dt / 2)
    k4 = wong_rhs(shifted(k3, dt), e_ym, g, m, t + dt)
    x = s.x + dt / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
    p = s.p + dt / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    iso = s.isospin + dt / 6 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
    return ClassicalState(x, p, iso)


def closed_form_trajectory(x0: float, p0: float, e_ym: float, g: float, m: float,
                           t: float) -> tuple[float, float]:
    """Exact (x, p) for isospin aligned with the field, I_1 = 1/2:
    p(t) = p0 - g E_ym t / 2 and x from the relativistic antiderivative
    of p / sqrt(p^2 + m^2)."""
    if not 0 < m < np.inf:
        raise ValueError(f"mass must be positive and finite, got {m!r}")
    a = -g * e_ym / 2
    p = p0 + a * t
    if a == 0.0:
        x = x0 + t * p0 / np.sqrt(p0 * p0 + m * m)
    else:
        x = x0 + (np.sqrt(p * p + m * m) - np.sqrt(p0 * p0 + m * m)) / a
    return x, p
