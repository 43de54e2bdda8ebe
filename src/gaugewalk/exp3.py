"""exp(iH) for a stack of Hermitian 3x3 H in closed form: the N = 3 path of
unitary.exp_map.  exp_map imports this module on its first N = 3 call, so
work at N <= 2 never loads it; where bytecode is not cached, every import
compiles its source."""

from __future__ import annotations

import numpy as np

from .unitary import stack_matmul

_SQRT3 = np.sqrt(3)
_HALF_PI = np.pi / 2
_TINY = np.finfo(float).tiny
# [a, u cos phi, u sin phi, 1] -> the angles and nodes exp_3x3 needs, with
# phi = theta / 3, the eigenvalues of Q q1 = 2u cos phi, q2, q3 = u (-cos phi
# +- sqrt3 sin phi) and the half gaps h12 = (q1 - q2) / 2, h23 = (q2 - q3) / 2
_NODES = np.array([
    # a+q1+pi/2, a+q1, h12+pi/2, h12, h23+pi/2, h23, q1, q3, q1-q3, 2u sin, sqrt3 u cos + u sin
    [1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [2, 2, 1.5, 1.5, 0, 0, 2, -1, 3, 0, _SQRT3],
    [0, 0, -_SQRT3 / 2, -_SQRT3 / 2, _SQRT3, _SQRT3, 0, -_SQRT3, _SQRT3, 2, 1],
    [_HALF_PI, 0, _HALF_PI, 0, _HALF_PI, 0, 0, 0, 0, 0, 0],
])
_COS_SIN = np.array([_HALF_PI, 0])


def exp_3x3(h: np.ndarray) -> np.ndarray:
    """exp(iH) for a Hermitian 3x3 H = a 1 + Q, or each of a stack (..., 3,
    3), Q traceless; h may be overwritten.  The Cayley-Hamilton form
    (Morningstar & Peardon, Phys. Rev. D 69, 054501 (2004)) in Newton's
    divided differences,

        exp(iH) = e^{ia} [e^{iq1} + f[q1,q2] (Q - q1) + f[q1,q2,q3] (Q - q1)(Q - q2)],

    q1 >= q2 >= q3 the eigenvalues 2u cos(theta/3 + 2 pi k/3) of Q, u^2 =
    c1 / 3, c1 = tr Q^2 / 2, c0 = det Q, f[v,w] = i e^{i(v+w)/2} sinc((v-w)/2)
    and f[q1,q2,q3] = (f[q1,q2] - f[q2,q3]) / (q1 - q3), -e^{iq2}/2 at q1 = q3.
    theta = atan2(sqrt(D / 27), c0) with the discriminant D = 3 |Q|^2 |R|^2, R
    the part of P = Q^2 - (tr Q^2 / 3) 1 orthogonal to Q: a sum of squares, so
    near a double eigenvalue the pair's split keeps the accuracy of Q, which
    arccos(c0 / (2 u^3)) would halve.  For Hermitian A and B, tr(AB) is the
    dot product of their entries' float views.  Every step is elementwise per
    matrix, so a matrix gets the same bits at any batch size."""
    q = h.reshape(-1, 3, 3)
    diag = q.reshape(-1, 9)[:, ::4]
    a = diag.real.sum(-1) / 3
    diag -= a[:, None]
    p = stack_matmul(q, q)
    qf, pf = q.reshape(-1, 9).view(float), p.reshape(-1, 9).view(float)
    n2 = np.vecdot(qf, qf)  # tr Q^2
    p.reshape(-1, 9)[:, ::4] -= (n2 / 3)[:, None]
    ca, cb, f3 = _coefficients(a, qf, pf, n2, n2 / 6)
    out = cb[:, None, None] * q
    out += f3[:, None, None] * p
    out.reshape(-1, 9)[:, ::4] += ca[:, None]
    return out.reshape(h.shape)


def _coefficients(a, q, p, n2, u2):
    """(ca, cb, f3) with exp(iH) = ca 1 + cb Q + f3 P (see exp_3x3), from a =
    tr H / 3, the float views of Q and P, n2 = tr Q^2 and u2 = u^2."""
    t = np.vecdot(q, p)  # tr Q^3 = 3 c0
    r = p - (t / np.maximum(n2, _TINY))[..., None] * q
    theta = np.arctan2(np.sqrt(n2 * np.vecdot(r, r)), t)  # 3 sqrt(D / 27), 3 c0
    # sin(x + pi/2) for cos x: one call gives both, and cos 0 = 1 exactly
    nodes = np.ones(a.shape + (4,))
    nodes[..., 0] = a
    np.multiply(np.sin(theta[..., None] / 3 + _COS_SIN), np.sqrt(u2)[..., None], out=nodes[..., 1:3])
    z = nodes @ _NODES
    np.maximum(z[..., 3:6:2], _TINY, out=z[..., 3:6:2])  # h12, h23 >= 0 but for rounding
    s = np.sin(z[..., :6])
    e = s.view(complex)  # e^{i(a + q1)}, e^{i h12}, e^{i h23}
    back = e[..., 1:].conj()
    mid = np.empty(back.shape, dtype=complex)  # e^{i(a + (q1 + q2)/2)}, e^{i(a + (q2 + q3)/2)}
    np.multiply(e[..., 0], back[..., 0], out=mid[..., 0])
    e2 = mid[..., 0] * back[..., 0]  # e^{i(a + q2)}
    np.multiply(e2, back[..., 1], out=mid[..., 1])
    f = mid * (1j * (s[..., 3::2] / z[..., 3:6:2]))  # e^{ia} f[q1,q2], e^{ia} f[q2,q3]
    gap = z[..., 8]
    f3 = np.divide(f[..., 0] - f[..., 1], gap, out=-0.5 * e2, where=gap > 0)
    # (Q - q1)(Q - q2) = P + q3 Q + (q3^2 - u^2) 1, q3^2 - u^2 = 2u sin (sqrt3 u cos + u sin)
    ca = e[..., 0] - f[..., 0] * z[..., 6] + f3 * (z[..., 9] * z[..., 10])
    return ca, f[..., 0] + f3 * z[..., 7], f3
