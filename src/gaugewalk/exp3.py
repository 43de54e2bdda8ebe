"""exp(iH) for a stack of Hermitian 3x3 H in closed form: the N = 3 path of
unitary.exp_map.  exp_map imports this module on its first N = 3 call, so
work at N <= 2 never loads it; where bytecode is not cached, every import
compiles its source.

The closed form works on the traceless part Q of H.  Its entries [d0, d1,
d2, x01, y01, x02, y02, x12, y12] (Q_kk = d_k, Q_kl = x_kl + i y_kl for
k < l) are the compact layout; scaling the x and y by sqrt 2 gives the
orthonormal layout, in which tr(AB) is the dot product."""

from __future__ import annotations

import numpy as np

from .unitary import DimensionError, GeneratorSet

# Each compact entry of Q^2 is a sum of signed products of two entries of Q,
# the off-diagonal ones using d0 + d1 + d2 = 0.
_D0, _D1, _D2, _X01, _Y01, _X02, _Y02, _X12, _Y12 = range(9)
_Q2_TERMS = (
    ((1, _D0, _D0), (1, _X01, _X01), (1, _Y01, _Y01), (1, _X02, _X02), (1, _Y02, _Y02)),
    ((1, _D1, _D1), (1, _X01, _X01), (1, _Y01, _Y01), (1, _X12, _X12), (1, _Y12, _Y12)),
    ((1, _D2, _D2), (1, _X02, _X02), (1, _Y02, _Y02), (1, _X12, _X12), (1, _Y12, _Y12)),
    ((-1, _D2, _X01), (1, _X02, _X12), (1, _Y02, _Y12)),  # Q_02 conj(Q_12)
    ((-1, _D2, _Y01), (1, _Y02, _X12), (-1, _X02, _Y12)),
    ((-1, _D1, _X02), (1, _X01, _X12), (-1, _Y01, _Y12)),  # Q_01 Q_12
    ((-1, _D1, _Y02), (1, _X01, _Y12), (1, _Y01, _X12)),
    ((-1, _D0, _X12), (1, _X01, _X02), (1, _Y01, _Y02)),  # conj(Q_01) Q_02
    ((-1, _D0, _Y12), (1, _X01, _Y02), (-1, _Y01, _X02)),
)
_PAIRS = sorted({(k, l) for terms in _Q2_TERMS for _, k, l in terms})
_ORTHO = np.array([1, 1, 1] + [np.sqrt(2)] * 6)
_SQRT3 = np.sqrt(3)
_HALF_PI = np.pi / 2
_TINY = np.finfo(float).tiny


def _fixed_tables():
    """(products of _PAIRS -> [P, tr Q^2, tr Q^2 / 6], P = Q^2 - (tr Q^2 / 3) 1
    in the orthonormal layout; [Re c, Im c] of a complex c in the orthonormal
    layout -> sum_k c_k B_k, real and imaginary parts interleaved)."""
    square = np.zeros((len(_PAIRS), 9))
    for m, terms in enumerate(_Q2_TERMS):
        for sign, k, l in terms:
            square[_PAIRS.index((k, l)), m] += sign
    trace = square[:, :3].sum(1)
    square[:, :3] -= trace[:, None] / 3
    basis = np.zeros((9, 3, 3), dtype=complex)  # B_k, with Q = sum_k q_k B_k
    for k in range(3):
        basis[k, k, k] = 1
    for k, (i, j) in enumerate(((0, 1), (0, 2), (1, 2))):
        basis[3 + 2 * k, i, j] = basis[3 + 2 * k, j, i] = 1 / np.sqrt(2)
        basis[4 + 2 * k, i, j], basis[4 + 2 * k, j, i] = 1j / np.sqrt(2), -1j / np.sqrt(2)
    full = np.concatenate((basis, 1j * basis)).reshape(18, 9).view(float)
    return np.column_stack((square * _ORTHO, trace, trace / 6)), full


_SQUARE, _FULL = _fixed_tables()
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


def tables(gens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For generators gens (count, 3, 3), the tables that map coordinates to
    the two factors of every product in _PAIRS (compact layout), (count, 2
    len(_PAIRS)), and to [a = tr H / 3, Q in the orthonormal layout],
    (count, 10)."""
    a = np.trace(gens, axis1=1, axis2=2).real / 3
    q = gens - a[:, None, None] * np.eye(3)
    upper = np.ascontiguousarray(q[:, (0, 0, 1), (1, 2, 2)])
    compact = np.column_stack((q[:, (0, 1, 2), (0, 1, 2)].real, upper.view(float)))
    left, right = np.array(_PAIRS).T
    return np.column_stack((compact[:, left], compact[:, right])), np.column_stack((a, compact * _ORTHO))


def exp_3x3(coords: np.ndarray, gens: GeneratorSet) -> np.ndarray:
    """exp(iH) for a stack of Hermitian 3x3 H = a 1 + Q given by coordinates,
    Q traceless: the Cayley-Hamilton form (Morningstar & Peardon, Phys. Rev.
    D 69, 054501 (2004)) in Newton's divided differences,

        exp(iH) = e^{ia} [e^{iq1} + f[q1,q2] (Q - q1) + f[q1,q2,q3] (Q - q1)(Q - q2)],

    q1 >= q2 >= q3 the eigenvalues 2u cos(theta/3 + 2 pi k/3) of Q, u^2 =
    c1 / 3, c1 = tr Q^2 / 2, c0 = det Q, f[v,w] = i e^{i(v+w)/2} sinc((v-w)/2)
    and f[q1,q2,q3] = (f[q1,q2] - f[q2,q3]) / (q1 - q3), -e^{iq2}/2 at q1 = q3.
    theta = atan2(sqrt(D / 27), c0) with the discriminant D = 3 |Q|^2 |R|^2, R
    the part of P = Q^2 - (tr Q^2 / 3) 1 orthogonal to Q: a sum of squares, so
    near a double eigenvalue the pair's split keeps the accuracy of Q, which
    arccos(c0 / (2 u^3)) would halve.  No step depends on the batch size: a
    run of slices stacks them on leading axes, and each slice gets the same
    bits alone or at any offset in a run."""
    if coords.shape[-1] != len(gens):
        raise DimensionError(f"expected {len(gens)} coordinates, got {coords.shape[-1]}")
    pairs, parts = gens._exp3_tables
    # the factors are the largest temporary: multiplied in place, freed early
    factors = coords @ pairs
    n = len(_PAIRS)
    w = np.multiply(factors[..., :n], factors[..., n:], out=factors[..., :n]) @ _SQUARE
    del factors
    v = coords @ parts
    if v.ndim == 1:
        v, w = v[None], w[None]
    q, p = v[..., 1:], w[..., :9]
    ca, cb, f3 = _coefficients(v[..., 0], q, p, w[..., 9], w[..., 10])
    # exp(iH) = ca 1 + cb Q + f3 P, assembled in the orthonormal layout
    c = cb[..., None].view(float)[..., :, None] * q[..., None, :]
    c += f3[..., None].view(float)[..., :, None] * p[..., None, :]
    c[..., :3] += ca[..., None].view(float)[..., :, None]
    out = c.reshape(c.shape[:-2] + (18,)) @ _FULL
    return out.view(complex).reshape(coords.shape[:-1] + (3, 3))


def _coefficients(a, q, p, n2, u2):
    """(ca, cb, f3) with exp(iH) = ca 1 + cb Q + f3 P (see exp_3x3), from a =
    tr H / 3, Q and P in the orthonormal layout, n2 = tr Q^2 and u2 = u^2."""
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
