"""SO(3)/SE(3) group and algebra operations.

Conventions used throughout the package:

- Twists are ordered rotation-first, ``xi = (phi, rho)``, with ``phi`` in
  radians and ``rho`` in meters.  Every 6x6 block matrix in the package
  follows this ordering.
- Poses are 4x4 homogeneous matrices ``[[C, r], [0, 1]]`` with ``C`` a
  3x3 direction-cosine matrix.
- All functions broadcast over leading batch dimensions, e.g. ``se3_exp``
  accepts ``(..., 6)`` and returns ``(..., 4, 4)``.

Rotations are matrices in memory.  Unit quaternions (Hamilton convention,
scalar first, ``w >= 0``) are the form the file formats store (see
``dataio``); :func:`quat_from_rotation` and :func:`rotation_from_quat` are
the package's only conversions, and :func:`so3_log` takes its axis and angle
from the quaternion.
"""

from __future__ import annotations

import numpy as np

def _eye(n, shape):
    out = np.zeros(shape + (n, n))
    out[...] = np.eye(n)
    return out


def skew(v):
    """Map (...,3) vectors to (...,3,3) skew-symmetric matrices."""
    v = np.asarray(v, dtype=float)
    S = np.zeros(v.shape[:-1] + (3, 3))
    S[..., 0, 1] = -v[..., 2]
    S[..., 0, 2] = v[..., 1]
    S[..., 1, 0] = v[..., 2]
    S[..., 1, 2] = -v[..., 0]
    S[..., 2, 0] = -v[..., 1]
    S[..., 2, 1] = v[..., 0]
    return S


def _angle(phi):
    return np.linalg.norm(phi, axis=-1)


# Below a threshold angle the trigonometric coefficient functions switch to
# truncated even-power series.  The closed forms suffer catastrophic
# cancellation well before the angle becomes "small" (the worst, the fifth
# order coefficient of the Jacobian coupling block, is unusable below about
# 0.3 rad), so each coefficient switches at its own threshold chosen to keep
# the relative error near 1e-12 on both sides.
def _series_or(t, threshold, coeffs, exact_fn):
    """Even-power series below the threshold, closed form above."""
    small = t < threshold
    ts = np.where(small, 1.0, t)
    t2 = t * t
    series = np.zeros_like(t)
    for c in reversed(coeffs):
        series = series * t2 + c
    return np.where(small, series, exact_fn(ts))


def _coef_sinc(t):
    # sin(t)/t
    return _series_or(
        t, 0.05, (1.0, -1.0 / 6.0, 1.0 / 120.0, -1.0 / 5040.0),
        lambda x: np.sin(x) / x,
    )


def _coef_one_minus_cos(t):
    # (1 - cos t)/t^2
    return _series_or(
        t, 0.05, (0.5, -1.0 / 24.0, 1.0 / 720.0, -1.0 / 40320.0),
        lambda x: (1.0 - np.cos(x)) / (x * x),
    )


def _coef_t_minus_sin(t):
    # (t - sin t)/t^3
    return _series_or(
        t, 0.05, (1.0 / 6.0, -1.0 / 120.0, 1.0 / 5040.0, -1.0 / 362880.0),
        lambda x: (x - np.sin(x)) / x**3,
    )


def _coef_jinv(t):
    # 1/t^2 - (1 + cos t)/(2 t sin t), singular at 2*pi; (1 + cos t)/sin t
    # is taken as 1/tan(t/2), as 1 + cos t cancels near pi
    return _series_or(
        t, 0.1, (1.0 / 12.0, 1.0 / 720.0, 1.0 / 30240.0, 1.0 / 1209600.0),
        lambda x: (1.0 - x / (2.0 * np.tan(0.5 * x))) / (x * x),
    )


def _coef_q2(t):
    # (t^2/2 + cos t - 1)/t^4
    return _series_or(
        t, 0.25, (1.0 / 24.0, -1.0 / 720.0, 1.0 / 40320.0, -1.0 / 3628800.0),
        lambda x: (x * x / 2.0 + np.cos(x) - 1.0) / x**4,
    )


def _coef_q3(t):
    # (t - sin t - t^3/6)/t^5
    return _series_or(
        t,
        0.35,
        (
            -1.0 / 120.0,
            1.0 / 5040.0,
            -1.0 / 362880.0,
            1.0 / 39916800.0,
            -1.0 / 6227020800.0,
        ),
        lambda x: (x - np.sin(x) - x**3 / 6.0) / x**5,
    )


def so3_exp(phi):
    """Rodrigues form of exp(phi^x), with series fallback at small angles."""
    phi = np.asarray(phi, dtype=float)
    t = _angle(phi)
    a = _coef_sinc(t)
    b = _coef_one_minus_cos(t)
    P = skew(phi)
    return (
        _eye(3, phi.shape[:-1])
        + a[..., None, None] * P
        + b[..., None, None] * (P @ P)
    )


# Column of quat_from_rotation's pair array that holds 4 q_c q_k, by (c, k);
# the diagonal points at a zero column and is overwritten
_PAIR_COLUMN = np.array([[0, 1, 2, 3], [1, 0, 4, 5], [2, 4, 0, 6], [3, 5, 6, 0]])


def quat_from_rotation(C):
    """Unit quaternions (w, x, y, z) from (...,3,3) rotation matrices.

    Shepperd's method: each matrix is converted through the largest of
    ``trace``, ``C00``, ``C11`` and ``C22``, so the square root never takes a
    small argument, whatever the angle.  The scalar part comes out
    non-negative; at an angle of exactly pi either sign of the vector part is
    a valid result and the one the branch produces is kept.
    """
    C = np.asarray(C, dtype=float)
    batch = C.shape[:-2]
    C = C.reshape(-1, 3, 3)
    tr = np.trace(C, axis1=-2, axis2=-1)
    d = np.diagonal(C, axis1=-2, axis2=-1)
    choice = np.argmax(np.concatenate([tr[:, None], d], axis=1), axis=1)
    # 4 q_c^2 = 1 + trace (c = 0) or 1 + C_cc - (the other two diagonal
    # entries), evaluated left to right as written; it is at least 1
    sign = np.where(choice[:, None] == np.arange(1, 4), 1.0, -1.0)
    diag_sum = 1.0 + sign[:, 0] * d[:, 0] + sign[:, 1] * d[:, 1] + sign[:, 2] * d[:, 2]
    s = np.sqrt(np.where(choice == 0, 1.0 + tr, diag_sum)) * 2.0
    # P[:, _PAIR_COLUMN[c, k]] = 4 q_c q_k for c != k
    P = np.zeros((len(C), 7))
    P[:, 1] = C[:, 2, 1] - C[:, 1, 2]
    P[:, 2] = C[:, 0, 2] - C[:, 2, 0]
    P[:, 3] = C[:, 1, 0] - C[:, 0, 1]
    P[:, 4] = C[:, 0, 1] + C[:, 1, 0]
    P[:, 5] = C[:, 0, 2] + C[:, 2, 0]
    P[:, 6] = C[:, 1, 2] + C[:, 2, 1]
    q = np.take_along_axis(P, _PAIR_COLUMN[choice], axis=1) / s[:, None]
    q[np.arange(len(C)), choice] = 0.25 * s
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    q[q[:, 0] < 0] *= -1.0
    return q.reshape(batch + (4,))


def rotation_from_quat(q):
    """Rotation matrices from (...,4) quaternions (w, x, y, z); normalizes first."""
    q = np.asarray(q, dtype=float)
    q = q / np.linalg.norm(q, axis=-1, keepdims=True)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    C = np.empty(q.shape[:-1] + (3, 3))
    C[..., 0, 0] = 1 - 2 * (y * y + z * z)
    C[..., 0, 1] = 2 * (x * y - z * w)
    C[..., 0, 2] = 2 * (x * z + y * w)
    C[..., 1, 0] = 2 * (x * y + z * w)
    C[..., 1, 1] = 1 - 2 * (x * x + z * z)
    C[..., 1, 2] = 2 * (y * z - x * w)
    C[..., 2, 0] = 2 * (x * z - y * w)
    C[..., 2, 1] = 2 * (y * z + x * w)
    C[..., 2, 2] = 1 - 2 * (x * x + y * y)
    return C


def so3_log(C):
    """Principal-branch rotation vector of C in SO(3), angle in [0, pi].

    Read from the unit quaternion (w, v) as ``2 atan2(|v|, w) v / |v|``,
    which stays accurate at every angle, also for matrices a little off
    SO(3).  At an angle of exactly pi, ``phi`` and ``-phi`` are both
    principal logs; one of them is returned.
    """
    q = quat_from_rotation(C)
    w = q[..., 0]
    v = q[..., 1:]
    n = np.linalg.norm(v, axis=-1)
    # atan2(n, w) / n has no cancellation at any n > 0, so no series is
    # needed; n = 0 (the identity, or |v|^2 underflowing below angles of
    # about 1e-153) gives phi = 0
    coef = 2.0 * np.arctan2(n, w) / np.where(n > 0.0, n, 1.0)
    return coef[..., None] * v


def so3_left_jacobian(phi):
    phi = np.asarray(phi, dtype=float)
    t = _angle(phi)
    b = _coef_one_minus_cos(t)
    c = _coef_t_minus_sin(t)
    P = skew(phi)
    return (
        _eye(3, phi.shape[:-1])
        + b[..., None, None] * P
        + c[..., None, None] * (P @ P)
    )


def so3_left_jacobian_inv(phi):
    """Inverse of :func:`so3_left_jacobian` at a principal log (angle at most
    pi, as ``so3_log`` returns); it is singular at 2 pi."""
    phi = np.asarray(phi, dtype=float)
    t = _angle(phi)
    d = _coef_jinv(t)
    P = skew(phi)
    return (
        _eye(3, phi.shape[:-1])
        - 0.5 * P
        + d[..., None, None] * (P @ P)
    )


def make_pose(C, r):
    """Assemble (...,4,4) poses from rotations (...,3,3) and positions (...,3)."""
    C = np.asarray(C, dtype=float)
    r = np.asarray(r, dtype=float)
    shape = np.broadcast_shapes(C.shape[:-2], r.shape[:-1])
    T = np.zeros(shape + (4, 4))
    T[..., :3, :3] = C
    T[..., :3, 3] = r
    T[..., 3, 3] = 1.0
    return T


def se3_inv(T):
    T = np.asarray(T, dtype=float)
    Ct = np.swapaxes(T[..., :3, :3], -1, -2)
    return make_pose(Ct, -(Ct @ T[..., :3, 3:4])[..., 0])


def between(T_a, T_b):
    """Relative pose T_a^-1 T_b: rotation C_a^T C_b, translation C_a^T (r_b - r_a).

    The positions are subtracted before the rotation is applied, which is
    exact for nearby poses however far from the origin they lie; the
    product se3_inv(T_a) @ T_b cancels terms as large as the coordinates.
    """
    T_a = np.asarray(T_a, dtype=float)
    T_b = np.asarray(T_b, dtype=float)
    Ct = np.swapaxes(T_a[..., :3, :3], -1, -2)
    dr = T_b[..., :3, 3:4] - T_a[..., :3, 3:4]
    return make_pose(Ct @ T_b[..., :3, :3], (Ct @ dr)[..., 0])


def se3_exp(xi):
    """Closed-form exponential map from (...,6) twists to (...,4,4) poses."""
    xi = np.asarray(xi, dtype=float)
    phi = xi[..., :3]
    rho = xi[..., 3:]
    C = so3_exp(phi)
    r = (so3_left_jacobian(phi) @ rho[..., None])[..., 0]
    return make_pose(C, r)


def se3_log(T):
    """Principal-branch twist of a pose; inverse of :func:`se3_exp`."""
    T = np.asarray(T, dtype=float)
    phi = so3_log(T[..., :3, :3])
    rho = (so3_left_jacobian_inv(phi) @ T[..., :3, 3:4])[..., 0]
    return np.concatenate([phi, rho], axis=-1)


def adjoint(T):
    """Adjoint matrix [[C, 0], [r^x C, C]] of a pose."""
    T = np.asarray(T, dtype=float)
    C = T[..., :3, :3]
    A = np.zeros(T.shape[:-2] + (6, 6))
    A[..., :3, :3] = C
    A[..., 3:, 3:] = C
    A[..., 3:, :3] = skew(T[..., :3, 3]) @ C
    return A


def small_adjoint(xi):
    """Algebra adjoint [[phi^x, 0], [rho^x, phi^x]] of a twist."""
    xi = np.asarray(xi, dtype=float)
    P = skew(xi[..., :3])
    A = np.zeros(xi.shape[:-1] + (6, 6))
    A[..., :3, :3] = P
    A[..., 3:, 3:] = P
    A[..., 3:, :3] = skew(xi[..., 3:])
    return A


def _left_jacobian_coupling(xi):
    # Coupling block of the SE(3) left Jacobian (translation response to
    # rotation), closed form with series fallbacks at small angles.
    phi = xi[..., :3]
    rho = xi[..., 3:]
    t = _angle(phi)
    m1 = _coef_t_minus_sin(t)
    m2 = _coef_q2(t)
    m3 = _coef_q3(t)
    P = skew(phi)
    R = skew(rho)
    PR = P @ R
    RP = R @ P
    PP = P @ P
    m1 = m1[..., None, None]
    m2 = m2[..., None, None]
    m3 = m3[..., None, None]
    return (
        0.5 * R
        + m1 * (PR + RP + P @ RP)
        + m2 * (PP @ R + R @ PP - 3.0 * (PR @ P))
        + 0.5 * (m2 + 3.0 * m3) * (PR @ PP + PP @ RP)
    )


def left_jacobian(xi):
    """SE(3) left Jacobian in the (phi, rho) block ordering."""
    xi = np.asarray(xi, dtype=float)
    J = so3_left_jacobian(xi[..., :3])
    out = np.zeros(xi.shape[:-1] + (6, 6))
    out[..., :3, :3] = J
    out[..., 3:, 3:] = J
    out[..., 3:, :3] = _left_jacobian_coupling(xi)
    return out


def left_jacobian_inv(xi):
    xi = np.asarray(xi, dtype=float)
    Ji = so3_left_jacobian_inv(xi[..., :3])
    Q = _left_jacobian_coupling(xi)
    out = np.zeros(xi.shape[:-1] + (6, 6))
    out[..., :3, :3] = Ji
    out[..., 3:, 3:] = Ji
    out[..., 3:, :3] = -Ji @ Q @ Ji
    return out


def interpolate(Ti, Tk, alpha):
    """Geodesic interpolation Ti * exp(alpha * log(Ti^-1 Tk)).

    ``alpha`` may be scalar or batched; 0 returns Ti, 1 returns Tk.
    """
    Ti = np.asarray(Ti, dtype=float)
    Tk = np.asarray(Tk, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    xi = se3_log(se3_inv(Ti) @ Tk)
    return Ti @ se3_exp(alpha[..., None] * xi)

