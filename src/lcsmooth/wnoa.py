"""White-noise-on-acceleration motion prior.

Continuous-time error kinematics, their discrete transition matrix, and the
fourth-order series discretization of the process noise covariance and of its
inverse, both in closed 6 x 6 block form.  State-error vectors are ordered
(delta_xi, delta_varpi), each block rotation-first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lie


@dataclass(frozen=True)
class WnoaPsd:
    """Power spectral densities on body angular/linear acceleration.

    q_omega in rad^2 s^-3, q_nu in m^2 s^-3; both strictly positive.
    """

    q_omega: float
    q_nu: float

    def __post_init__(self):
        if not (self.q_omega > 0.0 and self.q_nu > 0.0):
            raise ValueError("WNOA PSDs must be strictly positive")

    def matrix(self):
        return np.diag([self.q_omega] * 3 + [self.q_nu] * 3)


def error_kinematics(varpi_bar):
    """Continuous-time error kinematics (A, L) at operating velocity varpi_bar."""
    varpi_bar = np.asarray(varpi_bar, dtype=float)
    A = np.zeros((12, 12))
    A[:6, :6] = -lie.small_adjoint(varpi_bar)
    A[:6, 6:] = -np.eye(6)
    L = np.zeros((12, 6))
    L[6:, :] = np.eye(6)
    return A, L


def transition_matrix(varpi_bar, dt):
    """Discrete state-error transition over dt seconds; batched over leading dims."""
    varpi_bar = np.asarray(varpi_bar, dtype=float)
    dt = np.asarray(dt, dtype=float)
    if np.any(dt <= 0.0):
        raise ValueError("dt must be positive")
    tv = dt[..., None] * varpi_bar
    shape = tv.shape[:-1]
    out = np.zeros(shape + (12, 12))
    out[..., :6, :6] = lie.adjoint(lie.se3_exp(-tv))
    out[..., :6, 6:] = -dt[..., None, None] * lie.right_jacobian(tv)
    out[..., 6:, 6:] = np.eye(6)
    return out


def _q_blocks(varpi_bar, psd, dt):
    """The fourth-order series for the process noise, in 6 x 6 blocks.

    With A = [[a, -I], [0, 0]], a = -ad(varpi_bar), and U = diag(0, Q_c),
    A^k U = [[0, -a^(k-1) Q_c], [0, 0]], so every term of the series is a
    power of a:

        Q_vv = dt Q_c
        Q_pv = -(dt^2/2 I + dt^3/6 a + dt^4/24 a^2 + dt^5/120 a^3) Q_c
        Q_pp = dt^3/3 Q_c + dt^4/8 (a Q_c + Q_c a^T)
               + dt^5/120 (4 a^2 Q_c + 6 a Q_c a^T + 4 Q_c a^2T)

    Returns (Q_pp, Q_pv, q_vv), q_vv the diagonal of Q_vv; Q_pp is exactly
    symmetric.  Batched over leading dimensions of varpi_bar/dt.
    """
    varpi_bar = np.asarray(varpi_bar, dtype=float)
    dt = np.asarray(dt, dtype=float)
    if np.any(dt <= 0.0):
        raise ValueError("dt must be positive")
    q_c = np.diag(psd.matrix())
    diag = (..., range(6), range(6))
    a = -lie.small_adjoint(varpi_bar)
    a2 = a @ a
    aQ = a * q_c
    t1 = dt[..., None, None]
    t2 = t1 * t1
    t3 = t2 * t1
    t4 = t3 * t1
    t5 = t4 * t1
    P = t3 / 6.0 * a + t4 / 24.0 * a2 + t5 / 120.0 * (a2 @ a)
    P[diag] += t2[..., 0] / 2.0
    # Q_pp = B + B^T, with half of each symmetric term in B
    B = t4 / 8.0 * aQ + t5 / 120.0 * (4.0 * (a2 * q_c) + 3.0 * (aQ @ np.swapaxes(a, -1, -2)))
    B[diag] += t3[..., 0] / 6.0 * q_c
    return B + np.swapaxes(B, -1, -2), P * -q_c, dt[..., None] * q_c


def q_expansion(varpi_bar, psd, dt):
    """Truncated-series process-noise discretization, no clamping.

    Carries the expansion through fourth order in the error-kinematics matrix;
    the third-order truncation falls just short of the 1e-6 agreement with the
    exact matrix-exponential construction at dt = 0.1 s, unit velocity.  The
    12 x 12 matrix is assembled from the blocks of ``_q_blocks`` and is
    symmetric to the bit.  Batched over leading dimensions of varpi_bar/dt.
    """
    Q_pp, Q_pv, q_vv = _q_blocks(varpi_bar, psd, dt)
    Q = np.zeros(Q_pp.shape[:-2] + (12, 12))
    Q[..., :6, :6] = Q_pp
    Q[..., :6, 6:] = Q_pv
    Q[..., 6:, :6] = np.swapaxes(Q_pv, -1, -2)
    Q[..., range(6, 12), range(6, 12)] = q_vv
    return Q


def discretize_q(varpi_bar, psd, dt):
    """Discretized WNOA process noise, eigenvalue-clamped to PSD.

    The truncation can produce asymmetry and slightly negative eigenvalues at
    machine precision; downstream factorizations require a PSD matrix.
    """
    Q = q_expansion(varpi_bar, psd, dt)
    w, V = np.linalg.eigh(Q)
    if np.any(w < -1e-12):
        w = np.clip(w, 0.0, None)
        Q = (V * w[..., None, :]) @ np.swapaxes(V, -1, -2)
        Q = 0.5 * (Q + np.swapaxes(Q, -1, -2))
    return Q


def _lower_inverse(L):
    """Inverse of lower-triangular blocks by forward substitution, batched.

    Six vectorized row steps; ``np.linalg.inv`` makes one LAPACK call per
    block, which costs several times more on a stack of 6 x 6 blocks.
    """
    R = np.zeros_like(L)
    for i in range(L.shape[-1]):
        row = -(L[..., i : i + 1, :i] @ R[..., :i, :])[..., 0, :]
        row[..., i] += 1.0
        R[..., i, :] = row / L[..., i, i, None]
    return R


def _inverse_factor(S):
    """R with R^T R = S^-1, per 6 x 6 block: the inverse Cholesky factor.

    Where the Cholesky factorization of a block fails, that block alone gets
    R = diag(w)^-1/2 V^T from its spectrum S = V diag(w) V^T, with w floored
    at 1e-12 of the largest eigenvalue, so R^T R stays finite and positive
    definite.
    """
    try:
        return _lower_inverse(np.linalg.cholesky(S))
    except np.linalg.LinAlgError:
        pass
    R = np.empty_like(S)
    for i in np.ndindex(S.shape[:-2]):
        try:
            R[i] = _lower_inverse(np.linalg.cholesky(S[i]))
        except np.linalg.LinAlgError:
            w, V = np.linalg.eigh(S[i])
            w = np.maximum(w, 1e-12 * np.abs(w[-1]))
            R[i] = V.T / np.sqrt(w)[:, None]
    return R


def process_weight(varpi_bar, psd, dt):
    """Inverse W of the discretized process noise, by blocks.

    With G = Q_pv Q_vv^-1 and the Schur complement S = Q_pp - G Q_pv^T,
    W_pp = S^-1, W_pv = -W_pp G and W_vv = Q_vv^-1 + G^T W_pp G.  Q_vv is
    diagonal, and S^-1 = R^T R comes from one batched 6 x 6 Cholesky
    factorization (``_inverse_factor``), so that W_pp = R^T R and
    W_vv = Q_vv^-1 + (R G)^T (R G) are Gram products.  The truncated series
    can lose definiteness far outside the motion-prior regime
    (|varpi| dt >~ 2); on those edges alone S's spectrum is floored, which
    keeps W finite and positive definite.  Batched over leading dimensions
    of varpi_bar/dt.
    """
    Q_pp, Q_pv, q_vv = _q_blocks(varpi_bar, psd, dt)
    G = Q_pv / q_vv[..., None, :]
    R = _inverse_factor(Q_pp - G @ np.swapaxes(Q_pv, -1, -2))
    RG = R @ G
    Rt = np.swapaxes(R, -1, -2)
    W_pv = -(Rt @ RG)
    W = np.empty(Q_pp.shape[:-2] + (12, 12))
    W[..., :6, :6] = Rt @ R
    W[..., :6, 6:] = W_pv
    W[..., 6:, :6] = np.swapaxes(W_pv, -1, -2)
    W[..., 6:, 6:] = np.swapaxes(RG, -1, -2) @ RG
    W[..., range(6, 12), range(6, 12)] += 1.0 / q_vv
    return W
