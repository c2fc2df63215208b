"""White-noise-on-acceleration motion prior.

Continuous-time error kinematics, their discrete transition matrix, and the
third-order discretization of the process noise covariance.  State-error
vectors are ordered (delta_xi, delta_varpi), each block rotation-first.
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


def q_expansion(varpi_bar, psd, dt):
    """Symmetrized truncated-series process-noise discretization, no clamping.

    Carries the expansion through fourth order in the error-kinematics matrix;
    the third-order truncation falls just short of the 1e-6 agreement with the
    exact matrix-exponential construction at dt = 0.1 s, unit velocity.
    Batched over leading dimensions of varpi_bar/dt.
    """
    varpi_bar = np.asarray(varpi_bar, dtype=float)
    dt = np.asarray(dt, dtype=float)
    if np.any(dt <= 0.0):
        raise ValueError("dt must be positive")
    shape = np.broadcast_shapes(varpi_bar.shape[:-1], dt.shape)
    A = np.zeros(shape + (12, 12))
    A[..., :6, :6] = -lie.small_adjoint(varpi_bar)
    A[..., :6, 6:] = -np.eye(6)
    U = np.zeros((12, 12))
    U[6:, 6:] = psd.matrix()

    At = np.swapaxes(A, -1, -2)
    AU = A @ U
    UAt = np.swapaxes(AU, -1, -2)
    A2 = A @ A
    A2t = np.swapaxes(A2, -1, -2)
    A3 = A2 @ A
    A3t = np.swapaxes(A3, -1, -2)
    A4 = A2 @ A2
    dt = dt[..., None, None]
    Q = (
        dt * U
        + (dt**2 / 2.0) * (AU + UAt)
        + (dt**3 / 6.0) * (A2 @ U + 2.0 * (AU @ At) + U @ A2t)
        + (dt**4 / 24.0) * (A3 @ U + 3.0 * (A2 @ U @ At) + 3.0 * (AU @ A2t) + U @ A3t)
        + (dt**5 / 120.0)
        * (
            A4 @ U
            + 4.0 * (A3 @ U @ At)
            + 6.0 * (A2 @ U @ A2t)
            + 4.0 * (AU @ A3t)
            + U @ np.swapaxes(A4, -1, -2)
        )
    )
    return 0.5 * (Q + np.swapaxes(Q, -1, -2))


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


def process_weight(varpi_bar, psd, dt):
    """Inverse of the discretized process noise, spectrum-floored to stay PD.

    The truncated series can lose rank far outside the motion-prior regime
    (large |varpi|*dt); the floor keeps the weight finite there.
    """
    Q = q_expansion(varpi_bar, psd, dt)
    w, V = np.linalg.eigh(Q)
    w = np.maximum(w, 1e-12 * np.abs(w[..., -1:]))
    return (V / w[..., None, :]) @ np.swapaxes(V, -1, -2)
