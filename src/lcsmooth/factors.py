"""Error terms of the trajectory-smoothing objective and their Jacobians.

One pure function per factor form, batched over a leading axis of stacked
states: poses (m, 4, 4), generalized velocities (m, 6).  Each returns
``(e, J_a, J_b)``: the errors (m, d) and the Jacobian blocks (m, d, c) with
respect to the states of its first and second node (``J_b`` is None for a
unary factor).  With ``jacobians=False`` only the errors are computed and
both Jacobians are None.  Pose errors are left-invariant, so Jacobians are
taken with respect to the perturbation ``T = T_bar @ exp(-delta_xi^)``,
``varpi = varpi_bar + delta_varpi``.

Pose/velocity factors (prior, constant-velocity process) carry 12-column
blocks; pose-only factors (relative pose, observable states) carry blocks
acting on ``delta_xi`` alone, with the velocity block implicitly zero.
The weights are attached by the solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lie


@dataclass(frozen=True)
class PriorBelief:
    """Prior on the first navigation state: pose, velocity, 12x12 covariance."""

    pose: np.ndarray
    varpi: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pose", np.asarray(self.pose, dtype=float))
        object.__setattr__(self, "varpi", np.asarray(self.varpi, dtype=float))
        object.__setattr__(self, "cov", np.asarray(self.cov, dtype=float))
        if self.cov.shape != (12, 12):
            raise ValueError("prior covariance must be 12x12")
        require_spd(self.cov, "prior covariance")


@dataclass(frozen=True)
class LoopClosureMeasurement:
    """Relative pose between two trajectory nodes with 6x6 covariance."""

    idx_l1: int
    idx_l2: int
    xi_meas: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "xi_meas", np.asarray(self.xi_meas, dtype=float))
        object.__setattr__(self, "cov", np.asarray(self.cov, dtype=float))
        if not self.idx_l1 < self.idx_l2:
            raise ValueError("loop closure requires idx_l1 < idx_l2")
        if self.cov.shape != (6, 6):
            raise ValueError("loop closure covariance must be 6x6")
        require_spd(self.cov, "loop closure covariance")


class NonFiniteInputError(ValueError):
    """Input holding NaN or infinity; ``index`` is the first offending data
    row, node or loop closure, as the message names it."""

    def __init__(self, message, index):
        super().__init__(message)
        self.index = index


def require_spd(M, name):
    M = np.asarray(M, dtype=float)
    if not np.allclose(M, M.T, atol=1e-9):
        raise ValueError(f"{name} is not symmetric")
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        raise ValueError(f"{name} is not positive definite") from None
    return M


def prior(pose, varpi, prior_pose, prior_varpi, jacobians):
    """Prior factor; error [log(T^-1 Y)^v; varpi - psi]."""
    e_xi = lie.se3_log(lie.se3_inv(pose) @ prior_pose)
    e = np.concatenate([e_xi, varpi - prior_varpi], axis=-1)
    if not jacobians:
        return e, None, None
    J = np.zeros(e.shape + (12,))
    J[..., :6, :6] = lie.left_jacobian_inv(e_xi)
    J[..., 6:, 6:] = np.eye(6)
    return e, J, None


def wnoa(pose_a, varpi_a, pose_b, varpi_b, dt, jacobians):
    """Constant-velocity process factor from node a to node b, dt seconds later."""
    tv = np.asarray(dt)[..., None] * varpi_a
    e_xi = lie.se3_log(lie.se3_inv(pose_b) @ (pose_a @ lie.se3_exp(tv)))
    e = np.concatenate([e_xi, varpi_b - varpi_a], axis=-1)
    if not jacobians:
        return e, None, None
    Jr_inv = lie.right_jacobian_inv(e_xi)
    J_a = np.zeros(e.shape + (12,))
    J_a[..., :6, :6] = -Jr_inv @ lie.adjoint(lie.se3_exp(-tv))
    J_a[..., :6, 6:] = np.asarray(dt)[..., None, None] * (Jr_inv @ lie.right_jacobian(tv))
    J_a[..., 6:, 6:] = -np.eye(6)
    J_b = np.zeros(e.shape + (12,))
    J_b[..., :6, :6] = lie.left_jacobian_inv(e_xi)
    J_b[..., 6:, 6:] = np.eye(6)
    return e, J_a, J_b


def relative_pose(pose_a, pose_b, xi, jacobians):
    """Relative-pose factor; error log(T_b^-1 T_a Xi)^v, 6x6 pose blocks.

    Serves both the loop closures and the consecutive relative-pose factors
    captured from the initializing trajectory.
    """
    e = lie.se3_log(lie.se3_inv(pose_b) @ pose_a @ xi)
    if not jacobians:
        return e, None, None
    J_a = -lie.right_jacobian_inv(e) @ lie.adjoint(lie.se3_inv(xi))
    return e, J_a, lie.left_jacobian_inv(e)


def observable(pose, prior_pose, jacobians):
    """Roll/pitch/depth factor tying a node to its black-box prior pose.

    The error is D E log(T^-1 Tcheck)^v with E mapping the body-frame
    translation error into the world frame and D selecting roll, pitch and
    the down component; the depth row reduces exactly to the world-frame
    down-component of the position difference.  The Jacobian uses that
    reduction, which makes it exact at the linearization point (the
    e_rho -> 0 approximation would leave an O(|e|) residual in the depth
    row's rotation columns).
    """
    e_xi = lie.se3_log(lie.se3_inv(pose) @ prior_pose)
    Jphi = lie.so3_left_jacobian(e_xi[..., :3])
    world_rho = (pose[..., :3, :3] @ Jphi @ e_xi[..., 3:, None])[..., 0]
    e = np.stack([e_xi[..., 0], e_xi[..., 1], world_rho[..., 2]], axis=-1)
    if not jacobians:
        return e, None, None
    J = np.zeros(e.shape + (6,))
    J[..., :2, :3] = lie.so3_left_jacobian_inv(e_xi[..., :3])[..., :2, :]
    J[..., 2, 3:] = pose[..., 2, :3]
    return e, J, None
