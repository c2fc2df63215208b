"""Error terms of the trajectory-smoothing objective and their Jacobians.

One pure function per factor form, batched over a leading axis of stacked
states: poses (m, 4, 4), generalized velocities (m, 6).  Each returns
``(e, J_a, J_b)``: the errors (m, d) and the Jacobian blocks (m, d, c) with
respect to the states of its first and second node (``J_b`` is None for a
unary factor).  Pose errors are left-invariant, so Jacobians are taken with
respect to the perturbation ``T = T_bar @ exp(-delta_xi^)``,
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
class LoopClosureMeasurement:
    """Relative pose between two trajectory nodes with 6x6 covariance;
    ``solver.FactorGraph.validate`` checks it."""

    idx_l1: int
    idx_l2: int
    xi_meas: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "xi_meas", np.asarray(self.xi_meas, dtype=float))
        object.__setattr__(self, "cov", np.asarray(self.cov, dtype=float))


class NonFiniteInputError(ValueError):
    """A graph input holding NaN or infinity; ``index`` is the first
    offending node or loop closure, as the message names it."""

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


def prior(pose, varpi, prior_pose, prior_varpi):
    """Prior factor [log(T^-1 Y)^v; varpi - psi]; pose part relative_pose(Y, T, I)."""
    e_xi, _, J_xi = relative_pose(prior_pose, pose, np.eye(4))
    e = np.concatenate([e_xi, varpi - prior_varpi], axis=-1)
    J = np.zeros(e.shape + (12,))
    J[..., :6, :6] = J_xi
    J[..., 6:, 6:] = np.eye(6)
    return e, J, None


def wnoa(pose_a, varpi_a, pose_b, varpi_b, dt):
    """Constant-velocity process factor from node a to node b, dt seconds later.

    Pose error and pose blocks are relative_pose(T_a, T_b, exp(dt varpi_a));
    with P_a node a's pose block, its velocity block is -dt P_a J_l(dt varpi_a).
    """
    dt = np.asarray(dt)
    tv = dt[..., None] * varpi_a
    e_xi, P_a, P_b = relative_pose(pose_a, pose_b, lie.se3_exp(tv))
    e = np.concatenate([e_xi, varpi_b - varpi_a], axis=-1)
    J_a = np.zeros(e.shape + (12,))
    J_a[..., :6, :6] = P_a
    J_a[..., :6, 6:] = -dt[..., None, None] * (P_a @ lie.left_jacobian(tv))
    J_a[..., 6:, 6:] = -np.eye(6)
    J_b = np.zeros(e.shape + (12,))
    J_b[..., :6, :6] = P_b
    J_b[..., 6:, 6:] = np.eye(6)
    return e, J_a, J_b


def relative_pose(pose_a, pose_b, xi):
    """Relative-pose factor; error log(T_b^-1 T_a Xi)^v, 6x6 pose blocks.

    The objective's one pose error: the loop closures, the consecutive
    relative-pose factors captured from the initializing trajectory, and the
    pose parts of the prior and the process factor.  Node a's block is
    -J_r^-1(e) Ad(Xi^-1), taken through J_r^-1(e) = J_l^-1(e) Ad(exp e)
    (Barfoot 2017, ch. 7) and exp e = T_b^-1 T_a Xi: -J_l^-1(e) Ad(T_b^-1 T_a).
    """
    T_ba = lie.between(pose_b, pose_a)
    e = lie.se3_log(T_ba @ xi)
    Jl_inv = lie.left_jacobian_inv(e)
    return e, -Jl_inv @ lie.adjoint(T_ba), Jl_inv


def observable(pose, prior_pose):
    """Roll/pitch/depth factor tying a node to its black-box prior pose.

    The error is D E log(T^-1 Tcheck)^v with E mapping the body-frame
    translation error into the world frame and D selecting roll, pitch and
    the down component.  The rows are read directly: roll and pitch from
    log(C^T Ccheck)^v, and depth as rcheck_z - r_z, to which the down row
    reduces exactly.  The Jacobian uses that reduction, which makes it exact
    at the linearization point (the e_rho -> 0 approximation would leave an
    O(|e|) residual in the depth row's rotation columns).
    """
    e_phi = lie.so3_log(np.swapaxes(pose[..., :3, :3], -1, -2) @ prior_pose[..., :3, :3])
    depth = prior_pose[..., 2, 3] - pose[..., 2, 3]
    e = np.stack([e_phi[..., 0], e_phi[..., 1], depth], axis=-1)
    J = np.zeros(e.shape + (6,))
    J[..., :2, :3] = lie.so3_left_jacobian_inv(e_phi)[..., :2, :]
    J[..., 2, 3:] = pose[..., 2, :3]
    return e, J, None
