"""Reference implementations that the tests compare the package against.

None of this runs in the pipeline.  It holds the sparse assembly of the whole
least-squares problem (the oracle of the structured Schur step and of the
dense solver check), the continuous-time WNOA error kinematics with their
closed-form transition matrix and the process noise as one 12 x 12 matrix,
the se(3) hat/vee maps, the SE(3) right Jacobian, the log of each relative pose error, the terrain
gradient on its own pass over the bumps, profile registration one profile
record at a time, the world-frame crop that masks the whole cloud, voxel
grouping by a row-wise ``np.unique``, the normals of all points in one
k-nearest-neighbor query, and the ICP cost with one branch per error kind.
"""

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree

from lcsmooth import frontend, lie, solver, wnoa

# ---------------------------------------------------------------------------
# se(3) hat/vee


def unskew(S):
    """Inverse of :func:`lie.skew`; uses the antisymmetric part of the input."""
    S = np.asarray(S, dtype=float)
    return 0.5 * np.stack(
        [
            S[..., 2, 1] - S[..., 1, 2],
            S[..., 0, 2] - S[..., 2, 0],
            S[..., 1, 0] - S[..., 0, 1],
        ],
        axis=-1,
    )


def se3_wedge(xi):
    """Map (...,6) twists (phi, rho) to (...,4,4) Lie algebra matrices."""
    xi = np.asarray(xi, dtype=float)
    X = np.zeros(xi.shape[:-1] + (4, 4))
    X[..., :3, :3] = lie.skew(xi[..., :3])
    X[..., :3, 3] = xi[..., 3:]
    return X


def se3_vee(X):
    X = np.asarray(X, dtype=float)
    return np.concatenate([unskew(X[..., :3, :3]), X[..., :3, 3]], axis=-1)


def right_jacobian(xi):
    """SE(3) right Jacobian; equals the left Jacobian at the negated twist."""
    return lie.left_jacobian(-np.asarray(xi, dtype=float))


def is_rotation(C, tol=1e-9):
    C = np.asarray(C, dtype=float)
    ortho = np.abs(C @ np.swapaxes(C, -1, -2) - np.eye(3)).max() <= tol
    return bool(ortho and np.abs(np.linalg.det(C) - 1.0).max() <= tol)


# ---------------------------------------------------------------------------
# WNOA error kinematics and process noise


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
    out[..., :6, 6:] = -dt[..., None, None] * right_jacobian(tv)
    out[..., 6:, 6:] = np.eye(6)
    return out


def q_expansion(varpi_bar, psd, dt):
    """The truncated-series process noise as one 12 x 12 matrix.

    Carries the expansion through fourth order in the error-kinematics matrix;
    the third-order truncation falls just short of the 1e-6 agreement with the
    exact matrix-exponential construction at dt = 0.1 s, unit velocity.  The
    matrix is assembled from the blocks of ``wnoa._q_blocks`` and is
    symmetric to the bit.  Batched over leading dimensions of varpi_bar/dt.
    """
    Q_pp, Q_pv, q_vv = wnoa._q_blocks(varpi_bar, psd, dt)
    Q = np.zeros(Q_pp.shape[:-2] + (12, 12))
    Q[..., :6, :6] = Q_pp
    Q[..., :6, 6:] = Q_pv
    Q[..., 6:, :6] = np.swapaxes(Q_pv, -1, -2)
    Q[..., range(6, 12), range(6, 12)] = q_vv
    return Q


# ---------------------------------------------------------------------------
# Sparse assembly


def _block_coo(data_blocks, row0, col0):
    """COO triplets for stacked (M, a, b) blocks at given row/col offsets."""
    m, a, b = data_blocks.shape
    rows = np.broadcast_to(
        (row0[:, None, None] + np.arange(a)[None, :, None]), (m, a, b)
    )
    cols = np.broadcast_to(
        (col0[:, None, None] + np.arange(b)[None, None, :]), (m, a, b)
    )
    return np.ascontiguousarray(data_blocks).ravel(), rows.ravel(), cols.ravel()


def _coo_matrix(parts, shape):
    data, rows, cols = (np.concatenate(p) for p in zip(*parts))
    return sp.coo_matrix((data, (rows, cols)), shape=shape).tocsr()


def assemble(graph: solver.FactorGraph, robust_weights=None):
    """Stacked error vector, block-sparse Jacobian, and block-diagonal weight.

    Block-row ordering: prior, WNOA (k = 1..K), loop closures, relative pose,
    observable states.  Pose-only factor blocks occupy the first six columns
    of their node's 12-wide block.  Each weight block is S^T S of the
    factor's whitener S.  ``robust_weights`` scales the loop-closure weight
    blocks when given.
    """
    graph.validate()
    terms = solver._linearize(graph)
    if robust_weights is not None:
        terms = solver._with_loop_weights(terms, robust_weights)
    err_parts, gamma_parts, w_parts = [], [], []
    row = 0
    for f in terms.values():
        m, d = f.e.shape
        r0 = row + d * np.arange(m)
        err_parts.append(f.e.ravel())
        for J, nodes in f.slots():
            gamma_parts.append(_block_coo(J, r0, 12 * nodes))
        w_parts.append(_block_coo(np.swapaxes(f.S, -1, -2) @ f.S, r0, r0))
        row += d * m
    gamma = _coo_matrix(gamma_parts, (row, 12 * graph.num_nodes))
    return np.concatenate(err_parts), gamma, _coo_matrix(w_parts, (row, row))


# ---------------------------------------------------------------------------
# Terrain gradient and world-frame crop, each as a separate full pass


def terrain_grad(terrain, x, y):
    """``(d depth / dx, d depth / dy)`` of a ``sim.TerrainSpec``, without the depth."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    gx = np.zeros(np.broadcast_shapes(x.shape, y.shape))
    gy = np.zeros_like(gx)
    for bx, by, amp, sig in terrain.bumps:
        e = amp * np.exp(-((x - bx) ** 2 + (y - by) ** 2) / (2.0 * sig**2))
        gx = gx + e * (x - bx) / sig**2
        gy = gy + e * (y - by) / sig**2
    return gx, gy


def relative_error_vectors(estimate, truth, anchor):
    """(N, 6) log of each anchored relative pose error, the twist whose
    attitude part ``metrics.relative_pose_errors`` reports."""
    d_truth = lie.se3_inv(truth.poses[anchor]) @ truth.poses
    d_est = lie.se3_inv(estimate.poses[anchor]) @ estimate.poses
    return lie.se3_log(lie.se3_inv(d_truth) @ d_est)


def register_profiles(profiles, trajectory):
    """``frontend.register_profiles`` over per-profile records (``.timestamp``,
    ``.points``): one product per record, records in stable stamp order."""
    stamps = np.array([p.timestamp for p in profiles])
    in_span = (stamps >= trajectory.times[0]) & (stamps <= trajectory.times[-1])
    rejected = int(np.sum(~in_span))
    order = np.flatnonzero(in_span)[np.argsort(stamps[in_span], kind="stable")]
    if not len(order):
        return frontend.PointCloud(np.zeros((0, 3)), np.zeros(0)), rejected
    kept = [profiles[i] for i in order]
    poses = trajectory.pose_at(stamps[order])
    pts = [p.points @ T[:3, :3].T + T[:3, 3] for T, p in zip(poses, kept)]
    times = [np.full(len(p.points), p.timestamp) for p in kept]
    return frontend.PointCloud(np.vstack(pts), np.concatenate(times)), rejected


def crop_world(cloud, center_xy, radius, t_center, window):
    """World-frame crop by one mask over every point of the cloud."""
    center_xy = np.asarray(center_xy, dtype=float)
    mask = np.linalg.norm(cloud.points[:, :2] - center_xy, axis=1) <= radius
    mask &= np.abs(cloud.times - t_center) <= window
    return frontend.PointCloud(cloud.points[mask], cloud.times[mask])


def voxel_downsample(points, cell):
    """Voxel centroids grouped by ``np.unique`` over the integer key rows."""
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    keys = np.floor(points / cell).astype(np.int64)
    _, inverse, counts = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
    sums = np.zeros((len(counts), 3))
    np.add.at(sums, inverse, points)
    return sums / counts[:, None]


# ---------------------------------------------------------------------------
# ICP cost, one branch per error kind


def estimate_normals_and_variation(pts, k):
    """``frontend.estimate_normals_and_variation`` with every point's
    neighborhood gathered in one query, not in blocks."""
    _, idx = cKDTree(pts).query(pts, k=k + 1)
    nbrs = pts[idx]
    centered = nbrs - nbrs.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered) / (k + 1)
    evals, evecs = np.linalg.eigh(cov)
    normals = evecs[:, :, 0]
    total = evals.sum(axis=1)
    variation = np.where(total > 0, evals[:, 0] / np.where(total > 0, total, 1.0), 0.0)
    valid = evals[:, 1] > 1e-8 * np.maximum(evals[:, 2], 1e-300)
    flip = np.einsum("ni,ni->n", normals, pts) > 0
    normals[flip] *= -1.0
    return normals, variation, valid


def icp_cost(src, tgt, nrm, use_plane, sigma):
    """Mixed alignment cost of fixed correspondences ``(objective, H, b)``.

    Point-to-plane errors where ``use_plane``, point-to-point errors
    elsewhere, each weighted by ``1 / sigma**2``.  ``H`` and ``b`` are the
    Gauss-Newton normal equations under the update q -> exp(dphi) q + drho.
    """
    w = 1.0 / sigma**2
    obj = 0.0
    H = np.zeros((6, 6))
    b = np.zeros(6)
    if np.any(use_plane):
        q = src[use_plane]
        n = nrm[use_plane]
        r = np.einsum("ni,ni->n", n, q - tgt[use_plane])
        obj += w * np.sum(r**2)
        A = np.hstack([np.cross(q, n), n])
        H += w * A.T @ A
        b += w * A.T @ r
    if np.any(~use_plane):
        q = src[~use_plane]
        r = q - tgt[~use_plane]
        obj += w * np.sum(r**2)
        A = np.zeros((len(q), 3, 6))
        A[:, :, :3] = -lie.skew(q)
        A[:, :, 3:] = np.eye(3)
        H += w * np.einsum("nij,nik->jk", A, A)
        b += w * np.einsum("nij,ni->j", A, r)
    return 0.5 * obj, H, b
