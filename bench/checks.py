"""Output checks for the benchmark, computed apart from lcsmooth.

Every check compares the program's outputs with the simulation truth or
with properties the method must have; none compares against a stored copy
of earlier output.  The geometry (quaternions, anchored errors, terrain
height, nearest-neighbour disparity) is recomputed here with numpy/scipy
only, so a fault in the program's own helpers cannot hide itself.  Each
check returns a list of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree


# ---------------------------------------------------------------------------
# Readers for the documented CSV schemas


def read_trajectory_csv(path):
    """(times, poses) from a ``t, rx, ry, rz, qw, qx, qy, qz`` file."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], poses_from(quat_to_rot(data[:, 4:8]), data[:, 1:4])


def read_profiles_csv(path):
    """(t, xyz) rows of a ``t, x, y, z`` profile file."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1:4]


def read_loop_closures_csv(path):
    """(t1, t2, poses, variances) of a loop-closure file."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.size == 0:
        return np.zeros(0), np.zeros(0), np.zeros((0, 4, 4)), np.zeros((0, 6))
    return (
        data[:, 0],
        data[:, 1],
        poses_from(data[:, 2:11].reshape(-1, 3, 3), data[:, 11:14]),
        data[:, 14:20],
    )


# ---------------------------------------------------------------------------
# Geometry


def quat_to_rot(q):
    """Rotation matrices from Hamilton scalar-first quaternions (normalized here)."""
    q = np.asarray(q, dtype=float)
    q = q / np.linalg.norm(q, axis=-1, keepdims=True)
    w, x, y, z = np.moveaxis(q, -1, 0)
    return np.stack(
        [
            np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], -1),
            np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], -1),
            np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], -1),
        ],
        -2,
    )


def poses_from(C, r):
    T = np.zeros(C.shape[:-2] + (4, 4))
    T[..., :3, :3] = C
    T[..., :3, 3] = r
    T[..., 3, 3] = 1.0
    return T


def inv(T):
    out = np.zeros_like(T)
    Ct = np.swapaxes(T[..., :3, :3], -1, -2)
    out[..., :3, :3] = Ct
    out[..., :3, 3] = -(Ct @ T[..., :3, 3:4])[..., 0]
    out[..., 3, 3] = 1.0
    return out


def rotation_angle_axis(C):
    """Rotation vector of (near-identity) rotations, from the trace and skew part."""
    cos = np.clip((np.trace(C, axis1=-2, axis2=-1) - 1.0) / 2.0, -1.0, 1.0)
    angle = np.arccos(cos)
    w = 0.5 * np.stack(
        [C[..., 2, 1] - C[..., 1, 2], C[..., 0, 2] - C[..., 2, 0], C[..., 1, 0] - C[..., 0, 1]],
        -1,
    )
    s = np.linalg.norm(w, axis=-1)
    scale = np.where(s > 1e-12, angle / np.maximum(s, 1e-300), 1.0)
    return w * scale[..., None]


def anchored_planar_error(est_poses, truth_poses, anchor):
    """Planar norm of the anchored relative pose error at every node."""
    d_truth = inv(truth_poses[anchor]) @ truth_poses
    d_est = inv(est_poses[anchor]) @ est_poses
    E = inv(d_truth) @ d_est
    return np.linalg.norm(E[:, :2, 3], axis=1)


def terrain_height(bumps, base_depth, x, y):
    """Depth and its gradient of the flat-plus-Gaussian-bumps seabed."""
    d = np.full(x.shape, float(base_depth))
    gx = np.zeros(x.shape)
    gy = np.zeros(x.shape)
    for bx, by, amp, sig in bumps:
        e = amp * np.exp(-((x - bx) ** 2 + (y - by) ** 2) / (2.0 * sig * sig))
        d -= e
        gx += e * (x - bx) / (sig * sig)
        gy += e * (y - by) / (sig * sig)
    return d, gx, gy


def node_index(times, query, tol=1e-6):
    """Node index of each query time, -1 where no node is within ``tol``."""
    i = np.clip(np.searchsorted(times, query), 1, len(times) - 1)
    left = np.abs(times[i - 1] - query) <= np.abs(times[i] - query)
    i = np.where(left, i - 1, i)
    return np.where(np.abs(times[i] - query) <= tol, i, -1)


# ---------------------------------------------------------------------------
# Checks


def check_profiles_on_terrain(stamps, points, times, truth_poses, bumps, base_depth,
                              noise_sigma, k=6.0):
    """Profile points at node times, placed along the truth, lie on the terrain.

    The residual is measured along depth; horizontal noise moves the point on
    the slope, so the allowed residual is ``k * sigma * sqrt(1 + |grad|^2)``.
    Only profiles captured at a node time are used, so no interpolation of
    the truth enters the check.
    """
    idx = node_index(times, stamps)
    use = idx >= 0
    if use.sum() < 0.25 * len(stamps):
        return [f"only {int(use.sum())} of {len(stamps)} profile points at node times"]
    T = truth_poses[idx[use]]
    world = np.einsum("nij,nj->ni", T[:, :3, :3], points[use]) + T[:, :3, 3]
    fails = []
    worst = 0.0
    sq = 0.0
    for s in range(0, len(world), 200_000):
        w = world[s : s + 200_000]
        d, gx, gy = terrain_height(bumps, base_depth, w[:, 0], w[:, 1])
        z = (w[:, 2] - d) / (noise_sigma * np.sqrt(1.0 + gx * gx + gy * gy))
        worst = max(worst, float(np.abs(z).max()))
        sq += float(np.sum(z * z))
    rms = np.sqrt(sq / len(world))
    if worst > k:
        fails.append(f"profile point {worst:.1f} noise sigmas off the terrain (limit {k})")
    if not 0.5 < rms < 1.5:
        fails.append(f"profile residual rms {rms:.2f} sigmas, expected about 1")
    return fails


def check_closures_vs_truth(idx1, idx2, closure_poses, variances, truth_poses, k=5.0):
    """Each closure's relative pose is within ``k`` stated sigmas of the truth's."""
    fails = []
    truth_rel = inv(truth_poses[idx1]) @ truth_poses[idx2]
    E = inv(truth_rel) @ closure_poses
    phi = rotation_angle_axis(E[:, :3, :3])
    rho = E[:, :3, 3]
    z = np.abs(np.hstack([phi, rho])) / np.sqrt(variances)
    for j in np.flatnonzero(z.max(axis=1) > k):
        fails.append(
            f"closure {j} (nodes {idx1[j]}, {idx2[j]}) is {z[j].max():.1f} sigmas from the truth"
        )
    return fails


def check_posterior_error(post_err, prior_err, sigma_rho, label=""):
    """The posterior is nowhere worse than the prior, where it is off by more
    than one closure sigma.

    Near the anchor the dead-reckoned prior can be better than the closures'
    precision, so a posterior within ``sigma_rho`` of the truth passes there.
    """
    bad = (post_err > prior_err * 1.05 + 0.002) & (post_err > sigma_rho)
    if not bad.any():
        return []
    i = int(np.argmax(np.where(bad, post_err - prior_err, -np.inf)))
    return [
        f"{label}posterior error above the prior's at {int(bad.sum())} nodes "
        f"(node {i}: {post_err[i]:.4f} m vs {prior_err[i]:.4f} m)"
    ]


def check_closure_nodes(post_err, closure_nodes, sigma_rho, label=""):
    """The anchored posterior error is within 3 sigma_rho at every closure node."""
    worst = float(post_err[closure_nodes].max())
    if worst > 3.0 * sigma_rho:
        return [
            f"{label}posterior error {worst:.4f} m at a closure node exceeds "
            f"3 sigma_rho = {3.0 * sigma_rho:.3f} m"
        ]
    return []


def check_closure_fit(post_poses, truth_poses, idx1, idx2, sigma_rho, label=""):
    """Between the two nodes of each inlier closure, the posterior's relative
    pose is on average within 3 sigma_rho (planar) of the truth's."""
    truth_rel = inv(truth_poses[idx1]) @ truth_poses[idx2]
    post_rel = inv(post_poses[idx1]) @ post_poses[idx2]
    err = np.linalg.norm((inv(truth_rel) @ post_rel)[:, :2, 3], axis=1)
    if err.mean() > 3.0 * sigma_rho:
        return [
            f"{label}posterior misses its closures by {err.mean():.4f} m on average "
            f"(limit 3 sigma_rho = {3.0 * sigma_rho:.3f} m)"
        ]
    return []


def median_disparity(stamps, points, times, poses, idx1, idx2, radius=5.0,
                     window=20.0, gate=1.0):
    """Median point disparity of the map registered along ``poses``.

    For each closure, the points captured within ``window`` of each of the
    two visits and within ``radius`` of the first visit form two passes; the
    nearest-neighbour distance from each point to the other pass, gated at
    ``gate``, is a sample.  Only profiles at node times are used.
    """
    idx = node_index(times, stamps)
    use = idx >= 0
    st = stamps[use]
    T = poses[idx[use]]
    world = np.einsum("nij,nj->ni", T[:, :3, :3], points[use]) + T[:, :3, 3]
    samples = []
    for a, b in zip(idx1, idx2):
        w = min(window, 0.45 * (times[b] - times[a]))
        center = poses[a, :2, 3]
        near = np.linalg.norm(world[:, :2] - center, axis=1) <= radius
        pa = world[near & (np.abs(st - times[a]) <= w)]
        pb = world[near & (np.abs(st - times[b]) <= w)]
        if len(pa) == 0 or len(pb) == 0:
            continue
        for p, q in ((pa, pb), (pb, pa)):
            d, _ = cKDTree(q).query(p)
            samples.append(d[d <= gate])
    if not samples:
        return float("nan")
    return float(np.median(np.concatenate(samples)))


def check_disparity(post_p50, prior_p50, truth_p50):
    """The posterior removes at least half of the prior's excess disparity.

    The map registered along the truth sets the floor that point spacing and
    scanner noise leave; the posterior's median disparity above that floor is
    at most half the prior's.
    """
    if not np.all(np.isfinite([post_p50, prior_p50, truth_p50])):
        return ["no overlapping points for the disparity check"]
    if post_p50 - truth_p50 > 0.5 * (prior_p50 - truth_p50):
        return [
            f"posterior median disparity {post_p50 * 100:.2f} cm is not below the "
            f"midpoint of the truth's {truth_p50 * 100:.2f} cm and the prior's "
            f"{prior_p50 * 100:.2f} cm"
        ]
    return []


def check_weights(weights, outlier_mask, inlier_min=0.5, label=""):
    """Injected outliers are rejected (w < 0.01) and inliers kept (w > inlier_min)."""
    weights = np.asarray(weights, dtype=float)
    outlier_mask = np.asarray(outlier_mask, dtype=bool)
    fails = []
    for j in np.flatnonzero(outlier_mask & (weights >= 0.01)):
        fails.append(f"{label}injected outlier {j} kept with weight {weights[j]:.3f}")
    for j in np.flatnonzero(~outlier_mask & (weights <= inlier_min)):
        fails.append(f"{label}inlier {j} down-weighted to {weights[j]:.3f}")
    return fails
