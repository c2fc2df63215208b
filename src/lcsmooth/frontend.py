"""Laser point-cloud front end.

Registers raw line-scanner profiles onto a trajectory estimate, finds
path crossings, extracts body-frame submaps around them, and aligns submap
pairs with a mixed point-to-point / point-to-plane ICP to produce
loop-closure measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from . import lie
from .factors import LoopClosureMeasurement
from .trajectory import Trajectory

FRMSD_STEP = 0.05  # step of the FRMSD inlier-fraction grid
DIVERGENCE_LIMIT = 3  # ICP fails after this many worsening iterations in a row


class InsufficientOverlapError(RuntimeError):
    """Too few points in the requested submap region."""


class AlignmentFailureError(RuntimeError):
    """ICP rejected the alignment (diverging or too few inliers)."""


@dataclass
class LaserProfile:
    """One line-scanner return: sensor-frame points captured at a single time."""

    timestamp: float
    points: np.ndarray

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        if self.points.size == 0 or self.points.shape[-1] != 3:
            raise ValueError("profile needs at least one 3D point")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("profile points must be finite")


@dataclass
class PointCloud:
    """World-frame points with their capture times, in time order."""

    points: np.ndarray
    times: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 3)
        self.times = np.asarray(self.times, dtype=float).reshape(-1)
        if len(self.times) != len(self.points):
            raise ValueError("times must match points")
        if not np.all(np.isfinite(self.times)) or np.any(np.diff(self.times) < 0):
            raise ValueError("times must be finite and nondecreasing")

    def __len__(self):
        return len(self.points)


@dataclass
class Submap:
    """Body-frame point patch around an anchor node, ready for alignment.

    An alignment target carries unit ``normals`` and the ``planar`` mask of
    the points whose error is point-to-plane rather than point-to-point.
    """

    points: np.ndarray
    normals: np.ndarray | None = None
    planar: np.ndarray | None = None

    def __len__(self):
        return len(self.points)


@dataclass
class Crossing:
    idx1: int
    idx2: int
    t1: float
    t2: float


@dataclass
class IcpParams:
    voxel_cell: float
    normal_neighbors: int
    variation_threshold: float
    max_iterations: int
    rot_tol: float
    trans_tol: float
    frmsd_lambda: float
    min_inlier_fraction: float


@dataclass
class IcpReport:
    iterations: int
    converged: bool
    # per iteration: fixed-correspondence objective (before, after) the update
    step_objectives: list = field(default_factory=list)


def register_profiles(profiles, trajectory: Trajectory):
    """Map sensor-frame profiles into the world frame along the trajectory.

    The sensor frame is the body frame.  The trajectory is interpolated at
    each profile timestamp; profiles whose timestamps fall outside the
    trajectory span are rejected.  Returns the world-frame cloud (with
    per-point capture times, profiles in stable timestamp order) and the
    rejected count.
    """
    stamps = np.array([p.timestamp for p in profiles])
    in_span = (stamps >= trajectory.times[0]) & (stamps <= trajectory.times[-1])
    rejected = int(np.sum(~in_span))
    order = np.flatnonzero(in_span)[np.argsort(stamps[in_span], kind="stable")]
    if not len(order):
        return PointCloud(np.zeros((0, 3)), np.zeros(0)), rejected
    kept = [profiles[i] for i in order]
    poses = trajectory.pose_at(stamps[order])
    pts = [p.points @ T[:3, :3].T + T[:3, 3] for T, p in zip(poses, kept)]
    times = [np.full(len(p.points), p.timestamp) for p in kept]
    return PointCloud(np.vstack(pts), np.concatenate(times)), rejected


def detect_crossings(trajectory: Trajectory, delta_r_star, min_time_separation):
    """Path self-crossings: node pairs within a planar radius but far in time.

    Candidate pairs come from a KD-tree radius search on (x, y); one pair per
    crossing event is kept by greedy non-maximum suppression on planar
    distance, where candidates within ``min_time_separation`` of an accepted
    pair at both endpoints belong to the same event.
    """
    xy = trajectory.positions[:, :2]
    t = trajectory.times
    pairs = cKDTree(xy).query_pairs(r=delta_r_star, output_type="ndarray")
    if len(pairs) == 0:
        return []
    dt = t[pairs[:, 1]] - t[pairs[:, 0]]
    pairs = pairs[dt >= min_time_separation]
    if len(pairs) == 0:
        return []
    dist = np.linalg.norm(xy[pairs[:, 0]] - xy[pairs[:, 1]], axis=1)
    order = np.lexsort((t[pairs[:, 1]], t[pairs[:, 0]], dist))
    pairs = pairs[order]
    t1 = t[pairs[:, 0]]
    t2 = t[pairs[:, 1]]
    crossings = []
    alive = np.ones(len(pairs), bool)
    for i in range(len(pairs)):
        if not alive[i]:
            continue
        crossings.append(Crossing(int(pairs[i, 0]), int(pairs[i, 1]), t1[i], t2[i]))
        same_event = (np.abs(t1 - t1[i]) <= min_time_separation) & (
            np.abs(t2 - t2[i]) <= min_time_separation
        )
        alive &= ~same_event
    crossings.sort(key=lambda c: (c.t1, c.t2))
    return crossings


def extract_submap(
    cloud: PointCloud,
    anchor_pose,
    delta_r_star,
    anchor_index,
    anchor_time,
    time_window,
    min_points,
):
    """Body-frame submap of the points within a planar radius of the anchor.

    Only points captured within ``time_window`` of ``anchor_time`` are kept,
    so revisited terrain yields one submap per pass rather than a mixture.
    """
    anchor_pose = np.asarray(anchor_pose, dtype=float)
    crop = crop_world(cloud, anchor_pose[:2, 3], delta_r_star, anchor_time, time_window)
    if len(crop) < min_points:
        raise InsufficientOverlapError(
            f"submap at anchor {anchor_index} has {len(crop)} points "
            f"(minimum {min_points})"
        )
    inv = lie.se3_inv(anchor_pose)
    return Submap(points=crop.points @ inv[:3, :3].T + inv[:3, 3])


def voxel_downsample(points, cell):
    """One centroid per occupied voxel; the rule is independent of point order."""
    if cell <= 0:
        raise ValueError("cell must be positive")
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    if len(points) == 0:
        return points.copy()
    keys = np.floor(points / cell).astype(np.int64)
    _, inverse, counts = np.unique(
        keys, axis=0, return_inverse=True, return_counts=True
    )
    sums = np.zeros((len(counts), 3))
    np.add.at(sums, inverse, points)
    return sums / counts[:, None]


def estimate_normals_and_variation(pts, k):
    """Neighborhood-PCA ``(normals, variation, valid)`` for each point.

    The normal is the smallest-eigenvalue direction of the k-nearest-neighbor
    covariance, oriented toward the origin of the points' frame; the
    variation is the smallest eigenvalue over the eigenvalue sum (0 on a
    plane, up to 1/3 for isotropic scatter).  ``valid`` is false where the
    neighborhood is rank-deficient.
    """
    if len(pts) < k + 1:
        raise InsufficientOverlapError(f"need at least {k + 1} points for normals")
    _, idx = cKDTree(pts).query(pts, k=k + 1)
    nbrs = pts[idx]
    centered = nbrs - nbrs.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered) / (k + 1)
    evals, evecs = np.linalg.eigh(cov)
    normals = evecs[:, :, 0]
    total = evals.sum(axis=1)
    variation = np.where(total > 0, evals[:, 0] / np.where(total > 0, total, 1.0), 0.0)
    # rank >= 2 requires a healthy middle eigenvalue
    valid = evals[:, 1] > 1e-8 * np.maximum(evals[:, 2], 1e-300)
    flip = np.einsum("ni,ni->n", normals, pts) > 0
    normals[flip] *= -1.0
    return normals, variation, valid


def _frmsd_select(distances, params):
    """FRMSD inlier selection: minimize rmsd(f) / f^lambda over the fraction grid.

    Returns the indices of the best fraction's smallest distances, and its score.
    """
    n = len(distances)
    order = np.argsort(distances, kind="stable")
    d_sorted = distances[order]
    cum = np.cumsum(d_sorted**2)
    fractions = np.arange(params.min_inlier_fraction, 1.0 + 1e-9, FRMSD_STEP)
    best = None
    for f in fractions:
        m = max(1, int(np.floor(f * n)))
        rmsd = np.sqrt(cum[m - 1] / m)
        score = rmsd / f**params.frmsd_lambda
        if best is None or score < best[0]:
            best = (score, m)
    score, m = best
    return order[:m], score


def _icp_cost(src, tgt, nrm, use_plane, sigma, jacobians=True):
    """Mixed alignment cost of fixed correspondences ``(objective, H, b)``.

    Point-to-plane errors where ``use_plane``, point-to-point errors
    elsewhere, each weighted by ``1 / sigma**2``.  ``H`` and ``b`` are the
    Gauss-Newton normal equations under the update q -> exp(dphi) q + drho,
    or None with ``jacobians=False``.
    """
    w = 1.0 / sigma**2
    obj = 0.0
    H = np.zeros((6, 6)) if jacobians else None
    b = np.zeros(6) if jacobians else None
    if np.any(use_plane):
        q = src[use_plane]
        n = nrm[use_plane]
        r = np.einsum("ni,ni->n", n, q - tgt[use_plane])
        obj += w * np.sum(r**2)
        if jacobians:
            A = np.hstack([np.cross(q, n), n])
            H += w * A.T @ A
            b += w * A.T @ r
    if np.any(~use_plane):
        q = src[~use_plane]
        r = q - tgt[~use_plane]
        obj += w * np.sum(r**2)
        if jacobians:
            A = np.zeros((len(q), 3, 6))
            A[:, :, :3] = -lie.skew(q)
            A[:, :, 3:] = np.eye(3)
            H += w * np.einsum("nij,nik->jk", A, A)
            b += w * np.einsum("nij,ni->j", A, r)
    return 0.5 * obj, H, b


def icp_align(source: Submap, target: Submap, init, params: IcpParams):
    """Align the source submap onto the target with mixed-error ICP.

    Per iteration: single nearest-neighbor association, FRMSD inlier
    selection, then one safeguarded Gauss-Newton update of the pose.  Terminates when
    the pose differential drops below (rot_tol, trans_tol) or at the
    iteration cap.  Raises AlignmentFailureError when the robust alignment
    error grows for ``DIVERGENCE_LIMIT`` consecutive iterations or the
    inlier set collapses.

    Each correspondence takes its error kind from the target point:
    point-to-plane along ``target.normals`` where ``target.planar`` is set
    (see ``preprocess_submap``), point-to-point elsewhere.
    """
    if target.normals is None or target.planar is None:
        raise ValueError("target submap needs normals and a plane mask")
    if len(source) < 6 or len(target) < 6:
        raise AlignmentFailureError("too few points to align")
    T = np.asarray(init, dtype=float).copy()
    tree = cKDTree(target.points)
    sigma = params.voxel_cell / 2.0  # point position sigma: half a voxel
    report = IcpReport(0, False)
    prev_score = np.inf
    diverging = 0

    for it in range(params.max_iterations):
        src = source.points @ T[:3, :3].T + T[:3, 3]
        dist, nn = tree.query(src)
        inliers, score = _frmsd_select(dist, params)
        if len(inliers) < 6:
            raise AlignmentFailureError(
                f"inlier set collapsed to {len(inliers)} correspondences"
            )
        if score >= prev_score:
            diverging += 1
            if diverging >= DIVERGENCE_LIMIT:
                raise AlignmentFailureError(
                    f"alignment error increased {diverging} iterations in a row"
                )
        else:
            diverging = 0
        prev_score = score

        q = src[inliers]
        j = nn[inliers]
        corr = (target.points[j], target.normals[j], target.planar[j], sigma)
        obj0, H, b = _icp_cost(q, *corr)
        delta = -np.linalg.lstsq(H, b, rcond=None)[0]
        # Safeguard: with correspondences fixed, the update must not
        # increase the mixed objective.
        for _ in range(12):
            q_new = q @ lie.so3_exp(delta[:3]).T + delta[3:]
            obj1 = _icp_cost(q_new, *corr, jacobians=False)[0]
            if obj1 <= obj0 * (1.0 + 1e-12) + 1e-15:
                break
            delta = 0.5 * delta
        T = lie.se3_exp(delta) @ T
        report.iterations = it + 1
        report.step_objectives.append((float(obj0), float(obj1)))
        if (
            np.linalg.norm(delta[:3]) < params.rot_tol
            and np.linalg.norm(delta[3:]) < params.trans_tol
        ):
            report.converged = True
            break
    return T, report


def preprocess_submap(submap: Submap, params: IcpParams, with_normals: bool):
    """Voxel-downsample a submap; for an alignment target, also attach the
    normals and the plane mask: points with a full-rank neighborhood and
    surface variation below ``params.variation_threshold``."""
    pts = voxel_downsample(submap.points, params.voxel_cell)
    if not with_normals:
        return Submap(pts)
    normals, variation, valid = estimate_normals_and_variation(
        pts, k=params.normal_neighbors
    )
    return Submap(pts, normals, (variation < params.variation_threshold) & valid)


def make_loop_closure(
    trajectory: Trajectory,
    cloud: PointCloud,
    crossing: Crossing,
    params: IcpParams,
    delta_r_star,
    time_window,
    sigma_phi,
    sigma_rho,
    min_points,
):
    """Loop-closure measurement from one crossing: submaps, ICP, covariance.

    The target submap holds the first visit's points, the source the
    revisit's; ICP is initialized from the trajectory's relative pose and its
    result is the measured relative pose between the two anchor bodies.
    """
    window = min(time_window, 0.45 * (crossing.t2 - crossing.t1))
    pose1 = trajectory.poses[crossing.idx1]
    pose2 = trajectory.poses[crossing.idx2]
    target = extract_submap(
        cloud, pose1, delta_r_star, crossing.idx1, crossing.t1, window, min_points
    )
    source = extract_submap(
        cloud, pose2, delta_r_star, crossing.idx2, crossing.t2, window, min_points
    )
    target = preprocess_submap(target, params, with_normals=True)
    source = preprocess_submap(source, params, with_normals=False)
    init = lie.se3_inv(pose1) @ pose2
    xi_meas, report = icp_align(source, target, init=init, params=params)
    cov = np.diag([sigma_phi**2] * 3 + [sigma_rho**2] * 3)
    return (
        LoopClosureMeasurement(crossing.idx1, crossing.idx2, xi_meas, cov),
        report,
    )


def crop_world(cloud: PointCloud, center_xy, radius, t_center, window):
    """World-frame crop by planar radius and capture time, within ``window``
    of ``t_center``.

    Only the ``searchsorted`` slice of the time-ordered cloud that the time
    gate can keep, widened by a few ulps, is masked: the same points, in the
    same order, as masking the whole cloud.
    """
    lo, hi = 0, len(cloud)
    if hi and np.isfinite(t_center):
        reach = window + 8.0 * np.spacing(max(abs(t_center), *np.abs(cloud.times[[0, -1]])))
        lo, hi = np.searchsorted(cloud.times, [t_center - reach, t_center + reach])
    points, times = cloud.points[lo:hi], cloud.times[lo:hi]
    mask = np.linalg.norm(points[:, :2] - np.asarray(center_xy, float), axis=1) <= radius
    mask &= np.abs(times - t_center) <= window
    return PointCloud(points[mask], times[mask])
