"""Laser point-cloud front end.

Registers raw line-scanner profile rows onto a trajectory estimate, finds
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


class CrossingDropped(RuntimeError):
    """A crossing that yields no loop closure.  Each subclass names its reason
    as ``outcome``; ``icp`` is the ``IcpReport`` of the ICP run the drop
    ended, else None."""

    def __init__(self, message, icp=None):
        super().__init__(message)
        self.icp = icp


class InsufficientOverlapError(CrossingDropped):
    """Too few points in the requested submap region."""

    outcome = "insufficient_overlap"


class AlignmentFailureError(CrossingDropped):
    """ICP rejected the alignment (too few points or inliers, diverging, capped)."""

    outcome = "alignment_failure"


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
    """Body-frame alignment target: points with unit ``normals`` and the
    ``planar`` mask of the points whose error is point-to-plane rather than
    point-to-point."""

    points: np.ndarray
    normals: np.ndarray
    planar: np.ndarray

    def __len__(self):
        return len(self.points)


@dataclass
class Crossing:
    idx1: int
    idx2: int
    t1: float
    t2: float


@dataclass
class FrontendParams:
    """The ``frontend.*`` tunables of ``make_loop_closure``, each named as its
    key; ``lc_sigma_phi`` is in rad."""

    voxel_cell: float
    normal_neighbors: int
    variation_threshold: float
    icp_max_iterations: int
    icp_rot_tol: float
    icp_trans_tol: float
    frmsd_lambda: float
    min_inlier_fraction: float
    delta_r_star: float
    submap_time_window: float
    min_submap_points: int
    lc_sigma_phi: float
    lc_sigma_rho: float


@dataclass
class IcpReport:
    iterations: int
    converged: bool
    # per iteration: fixed-correspondence objective (before, after) the update
    step_objectives: list = field(default_factory=list)


def register_profiles(stamps, points, trajectory: Trajectory):
    """Map sensor-frame profile rows into the world frame along the trajectory.

    ``stamps`` (N,) and ``points`` (N, 3) are the rows of the profile file:
    consecutive rows with one stamp form a profile.  The sensor frame is the
    body frame.  The trajectory is interpolated at each profile's stamp;
    profiles whose stamps fall outside the trajectory span are rejected.
    Returns the world-frame cloud (with per-point capture times, profiles in
    stable stamp order) and the rejected count.
    """
    starts = np.flatnonzero(np.diff(stamps, prepend=np.nan) != 0)
    stops = np.append(starts[1:], len(stamps))
    t = stamps[starts]
    in_span = (t >= trajectory.times[0]) & (t <= trajectory.times[-1])
    rejected = int(np.sum(~in_span))
    order = np.flatnonzero(in_span)[np.argsort(t[in_span], kind="stable")]
    if not len(order):
        return PointCloud(np.zeros((0, 3)), np.zeros(0)), rejected
    poses = trajectory.pose_at(t[order])
    # one product per profile: the bits of each point are its profile's own
    pts = [points[starts[i]:stops[i]] @ T[:3, :3].T + T[:3, 3] for T, i in zip(poses, order)]
    times = np.repeat(t[order], (stops - starts)[order])
    return PointCloud(np.vstack(pts), times), rejected


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
    dt = t[pairs[:, 1]] - t[pairs[:, 0]]
    pairs = pairs[dt >= min_time_separation]
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
    """Body-frame points within a planar radius of the anchor, as an (n, 3) array.

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
    return crop.points @ inv[:3, :3].T + inv[:3, 3]


def voxel_downsample(points, cell):
    """One centroid per occupied voxel, voxels in lexicographic key order.

    Which points share a voxel does not depend on their order; a centroid's
    last bits do, because its sum runs in input order.
    """
    if cell <= 0:
        raise ValueError("cell must be positive")
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    if len(points) == 0:
        return points.copy()
    keys = np.floor(points / cell).astype(np.int64)
    # one sort groups equal keys, in the order of np.unique(keys, axis=0)
    order = np.lexsort(keys.T[::-1])
    k = keys[order]
    first = np.r_[True, (k[1:] != k[:-1]).any(axis=1)]
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(first) - 1
    counts = np.bincount(inverse)
    sums = np.zeros((len(counts), 3))
    np.add.at(sums, inverse, points)
    return sums / counts[:, None]


# Points whose neighborhoods ``estimate_normals_and_variation`` gathers at
# once: with k = 40 its temporaries take about 2.8 KB a point, so a block
# keeps them near 3 MB, however large the submap and however many
# crossings are aligned at once.
_NORMAL_BLOCK = 1024


def estimate_normals_and_variation(pts, k):
    """Neighborhood-PCA ``(normals, variation, valid)`` for each point.

    The normal is the smallest-eigenvalue direction of the k-nearest-neighbor
    covariance, oriented toward the origin of the points' frame; the
    variation is the smallest eigenvalue over the eigenvalue sum (0 on a
    plane, up to 1/3 for isotropic scatter).  ``valid`` is false where the
    neighborhood is rank-deficient.  The points are taken in blocks of
    ``_NORMAL_BLOCK``; each point's arithmetic is its own, so the blocks do
    not change a bit of the result.
    """
    if len(pts) < k + 1:
        raise InsufficientOverlapError(f"need at least {k + 1} points for normals")
    tree = cKDTree(pts)
    normals = np.empty((len(pts), 3))
    variation = np.empty(len(pts))
    valid = np.empty(len(pts), dtype=bool)
    for start in range(0, len(pts), _NORMAL_BLOCK):
        block = slice(start, start + _NORMAL_BLOCK)
        _, idx = tree.query(pts[block], k=k + 1)
        nbrs = pts[idx]
        centered = nbrs - nbrs.mean(axis=1, keepdims=True)
        cov = np.einsum("nki,nkj->nij", centered, centered) / (k + 1)
        evals, evecs = np.linalg.eigh(cov)
        normals[block] = evecs[:, :, 0]
        total = evals.sum(axis=1)
        variation[block] = np.where(
            total > 0, evals[:, 0] / np.where(total > 0, total, 1.0), 0.0
        )
        # rank >= 2 requires a healthy middle eigenvalue
        valid[block] = evals[:, 1] > 1e-8 * np.maximum(evals[:, 2], 1e-300)
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


def _icp_rows(tgt, nrm, use_plane):
    """Error rows ``(index, target, direction)`` of fixed correspondences: one
    along the normal of each ``use_plane`` (point-to-plane) correspondence,
    three along the x, y and z axes of each point-to-point one."""
    plane = np.flatnonzero(use_plane)
    point = np.flatnonzero(~use_plane)
    index = np.concatenate([plane, np.repeat(point, 3)])
    direction = np.concatenate([nrm[plane], np.tile(np.eye(3), (len(point), 1))])
    return index, tgt[index], direction


def _icp_cost(q, t, d, sigma):
    """``(objective, H, b)`` of fixed error rows d . (q - t), each weighted by
    ``1 / sigma**2``; ``H`` and ``b`` are the Gauss-Newton normal equations
    under the update q -> exp(dphi) q + drho."""
    w = 1.0 / sigma**2
    r = np.einsum("ni,ni->n", d, q - t)
    A = np.hstack([np.cross(q, d), d])
    return 0.5 * (w * np.sum(r**2)), w * A.T @ A, w * A.T @ r


def icp_align(source, target: Submap, init, params: FrontendParams):
    """Align (n, 3) source points onto the target with mixed-error ICP.

    Per iteration: single nearest-neighbor association, FRMSD inlier
    selection, then one safeguarded Gauss-Newton update of the pose.  Terminates when
    the pose differential drops below (icp_rot_tol, icp_trans_tol) or at the
    iteration cap.  Raises AlignmentFailureError when the robust alignment
    error grows for ``DIVERGENCE_LIMIT`` consecutive iterations or the
    inlier set collapses, with the run so far as its ``icp``.  A run that
    stops at the cap is returned unconverged.

    Each correspondence takes its error kind from the target point:
    point-to-plane along ``target.normals`` where ``target.planar`` is set
    (see ``preprocess_submap``), point-to-point elsewhere.
    """
    if len(source) < 6 or len(target) < 6:
        raise AlignmentFailureError("too few points to align")
    T = np.asarray(init, dtype=float).copy()
    tree = cKDTree(target.points)
    sigma = params.voxel_cell / 2.0  # point position sigma: half a voxel
    report = IcpReport(0, False)
    prev_score = np.inf
    diverging = 0

    for it in range(params.icp_max_iterations):
        src = source @ T[:3, :3].T + T[:3, 3]
        dist, nn = tree.query(src)
        inliers, score = _frmsd_select(dist, params)
        if len(inliers) < 6:
            raise AlignmentFailureError(
                f"inlier set collapsed to {len(inliers)} correspondences", report
            )
        if score >= prev_score:
            diverging += 1
            if diverging >= DIVERGENCE_LIMIT:
                raise AlignmentFailureError(
                    f"alignment error increased {diverging} iterations in a row", report
                )
        else:
            diverging = 0
        prev_score = score

        j = nn[inliers]
        rows, tgt, nrm = _icp_rows(target.points[j], target.normals[j], target.planar[j])
        q = src[inliers[rows]]
        obj0, H, b = _icp_cost(q, tgt, nrm, sigma)
        delta = -np.linalg.lstsq(H, b, rcond=None)[0]
        # Safeguard: with correspondences fixed, the update must not
        # increase the mixed objective.
        for _ in range(12):
            q_new = q @ lie.so3_exp(delta[:3]).T + delta[3:]
            obj1 = _icp_cost(q_new, tgt, nrm, sigma)[0]
            if obj1 <= obj0 * (1.0 + 1e-12) + 1e-15:
                break
            delta = 0.5 * delta
        T = lie.se3_exp(delta) @ T
        report.iterations = it + 1
        report.step_objectives.append((float(obj0), float(obj1)))
        if (
            np.linalg.norm(delta[:3]) < params.icp_rot_tol
            and np.linalg.norm(delta[3:]) < params.icp_trans_tol
        ):
            report.converged = True
            break
    return T, report


def preprocess_submap(points, params: FrontendParams):
    """Alignment target on voxel-downsampled points: their normals and the
    plane mask of the points with a full-rank neighborhood and surface
    variation below ``params.variation_threshold``."""
    pts = voxel_downsample(points, params.voxel_cell)
    normals, variation, valid = estimate_normals_and_variation(
        pts, k=params.normal_neighbors
    )
    return Submap(pts, normals, (variation < params.variation_threshold) & valid)


def pass_window(t1, t2, submap_time_window):
    """Capture-time half-width of the submaps of a closure at times t1 < t2:
    below (t2 - t1) / 2, so revisited terrain yields one submap per pass."""
    return min(submap_time_window, 0.45 * (t2 - t1))


def make_loop_closure(
    trajectory: Trajectory, cloud: PointCloud, crossing: Crossing, params: FrontendParams
):
    """Loop-closure measurement from one crossing: submaps, ICP, covariance.

    The target submap holds the first visit's points, the source the
    revisit's; ICP is initialized from the trajectory's relative pose and its
    result is the measured relative pose between the two anchor bodies.
    Only a converged alignment is a closure: the stated covariance presumes
    one, so a run stopped at the iteration cap raises AlignmentFailureError.
    """
    window = pass_window(crossing.t1, crossing.t2, params.submap_time_window)
    pose1 = trajectory.poses[crossing.idx1]
    pose2 = trajectory.poses[crossing.idx2]
    r, floor = params.delta_r_star, params.min_submap_points
    target = extract_submap(cloud, pose1, r, crossing.idx1, crossing.t1, window, floor)
    source = extract_submap(cloud, pose2, r, crossing.idx2, crossing.t2, window, floor)
    target = preprocess_submap(target, params)
    source = voxel_downsample(source, params.voxel_cell)
    init = lie.se3_inv(pose1) @ pose2
    xi_meas, report = icp_align(source, target, init=init, params=params)
    if not report.converged:
        raise AlignmentFailureError(
            f"ICP stopped at the iteration cap after {report.iterations} "
            "iterations without converging", report
        )
    cov = np.diag([params.lc_sigma_phi**2] * 3 + [params.lc_sigma_rho**2] * 3)
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
