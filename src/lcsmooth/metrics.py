"""Trajectory and map-quality evaluation.

Relative pose errors anchor both trajectories at a common node, so the
metrics are invariant to any global left-composition and need no alignment
step.  Map self-consistency is measured by point disparity: the nearest
neighbor distance from each point of one pass to the other pass, restricted
to the overlap region.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from . import lie
from .trajectory import Trajectory

SUMMARY_QUANTILES = (0.5, 0.6827, 0.75, 0.90, 0.9545, 0.9973)


@dataclass
class RelativePoseErrors:
    times: np.ndarray
    attitude_deg: np.ndarray  # (N, 3) per-axis magnitudes
    displacement: np.ndarray  # (N,) planar norm


def relative_pose_errors(estimate: Trajectory, truth: Trajectory, anchor: int):
    """Anchored relative pose errors between an estimate and the truth.

    The anchor is conventionally the earliest node involved in any
    loop-closure measurement.  Timestamps must agree.
    """
    if len(estimate) != len(truth) or not np.allclose(
        estimate.times, truth.times, atol=1e-9
    ):
        raise ValueError("estimate and truth timestamps do not match")
    if not 0 <= anchor < len(truth):
        raise ValueError("anchor index out of range")
    d_truth = lie.se3_inv(truth.poses[anchor]) @ truth.poses
    d_est = lie.se3_inv(estimate.poses[anchor]) @ estimate.poses
    E = lie.se3_inv(d_truth) @ d_est
    vecs = lie.se3_log(E)
    displacement = np.linalg.norm(E[:, :2, 3], axis=1)
    return RelativePoseErrors(
        times=truth.times.copy(),
        attitude_deg=np.rad2deg(np.abs(vecs[:, :3])),
        displacement=displacement,
    )


def point_disparity(a, b, overlap_gate):
    """Nearest-neighbor distances between two overlapping passes, both ways.

    The distance from each point of either pass to its nearest neighbor in
    the other is a disparity sample; points farther than ``overlap_gate``
    from the other pass are treated as non-overlapping and excluded.
    Returns the ``a`` -> ``b`` samples, then the ``b`` -> ``a`` samples
    (possibly none).  Neither pass may be empty.
    """
    a, b = (np.asarray(p, dtype=float).reshape(-1, 3) for p in (a, b))
    d = np.concatenate([cKDTree(b).query(a)[0], cKDTree(a).query(b)[0]])
    return d[d <= overlap_gate]


def nearest_rank_quantiles(samples):
    """Empirical ``SUMMARY_QUANTILES`` by the nearest-rank rule."""
    samples = np.sort(np.asarray(samples, dtype=float))
    if len(samples) == 0:
        raise ValueError("no samples to summarize")
    out = {}
    for q in SUMMARY_QUANTILES:
        rank = max(1, int(np.ceil(q * len(samples))))
        out[q] = float(samples[rank - 1])
    return out


def summarize(samples, trajectory: Trajectory | None = None):
    """Quantile table for error samples, plus drift figures when samples are
    per-node displacement errors of ``trajectory``; a trajectory without
    planar path length gets no ``percent_distance_traveled``."""
    samples = np.asarray(samples, dtype=float)
    report = {
        "count": int(samples.size),
        "quantiles": nearest_rank_quantiles(samples),
        "max": float(samples.max()),
    }
    if trajectory is not None:
        if len(trajectory) != samples.size:
            raise ValueError("per-node samples must match the trajectory length")
        report["final"] = float(samples[-1])
        length = trajectory.planar_length()
        if length > 0:
            report["percent_distance_traveled"] = 100.0 * report["final"] / length
    return report
