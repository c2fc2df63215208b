"""Timestamped pose sequences shared by the simulator, front end, and metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lie


@dataclass
class Trajectory:
    """Poses over time."""

    times: np.ndarray
    poses: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.poses = np.asarray(self.poses, dtype=float)
        if self.poses.shape != (len(self.times), 4, 4):
            raise ValueError("poses must be (N, 4, 4) matching times")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("timestamps must be strictly increasing")

    def __len__(self):
        return len(self.times)

    @property
    def positions(self):
        return self.poses[:, :3, 3]

    def pose_at(self, t):
        """Pose(s) at query time(s) by geodesic interpolation between nodes.

        Raises ValueError for queries outside the trajectory time span.
        """
        t = np.asarray(t, dtype=float)
        if np.any(t < self.times[0]) or np.any(t > self.times[-1]):
            raise ValueError("query time outside trajectory span")
        hi = np.clip(np.searchsorted(self.times, t, side="right"), 1, len(self) - 1)
        lo = hi - 1
        span = self.times[hi] - self.times[lo]
        alpha = (t - self.times[lo]) / span
        return lie.interpolate(self.poses[lo], self.poses[hi], alpha)

    def snap_tolerance(self):
        """How far a time may lie from a node and still land on it: half the
        median sample period, plus 1e-12 s for rounding."""
        half = 0.5 * float(np.median(np.diff(self.times))) if len(self) > 1 else 0.0
        return half + 1e-12

    def nearest_nodes(self, t):
        """For each time of ``t``, the index of the nearest node (the earlier
        one on a tie) and whether the time lands on it."""
        t = np.asarray(t, dtype=float)
        after = np.minimum(np.searchsorted(self.times, t), len(self) - 1)
        before = np.maximum(after - 1, 0)
        nearer = np.abs(self.times[before] - t) <= np.abs(self.times[after] - t)
        idx = np.where(nearer, before, after)
        return idx, np.abs(self.times[idx] - t) <= self.snap_tolerance()

    def planar_length(self):
        """Cumulative (x, y) path length in meters."""
        steps = np.diff(self.positions[:, :2], axis=0)
        return float(np.sum(np.linalg.norm(steps, axis=1)))
