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
        scalar = t.ndim == 0
        tq = np.atleast_1d(t)
        if np.any(tq < self.times[0]) or np.any(tq > self.times[-1]):
            raise ValueError("query time outside trajectory span")
        hi = np.clip(np.searchsorted(self.times, tq, side="right"), 1, len(self) - 1)
        lo = hi - 1
        span = self.times[hi] - self.times[lo]
        alpha = (tq - self.times[lo]) / span
        out = lie.interpolate(self.poses[lo], self.poses[hi], alpha)
        return out[0] if scalar else out

    def planar_length(self):
        """Cumulative (x, y) path length in meters."""
        steps = np.diff(self.positions[:, :2], axis=0)
        return float(np.sum(np.linalg.norm(steps, axis=1)))
