import numpy as np
import pytest

from lcsmooth import lie
from lcsmooth.trajectory import Trajectory

from conftest import random_pose


def test_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        Trajectory(times=np.array([0.0, 0.0]), poses=np.tile(np.eye(4), (2, 1, 1)))
    with pytest.raises(ValueError, match="poses"):
        Trajectory(times=np.array([0.0, 1.0]), poses=np.eye(4))


def test_pose_at_nodes_and_midpoints(rng):
    poses = np.stack([random_pose(rng) for _ in range(5)])
    traj = Trajectory(times=np.arange(5, dtype=float), poses=poses)
    assert np.allclose(traj.pose_at(2.0), poses[2])
    mid = traj.pose_at(2.5)
    expect = lie.interpolate(poses[2], poses[3], 0.5)
    assert np.allclose(mid, expect)


def test_pose_at_out_of_span(rng):
    traj = Trajectory(times=np.array([0.0, 1.0]), poses=np.tile(np.eye(4), (2, 1, 1)))
    with pytest.raises(ValueError, match="span"):
        traj.pose_at(1.5)


def test_planar_length():
    poses = np.tile(np.eye(4), (3, 1, 1))
    poses[1, :3, 3] = [3.0, 4.0, 10.0]
    poses[2, :3, 3] = [3.0, 4.0, -5.0]
    traj = Trajectory(times=np.arange(3, dtype=float), poses=poses)
    assert traj.planar_length() == pytest.approx(5.0)


@pytest.mark.parametrize("n", [1, 2, 7, 50])
def test_nearest_nodes_matches_argmin(rng, n):
    times = np.cumsum(rng.choice([0.1, 0.25, 1.0], size=n)) + 1e3
    traj = Trajectory(times=times, poses=np.tile(np.eye(4), (n, 1, 1)))
    # midpoints between nodes, where the earlier node wins a tie, the nodes
    # themselves, and times before, inside and past the span, as pairs
    mids = 0.5 * (times[1:] + times[:-1])
    t = np.concatenate([mids, times, rng.uniform(times[0] - 2, times[-1] + 2, size=41)])
    t = t.reshape(-1, 2)
    idx, on_node = traj.nearest_nodes(t)
    reference = np.vectorize(lambda s: np.argmin(np.abs(times - s)))(t)
    assert np.array_equal(idx, reference)
    half = 0.5 * np.median(np.diff(times)) if n > 1 else 0.0
    assert np.array_equal(on_node, np.abs(times[reference] - t) <= half + 1e-12)
