import numpy as np
import pytest

from lcsmooth import lie, metrics
from lcsmooth.trajectory import Trajectory

from conftest import random_pose, random_twist
from oracles import relative_error_vectors


def make_trajectory(rng, n=20, dt=0.5):
    poses = [random_pose(rng)]
    for _ in range(n - 1):
        poses.append(poses[-1] @ lie.se3_exp(random_twist(rng, 0.3, 0.5)))
    return Trajectory(times=np.arange(n) * dt, poses=np.stack(poses))


class TestRelativePoseErrors:
    def test_zero_for_identical_trajectories(self, rng):
        traj = make_trajectory(rng)
        rel = metrics.relative_pose_errors(traj, traj, anchor=3)
        assert np.abs(rel.displacement).max() == 0.0
        assert np.abs(rel.attitude_deg).max() == 0.0

    def test_invariant_to_global_left_composition(self, rng):
        truth = make_trajectory(rng)
        est_poses = truth.poses @ lie.se3_exp(rng.normal(size=(len(truth), 6)) * 0.02)
        est = Trajectory(times=truth.times, poses=est_poses)
        base = metrics.relative_pose_errors(est, truth, anchor=2)
        G = random_pose(rng)
        moved = (
            Trajectory(times=truth.times, poses=G @ est.poses),
            Trajectory(times=truth.times, poses=G @ truth.poses),
        )
        shifted = metrics.relative_pose_errors(*moved, anchor=2)
        assert np.abs(base.displacement - shifted.displacement).max() < 1e-12
        assert np.abs(base.attitude_deg - shifted.attitude_deg).max() < 1e-10
        vectors = relative_error_vectors(est, truth, 2)
        assert np.abs(vectors - relative_error_vectors(*moved, 2)).max() < 1e-12

    def test_global_offset_of_estimate_gives_zero(self, rng):
        # left-composing only the estimate is invisible to the relative metric
        truth = make_trajectory(rng)
        G = random_pose(rng)
        est = Trajectory(times=truth.times, poses=G @ truth.poses)
        rel = metrics.relative_pose_errors(est, truth, anchor=0)
        assert np.abs(rel.displacement).max() < 1e-12

    def test_single_node_offset(self, rng):
        truth = make_trajectory(rng)
        k = 7
        delta = np.array([0.0, 0.0, 0.0, 0.4, -0.3, 0.2])
        est_poses = truth.poses.copy()
        # world-frame position offset at node k
        est_poses[k, :3, 3] += delta[3:]
        est = Trajectory(times=truth.times, poses=est_poses)
        rel = metrics.relative_pose_errors(est, truth, anchor=0)
        # the position part of E_k is the world offset expressed in body k
        local = truth.poses[k][:3, :3].T @ delta[3:]
        assert abs(rel.displacement[k] - np.hypot(local[0], local[1])) < 1e-9
        assert np.abs(rel.displacement[np.arange(len(truth)) != k]).max() < 1e-12

    def test_timestamp_mismatch_rejected(self, rng):
        a = make_trajectory(rng)
        b = Trajectory(times=a.times + 0.1, poses=a.poses)
        with pytest.raises(ValueError, match="timestamps"):
            metrics.relative_pose_errors(a, b, anchor=0)


class TestPointDisparity:
    def test_identical_clouds_zero(self, rng):
        cloud = rng.uniform(size=(500, 3))
        d = metrics.point_disparity([cloud, cloud.copy()], overlap_gate=1.0)
        assert np.abs(d).max() == 0.0

    def test_plane_shift_recovers_offset(self, rng):
        xy = rng.uniform(0, 10, size=(4000, 2))
        a = np.column_stack([xy, np.zeros(len(xy))])
        b = a.copy()
        b[:, 2] += 0.05
        d = metrics.point_disparity([a, b], overlap_gate=0.5)
        # interior points see the out-of-plane shift
        assert abs(np.median(d) - 0.05) < 0.01

    def test_overlap_gate_excludes_distant_points(self, rng):
        a = rng.uniform(0, 1, size=(200, 3))
        b = a + np.array([50.0, 0.0, 0.0])
        d = metrics.point_disparity([a, b], overlap_gate=0.25)
        assert d.size == 0

    def test_tree_matches_brute_force(self, rng):
        a = rng.uniform(size=(300, 3))
        b = rng.uniform(size=(400, 3))
        d = metrics.point_disparity([a, b], overlap_gate=np.inf)
        brute = np.concatenate(
            [
                np.min(np.linalg.norm(a[:, None] - b[None], axis=2), axis=1),
                np.min(np.linalg.norm(b[:, None] - a[None], axis=2), axis=1),
            ]
        )
        assert np.array_equal(np.sort(d), np.sort(brute))

    def test_needs_two_passes(self, rng):
        with pytest.raises(ValueError):
            metrics.point_disparity([rng.uniform(size=(10, 3))], 1.0)


class TestSummaries:
    def test_constant_samples(self):
        q = metrics.nearest_rank_quantiles(np.full(50, 3.3))
        assert all(v == 3.3 for v in q.values())

    def test_uniform_grid_median(self):
        q = metrics.nearest_rank_quantiles(np.linspace(0.0, 1.0, 101))
        assert abs(q[0.5] - 0.5) <= 0.01

    def test_matches_independent_sort(self, rng):
        samples = rng.exponential(size=997)
        q = metrics.nearest_rank_quantiles(samples)
        s = np.sort(samples)
        for level, value in q.items():
            k = int(np.ceil(level * len(s)))
            assert value == s[k - 1]

    def test_percent_distance_traveled(self, rng):
        n = 11
        poses = np.tile(np.eye(4), (n, 1, 1))
        poses[:, 0, 3] = np.arange(n) * 2.0  # 20 m planar path
        traj = Trajectory(times=np.arange(n, dtype=float), poses=poses)
        assert metrics.percent_distance_traveled(0.5, traj) == pytest.approx(2.5)

    def test_summarize_per_node(self, rng):
        traj = make_trajectory(rng, n=30)
        samples = np.abs(rng.normal(size=30))
        rep = metrics.summarize(samples, traj)
        assert rep["count"] == 30
        assert rep["final"] == samples[-1]
        q = rep["quantiles"]
        assert all(
            q[a] <= q[b]
            for a, b in zip(metrics.SUMMARY_QUANTILES, metrics.SUMMARY_QUANTILES[1:])
        )
