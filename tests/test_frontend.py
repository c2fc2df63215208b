from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from lcsmooth import frontend, lie, sim
from lcsmooth.trajectory import Trajectory

from conftest import CFG, profile_rows, random_pose
from oracles import crop_world as crop_world_full_mask
from oracles import estimate_normals_and_variation as normals_in_one_query
from oracles import icp_cost as icp_cost_two_branch
from oracles import register_profiles as register_per_record
from oracles import voxel_downsample as voxel_downsample_unique

PARAMS = CFG.frontend_params()


def brute_force_crossings(trajectory, delta_r_star, min_time_separation):
    """O(n^2) oracle: exhaustive pair enumeration, same suppression rule.

    Distances are evaluated for every pair (chunked so 1e4-node trajectories
    fit in memory), independent of the production KD-tree search.
    """
    xy = trajectory.positions[:, :2]
    t = trajectory.times
    n = len(t)
    cands = []
    for i0 in range(0, n, 512):
        i1 = min(i0 + 512, n)
        d = np.linalg.norm(xy[i0:i1, None, :] - xy[None, :, :], axis=2)
        dt = t[None, :] - t[i0:i1, None]
        ii, jj = np.nonzero((d <= delta_r_star) & (dt >= min_time_separation))
        for a, b in zip(ii + i0, jj):
            cands.append((d[a - i0, b], t[a], t[b], int(a), int(b)))
    cands.sort()
    out = []
    while cands:
        d, t1, t2, i, j = cands.pop(0)
        out.append((i, j))
        cands = [
            c
            for c in cands
            if not (
                abs(c[1] - t1) <= min_time_separation
                and abs(c[2] - t2) <= min_time_separation
            )
        ]
    return sorted(out, key=lambda p: (t[p[0]], t[p[1]]))


def planar_trajectory(points, dt=1.0):
    points = np.asarray(points, dtype=float)
    poses = np.tile(np.eye(4), (len(points), 1, 1))
    poses[:, 0, 3] = points[:, 0]
    poses[:, 1, 3] = points[:, 1]
    return Trajectory(times=np.arange(len(points)) * dt, poses=poses)


def bumpy_surface(rng, n=4000, extent=8.0):
    """Structured synthetic patch: plane plus smooth bumps, in body-like frame."""
    xy = rng.uniform(-extent / 2, extent / 2, size=(n, 2))
    z = 8.0 - 1.2 * np.exp(-((xy[:, 0] - 1.0) ** 2 + (xy[:, 1] + 0.8) ** 2) / 2.0)
    z -= 0.9 * np.exp(-((xy[:, 0] + 1.5) ** 2 + (xy[:, 1] - 1.2) ** 2) / 1.4)
    z -= 0.5 * np.exp(-((xy[:, 0]) ** 2 + (xy[:, 1] - 2.5) ** 2) / 0.8)
    return np.column_stack([xy, z])


def as_target(points):
    """Alignment target on the given points, without downsampling them."""
    normals, variation, valid = frontend.estimate_normals_and_variation(
        points, PARAMS.normal_neighbors
    )
    return frontend.Submap(points, normals, (variation < PARAMS.variation_threshold) & valid)


class TestRegisterProfiles:
    def test_identity_everything(self):
        poses = np.tile(np.eye(4), (3, 1, 1))
        traj = Trajectory(times=np.array([0.0, 1.0, 2.0]), poses=poses)
        pts = np.array([[1.0, 2.0, 3.0], [0.5, 0.5, 0.5]])
        cloud, rejected = frontend.register_profiles(np.array([1.0, 1.0]), pts, traj)
        assert rejected == 0
        assert np.allclose(cloud.points, pts)
        assert np.allclose(cloud.times, [1.0, 1.0])

    def test_pure_translation_at_node(self):
        poses = np.tile(np.eye(4), (2, 1, 1))
        poses[1, :3, 3] = [10.0, 0.0, 0.0]
        traj = Trajectory(times=np.array([0.0, 1.0]), poses=poses)
        pts = np.array([[0.0, 1.0, 5.0]])
        cloud, _ = frontend.register_profiles(np.array([1.0]), pts, traj)
        assert np.allclose(cloud.points, [[10.0, 1.0, 5.0]])

    def test_midpoint_interpolation(self):
        poses = np.tile(np.eye(4), (2, 1, 1))
        poses[1, :3, 3] = [4.0, 2.0, 0.0]
        traj = Trajectory(times=np.array([0.0, 1.0]), poses=poses)
        cloud, _ = frontend.register_profiles(np.array([0.5]), np.zeros((1, 3)), traj)
        assert np.allclose(cloud.points, [[2.0, 1.0, 0.0]])

    def test_out_of_span_rejected_with_count(self):
        poses = np.tile(np.eye(4), (2, 1, 1))
        traj = Trajectory(times=np.array([0.0, 1.0]), poses=poses)
        # three profiles, the first of two points
        stamps = np.array([-0.5, -0.5, 0.5, 1.5])
        cloud, rejected = frontend.register_profiles(stamps, np.zeros((4, 3)), traj)
        assert rejected == 2
        assert len(cloud) == 1

    def test_profiles_taken_in_stable_timestamp_order(self, rng):
        poses = np.stack([random_pose(rng) for _ in range(4)])
        traj = Trajectory(times=np.arange(4.0), poses=poses)
        profs = [
            sim.LaserProfile(t, rng.normal(size=(k, 3)))
            for t, k in ((0.5, 2), (2.5, 1), (1.5, 3), (2.5, 2), (0.5, 1))
        ]
        cloud, _ = frontend.register_profiles(*profile_rows(profs), traj)
        in_order = [profs[i] for i in (0, 4, 2, 1, 3)]
        expect, _ = frontend.register_profiles(*profile_rows(in_order), traj)
        assert np.array_equal(cloud.times, [0.5, 0.5, 0.5, 1.5, 1.5, 1.5, 2.5, 2.5, 2.5])
        assert np.array_equal(cloud.points, expect.points)
        assert np.array_equal(cloud.times, expect.times)

    def test_no_rows(self):
        traj = Trajectory(times=np.array([0.0, 1.0]), poses=np.tile(np.eye(4), (2, 1, 1)))
        cloud, rejected = frontend.register_profiles(np.zeros(0), np.zeros((0, 3)), traj)
        assert rejected == 0 and len(cloud) == 0 and cloud.points.shape == (0, 3)

    def test_exactly_invertible(self, rng):
        n = 10
        poses = np.stack([random_pose(rng) for _ in range(n)])
        traj = Trajectory(times=np.arange(n, dtype=float), poses=poses)
        pts = rng.normal(size=(5, 3)) * 3.0
        t = 4.3  # between nodes: the pose is interpolated
        cloud, _ = frontend.register_profiles(np.full(len(pts), t), pts, traj)
        inv = lie.se3_inv(traj.pose_at(t))
        back = cloud.points @ inv[:3, :3].T + inv[:3, 3]
        assert np.abs(back - pts).max() <= 1e-12


def reference_cases(rng):
    """Profile records for ``register_profiles`` and their trajectory, by case."""
    poses = np.stack([random_pose(rng, trans_scale=10.0) for _ in range(6)])
    traj = Trajectory(times=np.arange(6.0), poses=poses)

    def records(spec):
        return [sim.LaserProfile(t, rng.normal(size=(k, 3)) * 5.0) for t, k in spec]

    cfg = sim.default_config(seed=4)
    cfg.passes, cfg.pass_length, cfg.tie_margin = 2, 14.0, 8.0
    truth = sim.generate_truth(cfg)
    scan = sim.synth_scan(truth, cfg.terrain, sim.ScannerSpec(beams=16), seed=1)
    return {
        "out_of_order": (records(((3.7, 4), (0.2, 2), (4.9, 3), (1.1, 5), (2.5, 1))), traj),
        # two runs of one stamp, apart in the rows: two products, not one
        "shared_stamp": (records(((2.5, 3), (1.25, 2), (2.5, 4), (0.5, 1))), traj),
        "one_point": (records(((t, 1) for t in (4.5, 0.0, 2.75, 5.0, 1.5))), traj),
        "outside_span": (records(((-0.5, 2), (3.3, 3), (5.0, 1), (6.5, 2), (0.0, 2))), traj),
        "survey": (scan, sim.degrade(truth, cfg)),
    }


@pytest.mark.parametrize(
    "case", ["out_of_order", "shared_stamp", "one_point", "outside_span", "survey"])
def test_register_profiles_matches_per_record_reference(case):
    profiles, traj = reference_cases(np.random.default_rng(7))[case]
    cloud, rejected = frontend.register_profiles(*profile_rows(profiles), traj)
    expect, expect_rejected = register_per_record(profiles, traj)
    assert np.array_equal(cloud.points, expect.points)
    assert np.array_equal(cloud.times, expect.times)
    assert rejected == expect_rejected
    assert len(cloud) > 0


class TestDetectCrossings:
    def test_straight_line_empty(self):
        pts = np.column_stack([np.linspace(0, 100, 200), np.zeros(200)])
        traj = planar_trajectory(pts)
        assert frontend.detect_crossings(traj, 5.0, 30.0) == []

    def test_figure_eight_single_crossing(self):
        # start/end mid-lobe so the center is visited exactly twice
        s = np.linspace(-np.pi / 2, 1.5 * np.pi - 0.3, 360)
        pts = np.column_stack([20 * np.sin(s), 10 * np.sin(2 * s)])
        traj = planar_trajectory(pts, dt=1.0)
        crossings = frontend.detect_crossings(traj, 2.0, 30.0)
        assert len(crossings) == 1
        oracle = brute_force_crossings(traj, 2.0, 30.0)
        assert [(c.idx1, c.idx2) for c in crossings] == oracle

    def test_matches_brute_force_on_random_walks(self, rng):
        for trial in range(10):
            steps = rng.normal(size=(300, 2))
            pts = np.cumsum(steps, axis=0)
            traj = planar_trajectory(pts, dt=1.0)
            got = [(c.idx1, c.idx2) for c in frontend.detect_crossings(traj, 1.5, 25.0)]
            assert got == brute_force_crossings(traj, 1.5, 25.0), trial

    def test_matches_brute_force_at_ten_thousand_nodes(self, rng):
        steps = rng.normal(size=(10_000, 2)) * 0.5
        pts = np.cumsum(steps, axis=0)
        traj = planar_trajectory(pts, dt=0.5)
        got = [(c.idx1, c.idx2) for c in frontend.detect_crossings(traj, 1.0, 25.0)]
        assert got == brute_force_crossings(traj, 1.0, 25.0)
        assert len(got) > 0


class TestExtractSubmap:
    def test_all_points_at_anchor(self):
        anchor = np.eye(4)
        anchor[:3, 3] = [5.0, 6.0, 7.0]
        pts = np.tile(anchor[:3, 3], (150, 1))
        cloud = frontend.PointCloud(pts, np.zeros(150))
        sm = frontend.extract_submap(cloud, anchor, 5.0, 0, 0.0, 20.0, min_points=100)
        assert sm.shape == (150, 3)
        assert np.abs(sm).max() < 1e-12

    def test_boundary_exclusion(self):
        anchor = np.eye(4)
        inside = np.array([[4.999, 0.0, 3.0]])
        outside = np.array([[5.001, 0.0, 3.0]])
        cloud = frontend.PointCloud(
            np.vstack([np.zeros((100, 3)), inside, outside]), np.arange(102.0)
        )
        sm = frontend.extract_submap(cloud, anchor, 5.0, 0, 51.0, 51.0, min_points=1)
        assert len(sm) == 101

    def test_membership_matches_brute_force(self, rng):
        pts = rng.uniform(-10, 10, size=(500, 3))
        anchor = random_pose(rng)
        cloud = frontend.PointCloud(pts, np.zeros(500))
        sm = frontend.extract_submap(cloud, anchor, 4.0, 0, 0.0, 20.0, min_points=1)
        expect = np.sum(
            np.linalg.norm(pts[:, :2] - anchor[:2, 3], axis=1) <= 4.0
        )
        assert len(sm) == expect

    def test_insufficient_overlap(self):
        cloud = frontend.PointCloud(np.zeros((10, 3)), np.zeros(10))
        with pytest.raises(frontend.InsufficientOverlapError):
            frontend.extract_submap(cloud, np.eye(4), 5.0, 0, 0.0, 20.0, min_points=100)

    def test_time_gating(self):
        pts = np.zeros((200, 3))
        times = np.concatenate([np.zeros(120), np.full(80, 100.0)])
        cloud = frontend.PointCloud(pts, times)
        sm = frontend.extract_submap(
            cloud, np.eye(4), 5.0, 0, anchor_time=100.0, time_window=10.0, min_points=10
        )
        assert len(sm) == 80


def _nudge(x, ulps):
    for _ in range(abs(ulps)):
        x = np.nextafter(x, np.copysign(np.inf, ulps))
    return float(x)


@st.composite
def gated_crops(draw):
    """A time-ordered cloud, profile by profile, and a crop whose time gate
    lands on, or within a few ulps of, its stamps."""
    offset = draw(st.floats(-1e9, 1e9))
    steps = draw(st.lists(
        st.sampled_from([0.0, 5e-324, 1e-7, 0.05, 0.1]) | st.floats(0.0, 50.0),
        min_size=1, max_size=40,
    ))
    stamps = offset + np.cumsum(steps)
    times = np.repeat(stamps, draw(st.lists(
        st.integers(1, 4), min_size=len(stamps), max_size=len(stamps))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.uniform(-3.0, 3.0, size=(len(times), 3))
    t_center = _nudge(draw(st.sampled_from(stamps)), draw(st.integers(-3, 3)))
    gap = abs(draw(st.sampled_from(stamps)) - t_center)
    window = draw(
        st.integers(-3, 3).map(lambda k: _nudge(gap, k)) | st.floats(0.0, 100.0)
    )
    radius = draw(st.floats(0.0, 5.0))
    return frontend.PointCloud(points, times), t_center, window, radius


class TestCropWorld:
    @settings(max_examples=400, deadline=None)
    @given(gated_crops())
    def test_time_slice_equals_full_mask(self, crop):
        cloud, t_center, window, radius = crop
        center = np.array([0.5, -0.25])
        got = frontend.crop_world(cloud, center, radius, t_center, window)
        ref = crop_world_full_mask(cloud, center, radius, t_center, window)
        assert np.array_equal(got.points, ref.points)
        assert np.array_equal(got.times, ref.times)

    def test_pass_windows_of_a_closure_are_disjoint(self):
        t1, t2 = 100.0, 130.0
        window = frontend.pass_window(t1, t2, CFG.frontend_submap_time_window)
        cloud = frontend.PointCloud(np.zeros((701, 3)), np.linspace(80.0, 150.0, 701))
        a, b = (frontend.crop_world(cloud, np.zeros(2), 1.0, t, window) for t in (t1, t2))
        assert len(a) and len(b) and a.times.max() < b.times.min()

    @pytest.mark.parametrize("times", [[0.0, 2.0, 1.0], [0.0, np.nan, 1.0], [0.0, 1.0, np.inf]])
    def test_unordered_or_non_finite_times_rejected(self, times):
        with pytest.raises(ValueError, match="nondecreasing"):
            frontend.PointCloud(np.zeros((3, 3)), times)


class TestVoxelDownsample:
    def test_single_cell_centroid(self, rng):
        pts = rng.uniform(0.01, 0.04, size=(10, 3))
        out = frontend.voxel_downsample(pts, 0.05)
        assert out.shape == (1, 3)
        assert np.allclose(out[0], pts.mean(axis=0))

    def test_coarse_lattice_unchanged(self):
        g = np.arange(5) * 1.0
        pts = np.stack(np.meshgrid(g, g, g), axis=-1).reshape(-1, 3)
        out = frontend.voxel_downsample(pts, 0.05)
        assert len(out) == len(pts)

    def test_dense_input_reduces_order_of_magnitude(self, rng):
        # ~1 cm point spacing into a 5 cm grid
        base = rng.uniform(0, 1.0, size=(40000, 2))
        pts = np.column_stack([base, np.zeros(len(base))])
        out = frontend.voxel_downsample(pts, 0.05)
        assert len(out) < len(pts) / 10

    def test_rejects_bad_cell(self):
        with pytest.raises(ValueError):
            frontend.voxel_downsample(np.zeros((3, 3)), 0.0)

    @pytest.mark.parametrize("case", ["negative", "duplicates", "single", "wide"])
    def test_matches_unique_rows_bit_for_bit(self, rng, case):
        if case == "negative":
            # keys from -6 to 5 on each axis, half of them negative
            pts = rng.uniform(-0.3, 0.3, size=(5000, 3))
        elif case == "duplicates":
            pts = rng.uniform(-1.0, 1.0, size=(300, 3))
            pts = np.concatenate([pts, pts[::3], pts[::-7]])
        elif case == "single":
            pts = np.array([[-0.01, 0.02, -3.0]])
        else:
            # keys across 2^24 cells per axis: packed into 21 bits per axis,
            # they would wrap and merge voxels
            pts = np.concatenate([rng.uniform(-0.1, 0.1, size=(200, 3)),
                                  rng.uniform(-1.0, 1.0, size=(200, 3)) * 0.05 * 2**23])
        out = frontend.voxel_downsample(pts, 0.05)
        ref = voxel_downsample_unique(pts, 0.05)
        assert out.shape == ref.shape and np.array_equal(out, ref)
        if case == "wide":
            # each far point is alone in its voxel
            assert (np.abs(out).max(axis=1) > 1.0).sum() == 200


class TestNormals:
    def test_plane_normals_and_zero_variation(self, rng):
        xy = rng.uniform(-5, 5, size=(500, 2))
        pts = np.column_stack([xy, np.full(500, 10.0)])
        normals, variation, valid = frontend.estimate_normals_and_variation(pts, k=20)
        assert np.abs(np.abs(normals[:, 2]) - 1.0).max() < 1e-9
        assert np.all(normals[:, 2] < 0)  # oriented toward the origin
        assert variation.max() < 1e-12
        assert valid.all()

    def test_isotropic_blob_variation_near_third(self, rng):
        pts = rng.normal(size=(4000, 3))
        _, variation, _ = frontend.estimate_normals_and_variation(pts, k=60)
        assert abs(np.median(variation) - 1.0 / 3.0) < 0.08

    @staticmethod
    def corner(rng, n=1500):
        """Two perpendicular planes meeting at x = 0."""
        a = np.column_stack(
            [rng.uniform(-3, 0, n), rng.uniform(-3, 3, n), np.zeros(n)]
        )
        b = np.column_stack(
            [np.zeros(n), rng.uniform(-3, 3, n), rng.uniform(0, 3, n)]
        )
        return np.vstack([a, b]) + rng.normal(size=(2 * n, 3)) * 1e-3

    def test_edge_points_exceed_plane_threshold(self, rng):
        pts = self.corner(rng)
        _, variation, _ = frontend.estimate_normals_and_variation(pts, k=40)
        near_edge = (np.abs(pts[:, 0]) < 0.15) & (pts[:, 2] < 0.15)
        assert np.median(variation[near_edge]) > 3e-2

    def test_blocks_match_one_query_bit_for_bit(self, rng):
        n = 3000
        assert n > 2 * frontend._NORMAL_BLOCK and n % frontend._NORMAL_BLOCK
        xy = rng.uniform(-5.0, 5.0, size=(n, 2))
        pts = np.column_stack([xy, 0.3 * np.sin(xy[:, 0]) + 0.01 * rng.normal(size=n)])
        got = frontend.estimate_normals_and_variation(pts, k=CFG.frontend_normal_neighbors)
        ref = normals_in_one_query(pts, k=CFG.frontend_normal_neighbors)
        for a, b in zip(got, ref):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_unit_normals(self, rng):
        pts = bumpy_surface(rng, 2000)
        normals, _, _ = frontend.estimate_normals_and_variation(pts, k=30)
        assert np.abs(np.linalg.norm(normals, axis=1) - 1.0).max() <= 1e-6

    def test_target_plane_mask(self, rng):
        pts = self.corner(rng)
        target = frontend.preprocess_submap(pts, PARAMS)
        down = frontend.voxel_downsample(pts, PARAMS.voxel_cell)
        normals, variation, valid = frontend.estimate_normals_and_variation(
            down, PARAMS.normal_neighbors
        )
        assert np.array_equal(target.points, down)
        assert np.array_equal(target.normals, normals)
        assert np.array_equal(target.planar, (variation < PARAMS.variation_threshold) & valid)
        assert 0 < target.planar.sum() < len(target)


class TestIcpCost:
    """Normal equations of the row-form cost against finite differences of its
    objective under the update q -> exp(dphi) q + drho, and against the
    two-branch reference cost."""

    SIGMA = 0.025

    @staticmethod
    def correspondences(rng, n=200, planar=0.5):
        """Random source points and unit normals, a ``planar`` share of them planar."""
        src = rng.normal(size=(n, 3)) * 2.0
        nrm = rng.normal(size=(n, 3))
        nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
        return src, nrm, rng.permutation(n) < int(planar * n)

    @classmethod
    def cost(cls, src, tgt, nrm, use_plane):
        """``_icp_cost`` of the rows of the correspondences ``src`` -> ``tgt``."""
        index, t, d = frontend._icp_rows(tgt, nrm, use_plane)
        return frontend._icp_cost(src[index], t, d, cls.SIGMA)

    @classmethod
    def objective_at(cls, delta, src, *corr):
        moved = src @ lie.so3_exp(delta[:3]).T + delta[3:]
        return cls.cost(moved, *corr)[0]

    @pytest.mark.parametrize("planar", [1.0, 0.0, 0.5])
    def test_rows_match_two_branch_reference(self, rng, planar):
        src, nrm, use_plane = self.correspondences(rng, planar=planar)
        tgt = src + rng.normal(size=src.shape) * 0.05
        got = self.cost(src, tgt, nrm, use_plane)
        ref = icp_cost_two_branch(src, tgt, nrm, use_plane, self.SIGMA)
        for g, r in zip(got, ref):
            if planar == 1.0:
                assert np.array_equal(g, r)
            else:
                assert np.abs(g - r).max() <= 1e-12 * np.abs(r).max()

    def test_gradient_matches_central_differences(self, rng):
        src, nrm, use_plane = self.correspondences(rng)
        tgt = src + rng.normal(size=src.shape) * 0.05
        corr = (tgt, nrm, use_plane)
        obj, H, b = self.cost(src, *corr)
        h = 1e-6
        fd = np.array([
            (self.objective_at(h * e, src, *corr) - self.objective_at(-h * e, src, *corr))
            / (2 * h)
            for e in np.eye(6)
        ])
        assert np.abs(b - fd).max() <= 1e-6 * np.abs(b).max()

    def test_hessian_matches_finite_differences_at_zero_residual(self, rng):
        src, nrm, use_plane = self.correspondences(rng)
        # plane targets slide along their tangent plane: still zero residual
        slide = rng.normal(size=src.shape) * 0.3
        slide -= np.einsum("ni,ni->n", slide, nrm)[:, None] * nrm
        tgt = src + np.where(use_plane[:, None], slide, 0.0)
        corr = (tgt, nrm, use_plane)
        obj, H, _ = self.cost(src, *corr)
        assert obj < 1e-20
        h = 1e-4
        E = h * np.eye(6)
        fd = np.array([
            [
                self.objective_at(E[i] + E[j], src, *corr)
                - self.objective_at(E[i] - E[j], src, *corr)
                - self.objective_at(E[j] - E[i], src, *corr)
                + self.objective_at(-E[i] - E[j], src, *corr)
                for j in range(6)
            ]
            for i in range(6)
        ]) / (4 * h**2)
        assert np.abs(H - fd).max() <= 1e-6 * np.abs(H).max()


class TestIcp:
    def prepared_target(self, rng, pts=None):
        pts = bumpy_surface(rng) if pts is None else pts
        return frontend.preprocess_submap(pts, PARAMS)

    def test_self_alignment_is_identity(self, rng):
        target = self.prepared_target(rng)
        source = target.points.copy()
        T, report = frontend.icp_align(source, target, np.eye(4), PARAMS)
        assert report.converged
        assert report.iterations == 1
        xi = lie.se3_log(T)
        assert np.linalg.norm(xi[:3]) < 1e-2
        assert np.linalg.norm(xi[3:]) < 1e-3

    def test_recovers_known_transform(self, rng):
        target = self.prepared_target(rng)
        true = lie.se3_exp(
            np.array([0.03, -0.05, 0.12, 0.3, -0.2, 0.1])
        )
        source = (target.points - true[:3, 3]) @ true[:3, :3]
        T, report = frontend.icp_align(source, target, np.eye(4), PARAMS)
        err = lie.se3_log(lie.se3_inv(true) @ T)
        assert report.converged
        assert np.linalg.norm(err[:3]) <= 1e-2
        assert np.linalg.norm(err[3:]) <= 1e-2

    def test_partial_overlap_with_noise(self, rng):
        pts = bumpy_surface(rng, 6000, extent=10.0)
        target = self.prepared_target(rng, pts[pts[:, 0] < 2.0])
        src_region = pts[pts[:, 0] > -2.0]
        src = src_region + rng.normal(size=src_region.shape) * 0.01
        source = frontend.voxel_downsample(src, 0.05)
        T, report = frontend.icp_align(source, target, np.eye(4), PARAMS)
        assert report.converged
        dist, _ = cKDTree(target.points).query(source @ T[:3, :3].T + T[:3, 3])
        inliers, _ = frontend._frmsd_select(dist, PARAMS)
        assert 0.4 < len(inliers) / len(dist) <= 1.0
        xi = lie.se3_log(T)
        assert np.linalg.norm(xi[3:]) < 0.05

    def test_objective_trace_inner_monotone(self, rng):
        target = self.prepared_target(rng)
        true = lie.se3_exp(np.array([0.05, 0.02, -0.1, 0.2, 0.3, -0.1]))
        source = (target.points - true[:3, 3]) @ true[:3, :3]
        _, report = frontend.icp_align(source, target, np.eye(4), PARAMS)
        assert len(report.step_objectives) == report.iterations
        # each safeguarded update may not increase the fixed-correspondence cost
        for before, after in report.step_objectives:
            assert after <= before * (1 + 1e-12) + 1e-15

    def test_anchor_relabel_equivariance(self, rng):
        # re-expressing the target in a moved frame left-composes the result
        target = self.prepared_target(rng)
        true = lie.se3_exp(np.array([0.02, -0.03, 0.08, 0.2, -0.1, 0.15]))
        source = (target.points - true[:3, 3]) @ true[:3, :3]
        T0, _ = frontend.icp_align(source, target, np.eye(4), PARAMS)
        G = lie.se3_exp(np.array([0.1, 0.2, -0.3, 1.0, -2.0, 0.5]))
        moved_pts = target.points @ G[:3, :3].T + G[:3, 3]
        moved = as_target(moved_pts)
        T1, _ = frontend.icp_align(source, moved, G @ T0, PARAMS)
        assert np.abs(T1 - G @ T0).max() <= 1e-6

    def test_failure_on_tiny_source(self, rng):
        target = self.prepared_target(rng)
        with pytest.raises(frontend.AlignmentFailureError) as failure:
            frontend.icp_align(np.zeros((3, 3)), target, np.eye(4), PARAMS)
        assert failure.value.icp is None

    def test_divergence_raises_with_the_run(self):
        # no pose fits a cube of random points onto the bump surface; this
        # draw's alignment error grows three iterations in a row
        rng = np.random.default_rng(1)
        source = rng.uniform(-4.0, 4.0, size=(800, 3))
        target = self.prepared_target(rng)
        with pytest.raises(frontend.AlignmentFailureError, match="in a row") as failure:
            frontend.icp_align(source, target, np.eye(4), PARAMS)
        icp = failure.value.icp
        assert failure.value.outcome == "alignment_failure"
        assert not icp.converged
        assert icp.iterations == len(icp.step_objectives) >= frontend.DIVERGENCE_LIMIT


class TestMakeLoopClosure:
    def make_scene(self, rng, drift_xi=None):
        # one physical surface observed on two passes; the second pass's
        # registration carries an injected drift error
        surf = bumpy_surface(rng, 6000, extent=9.0)
        pose1 = lie.se3_exp(np.array([0, 0, 0.3, 12.0, 5.0, 0.0]))
        pose2 = pose1 @ lie.se3_exp(np.array([0, 0, 2.5, 1.0, 0.5, 0.0]))
        world1 = surf @ pose1[:3, :3].T + pose1[:3, 3]
        drift = np.eye(4) if drift_xi is None else lie.se3_exp(drift_xi)
        pose2_est = pose2 @ drift
        # points measured from pose2 land registered with the drifted pose
        body2 = (world1 - pose2[:3, 3]) @ pose2[:3, :3]
        world2 = body2 @ pose2_est[:3, :3].T + pose2_est[:3, 3]
        pts = np.vstack([world1, world2])
        times = np.concatenate([np.zeros(len(world1)), np.full(len(world2), 100.0)])
        poses = np.stack([pose1, pose2_est])
        traj = Trajectory(times=np.array([0.0, 100.0]), poses=poses)
        cloud = frontend.PointCloud(pts, times)
        crossing = frontend.Crossing(0, 1, 0.0, 100.0)
        return traj, cloud, crossing, pose1, pose2

    def test_perfect_trajectory_recovers_relative_pose(self, rng):
        traj, cloud, crossing, p1, p2 = self.make_scene(rng)
        m, report = frontend.make_loop_closure(
            traj, cloud, crossing, replace(PARAMS, submap_time_window=30.0)
        )
        expect = lie.se3_inv(p1) @ p2
        err = lie.se3_log(lie.se3_inv(expect) @ m.xi_meas)
        assert np.linalg.norm(err[:3]) < 1e-2
        assert np.linalg.norm(err[3:]) < 1e-2

    def test_injected_drift_is_measured(self, rng):
        drift_xi = np.array([0.0, 0.0, 0.02, 0.3, -0.2, 0.0])
        traj, cloud, crossing, p1, p2 = self.make_scene(rng, drift_xi)
        m, _ = frontend.make_loop_closure(
            traj, cloud, crossing, replace(PARAMS, submap_time_window=30.0)
        )
        # the measurement reflects the true relative pose, not the drifted one
        expect = lie.se3_inv(p1) @ p2
        err = lie.se3_log(lie.se3_inv(expect) @ m.xi_meas)
        assert np.linalg.norm(err[3:]) <= 2e-2

    def test_insufficient_overlap_raises(self, rng):
        traj, cloud, crossing, *_ = self.make_scene(rng)
        with pytest.raises(frontend.InsufficientOverlapError) as failure:
            frontend.make_loop_closure(
                traj, cloud, crossing, replace(PARAMS, min_submap_points=10**6)
            )
        assert failure.value.outcome == "insufficient_overlap"
        assert failure.value.icp is None

    def test_iteration_cap_raises_with_the_run(self, rng):
        # the stated covariance presumes a converged alignment
        drift_xi = np.array([0.0, 0.0, 0.02, 0.3, -0.2, 0.0])
        traj, cloud, crossing, *_ = self.make_scene(rng, drift_xi)
        params = replace(PARAMS, submap_time_window=30.0, icp_max_iterations=2)
        with pytest.raises(frontend.AlignmentFailureError) as failure:
            frontend.make_loop_closure(traj, cloud, crossing, params)
        assert str(failure.value) == (
            "ICP stopped at the iteration cap after 2 iterations without converging")
        icp = failure.value.icp
        assert not icp.converged
        assert icp.iterations == len(icp.step_objectives) == 2
