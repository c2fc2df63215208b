import os
from dataclasses import replace

import numpy as np
import pytest

from lcsmooth import frontend, lie, sim
from lcsmooth.trajectory import Trajectory

from conftest import profile_rows
from oracles import terrain_grad


def synth_scan_per_profile(truth, terrain, scanner, seed=0):
    """Reference ray caster: Newton on one profile at a time."""
    rng = np.random.default_rng(seed)
    dt = 1.0 / scanner.rate
    stamps = np.arange(truth.times[0], truth.times[-1] + 1e-9, dt)
    stamps = stamps[(stamps >= truth.times[0]) & (stamps <= truth.times[-1])]
    sensor_poses = truth.pose_at(stamps)
    half = np.deg2rad(scanner.fov_deg) / 2.0
    angles = np.linspace(-half, half, scanner.beams)
    dirs = np.stack([np.zeros_like(angles), np.sin(angles), np.cos(angles)], axis=1)

    profiles = []
    for t, pose in zip(stamps, sensor_poses):
        o = pose[:3, 3]
        d = dirs @ pose[:3, :3].T
        dz = d[:, 2]
        ok = dz > 0.05
        if not np.any(ok):
            continue
        d_ok = d[ok]
        dz_ok = dz[ok]
        s = (terrain.base_depth - o[2]) / dz_ok
        for _ in range(25):
            x = o[0] + s * d_ok[:, 0]
            y = o[1] + s * d_ok[:, 1]
            f = o[2] + s * dz_ok - terrain.depth(x, y)
            gx, gy = terrain.depth_grad(x, y)[1:]
            fp = dz_ok - gx * d_ok[:, 0] - gy * d_ok[:, 1]
            fp = np.where(np.abs(fp) < 1e-6, 1e-6, fp)
            step = f / fp
            s = s - step
            if np.max(np.abs(step)) < 1e-12:
                break
        x = o[0] + s * d_ok[:, 0]
        y = o[1] + s * d_ok[:, 1]
        residual = np.abs(o[2] + s * dz_ok - terrain.depth(x, y))
        hit = (s > 0.1) & (residual < 1e-8)
        if not np.any(hit):
            continue
        pts_sensor = s[hit, None] * dirs[ok][hit]
        if scanner.noise_sigma > 0:
            pts_sensor = pts_sensor + rng.standard_normal(pts_sensor.shape) * (
                scanner.noise_sigma
            )
        profiles.append(sim.LaserProfile(float(t), pts_sensor))
    return profiles


def assert_piecewise_constant_twist(truth, cfg):
    """The truth's per-step twist log(T_k^-1 T_k+1) / dt is the set speed
    along x and a yaw rate, every other axis zero; the yaw rate is constant
    along each leg, zero on the straights and about speed / turn radius on
    the quarter-circle arcs between them."""
    dt = np.diff(truth.times)[:, None]
    twist = lie.se3_log(lie.se3_inv(truth.poses[:-1]) @ truth.poses[1:]) / dt
    assert np.abs(twist[:, [0, 1, 4, 5]]).max() <= 1e-9
    assert np.abs(twist[:, 3] - cfg.speed).max() <= 1e-9
    yaw = twist[:, 2]
    legs = np.split(yaw, np.flatnonzero(np.abs(np.diff(yaw)) > 1e-9) + 1)
    is_arc = [np.abs(leg).max() > 1e-9 for leg in legs]
    n_arcs = sum(is_arc)
    assert n_arcs > 0 and is_arc == [False, True] * n_arcs + [False]
    for leg in (leg for leg, arc in zip(legs, is_arc) if arc):
        assert np.ptp(leg) <= 1e-9
        assert abs(abs(leg[0]) * cfg.turn_radius / cfg.speed - 1.0) < 0.05
        assert abs(abs(leg.sum()) / cfg.node_rate - np.pi / 2) <= 1e-9


# every drift term of ``sim.degrade`` switched off
NO_DRIFT = dict(
    vel_bias_x=0.0, vel_bias_y=0.0, vel_psd=0.0, white_psd_yaw=0.0, white_psd_xy=0.0,
    heading_bias=0.0,
)


@pytest.fixture(scope="module")
def cfg():
    return sim.default_config(seed=4)


@pytest.fixture(scope="module")
def truth(cfg):
    return sim.generate_truth(cfg)


class TestGenerateTruth:
    def test_single_straight_pass(self):
        cfg = sim.SimConfig(passes=1, pass_length=30.0)
        assert_piecewise_constant_twist(sim.generate_truth(cfg), cfg)

    def test_standard_survey_has_eight_crossings(self, cfg, truth):
        crossings = frontend.detect_crossings(truth, 5.0, 30.0)
        assert len(crossings) == cfg.passes == 8

    def test_velocity_consistency_on_straights(self, cfg, truth):
        assert_piecewise_constant_twist(truth, cfg)

    def test_planar_and_constant_speed(self, cfg, truth):
        assert np.abs(truth.positions[:, 2]).max() < 1e-9
        speeds = np.linalg.norm(np.diff(truth.positions, axis=0), axis=1) / np.diff(
            truth.times
        )
        assert abs(np.median(speeds) - cfg.speed) < 0.01

    def test_path_length_desk_scale(self, truth):
        assert 500.0 < truth.planar_length() < 700.0


class TestDegrade:
    def test_zero_noise_returns_truth_exactly(self, truth):
        cfg0 = replace(sim.default_config(seed=4), **NO_DRIFT)
        prior = sim.degrade(truth, cfg0)
        assert np.array_equal(prior.poses, truth.poses)

    def test_heading_bias_superlinear_on_straight(self):
        from lcsmooth.trajectory import Trajectory

        # straight constant-velocity line, heading bias only
        n, dt, v = 2001, 0.1, 1.0
        times = np.arange(n) * dt
        poses = np.tile(np.eye(4), (n, 1, 1))
        poses[:, 0, 3] = v * times
        truth = Trajectory(times=times, poses=poses)
        bias = 1e-4
        cfg = replace(sim.SimConfig(), **{**NO_DRIFT, "heading_bias": bias})
        prior = sim.degrade(truth, cfg)
        err = np.linalg.norm((prior.positions - truth.positions)[:, :2], axis=1)
        # quadratic growth: doubling time quadruples the error
        assert err[-1] > 3.5 * err[n // 2]
        expect = 0.5 * bias * v * times[-1] ** 2
        assert abs(err[-1] - expect) / expect < 0.05

    def test_deterministic_under_seed(self, cfg, truth):
        reseeded = replace(cfg, seed=9)
        p1 = sim.degrade(truth, reseeded)
        p2 = sim.degrade(truth, reseeded)
        assert np.array_equal(p1.poses, p2.poses)
        assert not np.array_equal(sim.degrade(truth, cfg).poses, p1.poses)

    def test_drift_magnitude_in_target_band(self, cfg, truth):
        prior = sim.degrade(truth, cfg)
        drift = np.linalg.norm((prior.positions - truth.positions)[:, :2], axis=1)
        pct = 100.0 * drift[-1] / truth.planar_length()
        assert 0.03 < pct < 0.3

    def test_observable_states_unaffected(self, cfg, truth):
        prior = sim.degrade(truth, cfg)
        e = lie.se3_log(lie.se3_inv(truth.poses) @ prior.poses)
        assert np.abs(e[:, :2]).max() < 1e-6  # roll/pitch
        assert np.abs(prior.positions[:, 2] - truth.positions[:, 2]).max() < 1e-6


class TestTerrain:
    def test_fused_pass_equals_separate_passes_bit_for_bit(self, cfg, rng):
        terrain = cfg.terrain
        bumps = np.array(terrain.bumps)
        # random points, and the bump centres, where one x - bx is exactly 0
        x = np.concatenate([rng.uniform(-40.0, 40.0, 5000), bumps[:, 0]])
        y = np.concatenate([rng.uniform(-20.0, 70.0, 5000), bumps[:, 1]])
        depth, gx, gy = terrain.depth_grad(x, y)
        assert np.array_equal(depth, terrain.depth(x, y))
        ref_gx, ref_gy = terrain_grad(terrain, x, y)
        assert np.array_equal(gx, ref_gx) and np.array_equal(gy, ref_gy)

    def test_terms_below_smallest_normal_count_as_zero(self, rng):
        # one narrow bump and no broad one, so that a far point's term is its
        # only term; exponents from 0 down through the subnormal band
        # [-745.2, -708.4) and below it
        bx, by, amp, sig = 1.0, -2.0, 2.0, 0.5
        terrain = sim.TerrainSpec(base_depth=10.0, bumps=[(bx, by, amp, sig)])
        r = np.concatenate([rng.uniform(0.0, 18.8, 2000), rng.uniform(18.8, 19.4, 2000),
                            rng.uniform(19.4, 30.0, 2000)])
        theta = rng.uniform(0.0, 2.0 * np.pi, len(r))
        x, y = bx + r * np.cos(theta), by + r * np.sin(theta)
        plain = np.exp(-((x - bx) ** 2 + (y - by) ** 2) / (2.0 * sig**2))
        e = amp * plain
        normal = plain >= np.finfo(float).tiny
        subnormal = (plain > 0.0) & ~normal
        assert normal.sum() > 1000 and subnormal.sum() > 100 and (plain == 0.0).sum() > 100
        depth, gx, gy = terrain.depth_grad(x, y)
        assert np.array_equal(terrain.depth(x, y), 10.0 - e)
        assert np.array_equal(depth, terrain.depth(x, y))
        for g, ref in ((gx, e * (x - bx) / sig**2), (gy, e * (y - by) / sig**2)):
            assert np.array_equal(g[normal], ref[normal])
            assert np.all(g[~normal] == 0.0) and np.any(ref[subnormal] != 0.0)

    @pytest.mark.parametrize("y", [2.0, np.array([2.0, 3.0])])
    def test_broadcasts_like_depth(self, cfg, y):
        depth, gx, gy = cfg.terrain.depth_grad(1.0, y)
        assert np.shape(depth) == np.shape(gx) == np.shape(gy) == np.shape(y)
        assert np.array_equal(depth, cfg.terrain.depth(1.0, y))
        assert np.array_equal([gx, gy], terrain_grad(cfg.terrain, 1.0, y))


class TestSynthScan:
    def test_flat_terrain_constant_range(self):
        cfg = sim.SimConfig(passes=1, pass_length=20.0)
        cfg.terrain = sim.TerrainSpec(base_depth=10.0, bumps=[])
        cfg.scanner = sim.ScannerSpec(beams=5, noise_sigma=0.0)
        truth = sim.generate_truth(cfg)
        profiles = sim.synth_scan(truth, cfg.terrain, cfg.scanner, seed=0)
        half = np.deg2rad(cfg.scanner.fov_deg) / 2
        expect = 10.0 / np.cos(np.linspace(-half, half, 5))
        for p in profiles[:20]:
            assert np.allclose(np.linalg.norm(p.points, axis=1), expect, atol=1e-9)

    def test_registered_profiles_reproduce_terrain(self, cfg, truth):
        scanner = sim.ScannerSpec(beams=16, noise_sigma=0.0)
        profiles = sim.synth_scan(truth, cfg.terrain, scanner, seed=0)
        cloud, _ = frontend.register_profiles(*profile_rows(profiles[::50]), truth)
        depth = cfg.terrain.depth(cloud.points[:, 0], cloud.points[:, 1])
        assert np.abs(cloud.points[:, 2] - depth).max() <= 1e-8

    def test_feature_bump_visible(self):
        cfg = sim.SimConfig(passes=1, pass_length=20.0)
        cfg.terrain = sim.TerrainSpec(base_depth=10.0, bumps=[(-5.0, 0.0, 2.0, 1.0)])
        cfg.scanner = sim.ScannerSpec(beams=33, noise_sigma=0.0)
        truth = sim.generate_truth(cfg)
        profiles = sim.synth_scan(truth, cfg.terrain, cfg.scanner, seed=0)
        cloud, _ = frontend.register_profiles(*profile_rows(profiles), truth)
        near = np.linalg.norm(cloud.points[:, :2] - [-5.0, 0.0], axis=1) < 0.3
        assert near.any()
        assert cloud.points[near, 2].min() < 10.0 - 1.5

    def test_deterministic(self, cfg, truth):
        scanner = sim.ScannerSpec(beams=4)
        p1 = sim.synth_scan(truth, cfg.terrain, scanner, seed=3)
        p2 = sim.synth_scan(truth, cfg.terrain, scanner, seed=3)
        assert all(np.array_equal(a.points, b.points) for a, b in zip(p1, p2))

    def test_matches_per_profile_reference_bit_for_bit(self, monkeypatch):
        cfg = sim.default_config(seed=4)
        cfg.passes, cfg.pass_length, cfg.tie_margin = 2, 14.0, 8.0
        full = sim.generate_truth(cfg)
        n = 300  # 30 s up the bumpy tie line: 599 profiles at 20 Hz
        # a 70 degree roll sends the outer beams above the dz > 0.05 cutoff
        poses = full.poses[:n] @ lie.make_pose(
            lie.so3_exp(np.array([np.deg2rad(70.0), 0.0, 0.0])), np.zeros(3)
        )
        # below the seabed every ray misses, so these profiles are dropped
        poses[100:110, 2, 3] = 12.0
        # rolled further over, no beam points down enough to cast
        poses[150:160, :3, :3] = poses[150:160, :3, :3] @ lie.so3_exp(
            np.array([np.deg2rad(100.0), 0.0, 0.0])
        )
        truth = Trajectory(times=full.times[:n], poses=poses)
        scanner = sim.ScannerSpec(beams=24, noise_sigma=0.01)
        stamps = len(np.arange(truth.times[0], truth.times[-1] + 1e-9, 0.05))
        assert stamps > 2 * sim._CHUNK_PROFILES and stamps % sim._CHUNK_PROFILES

        ref = synth_scan_per_profile(truth, cfg.terrain, scanner, seed=2)
        kept = np.array([p.timestamp for p in ref])
        for t0, t1 in ((10.0, 10.9), (15.0, 15.9)):  # nodes 100-109, 150-159
            assert not np.any((kept >= t0) & (kept <= t1))
        assert max(len(p.points) for p in ref) < scanner.beams
        for cpus in (1, 2):  # chunks cast on the calling thread alone, and beside a helper
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                raising=False)
            got = sim.synth_scan(truth, cfg.terrain, scanner, seed=2)
            assert [p.timestamp for p in got] == [p.timestamp for p in ref]
            assert all(np.array_equal(a.points, b.points) for a, b in zip(got, ref))


class TestTruthSelfConsistency:
    def test_overlapping_passes_within_twice_point_noise(self):
        # truth registration introduces no misalignment, so pass-to-pass
        # disparity is sampling floor plus noise; sample densely enough that
        # the noise dominates
        from lcsmooth import metrics

        cfg = sim.default_config(seed=4)
        cfg.passes = 2
        cfg.pass_length = 14.0
        cfg.tie_margin = 8.0
        noise = 0.02
        cfg.scanner = sim.ScannerSpec(
            rate=40.0, beams=112, fov_deg=24.0, noise_sigma=noise
        )
        truth = sim.generate_truth(cfg)
        profiles = sim.synth_scan(truth, cfg.terrain, cfg.scanner, seed=5)
        cloud, _ = frontend.register_profiles(*profile_rows(profiles), truth)
        c = frontend.detect_crossings(truth, 5.0, 20.0)[0]
        passes = []
        for t in (c.t1, c.t2):
            crop = frontend.crop_world(
                cloud, truth.positions[c.idx1][:2], 5.0, t_center=t, window=15.0
            )
            passes.append(crop.points)
        d = metrics.point_disparity(*passes, overlap_gate=1.0)
        assert np.median(d) <= 2.0 * noise


class TestLoopClosureSynthesis:
    def test_truth_consistent_up_to_noise(self, cfg, truth):
        crossings = frontend.detect_crossings(truth, 5.0, 30.0)
        meas = sim.synth_loop_closures(truth, crossings, 1e-3, 0.01, seed=5)
        assert len(meas) == 8
        for m, c in zip(meas, crossings):
            expect = lie.se3_inv(truth.poses[c.idx1]) @ truth.poses[c.idx2]
            err = lie.se3_log(lie.se3_inv(expect) @ m.xi_meas)
            assert np.linalg.norm(err[:3]) < 5e-3
            assert np.linalg.norm(err[3:]) < 0.05


class TestInjectOutliers:
    def make_measurements(self, truth, n=7):
        crossings = frontend.detect_crossings(truth, 5.0, 30.0)[:n]
        return sim.synth_loop_closures(truth, crossings, 1e-3, 0.01, seed=1)

    def test_zero_count_unchanged(self, truth):
        meas = self.make_measurements(truth)
        out = sim.inject_outliers(meas, 0, seed=3)
        assert all(a is b for a, b in zip(meas, out))

    def test_exact_count_replaced_reproducibly(self, truth):
        meas = self.make_measurements(truth)
        out1 = sim.inject_outliers(meas, 5, seed=3)
        out2 = sim.inject_outliers(meas, 5, seed=3)
        replaced = [i for i, (a, b) in enumerate(zip(meas, out1)) if a is not b]
        assert len(replaced) == 5
        assert all(
            np.array_equal(a.xi_meas, b.xi_meas) for a, b in zip(out1, out2)
        )

    def test_rejects_count_above_available(self, truth):
        meas = self.make_measurements(truth)
        with pytest.raises(ValueError):
            sim.inject_outliers(meas, len(meas) + 1, seed=0)

    def test_sampled_ranges(self, truth):
        meas = self.make_measurements(truth, n=5)
        r_xy, r_z = [], []
        for k in range(2000):
            out = sim.inject_outliers(meas, 5, seed=k)
            for m in out:
                r = m.xi_meas[:3, 3]
                r_xy.append(np.hypot(r[0], r[1]))
                r_z.append(r[2])
        r_xy, r_z = np.array(r_xy), np.array(r_z)
        assert r_xy.max() <= 5.0
        in_low = (r_z >= -0.5) & (r_z <= 0.5)
        in_high = (r_z >= 13.5) & (r_z <= 14.5)
        assert np.all(in_low | in_high)
        assert 0.4 < np.mean(in_low) < 0.6
        # attitude angles cover the full rotation range
        angles = np.array(
            [
                np.linalg.norm(lie.so3_log(m.xi_meas[:3, :3]))
                for k in range(50)
                for m in sim.inject_outliers(meas, 5, seed=k)
            ]
        )
        assert angles.max() > 2.0
